// Ordering certificates (§4.2): the publicly verifiable proof that an aom
// message was sequenced by the network.
//
//  - HM variant: the stamped header plus the complete HMAC vector. Any
//    receiver can verify its own vector entry (transferable authentication).
//  - PK variant: the stamped header plus the hash-chain links from this
//    message up to the nearest signed packet, whose signature covers the
//    whole suffix (reverse-order batch verification, §4.4).
//  - Byzantine network mode additionally attaches 2f+1 signed confirms.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "aom/keys.hpp"
#include "aom/types.hpp"
#include "aom/wire.hpp"
#include "crypto/identity.hpp"

namespace neo::aom {

struct ConfirmSig {
    NodeId node = 0;
    Bytes signature;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.node);
        io.blob(m.signature, kMaxSignature);
    }
};

struct OrderingCert : wire::Message<OrderingCert> {
    AuthVariant variant = AuthVariant::kHmacVector;
    GroupId group = 0;
    EpochNum epoch = 0;
    SeqNum seq = 0;
    Digest32 digest{};
    Bytes payload;

    // HM: full MAC vector, one entry per receiver slot.
    std::vector<std::uint32_t> macs;

    // PK: chain links; chain[0] describes this message, the last link is the
    // signed packet. `signature` covers the last link's chain value.
    struct ChainLink {
        SeqNum seq = 0;
        Digest32 digest{};
        Digest32 prev_chain{};

        template <class IO, class M>
        static void fields(IO& io, M& m) {
            io(m.seq, m.digest, m.prev_chain);
        }
    };
    std::vector<ChainLink> chain;
    Bytes signature;

    // Byzantine network mode: 2f+1 matching confirms.
    std::vector<ConfirmSig> confirms;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.variant);
        io.check(m.variant == AuthVariant::kHmacVector || m.variant == AuthVariant::kPublicKey,
                 "bad auth variant");
        io(m.group, m.epoch, m.seq, m.digest);
        io.blob(m.payload, kMaxPayload);
        io.list(m.macs, 256);
        io.list(m.chain, 4'096);
        io.blob(m.signature, kMaxSignature);
        io.list(m.confirms, 512);
    }
};

/// Everything a receiver needs to verify certificates, including ones from
/// earlier epochs (view changes transfer old-epoch certificates).
struct VerifyContext {
    const GroupConfig* cfg = nullptr;
    NodeId self = kInvalidNode;
    crypto::NodeCrypto* crypto = nullptr;
    const AomKeyService* keys = nullptr;
    /// Resolves the sequencer switch that owned `epoch` (kInvalidNode if
    /// unknown -> verification fails).
    std::function<NodeId(EpochNum)> sequencer_for_epoch;
};

/// Full verification: payload digest, variant authentication (own MAC entry
/// or chain + signature), and — when the group runs under a Byzantine
/// network model — the 2f+1 confirm quorum. Charges the context's crypto
/// meter like a real receiver would.
bool verify_cert(const OrderingCert& cert, const VerifyContext& ctx);

}  // namespace neo::aom
