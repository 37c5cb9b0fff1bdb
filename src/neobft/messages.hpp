// NeoBFT protocol messages (§5.3–§5.5, §B.1–§B.2).
//
// Wire kinds start at aom::Wire::kProtoBase. Each message is one field
// list (common/codec.hpp) from which its encoding, its decoding and its
// signed body all follow; dispatchers treat CodecError as Byzantine
// garbage.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "aom/cert.hpp"
#include "common/codec.hpp"
#include "common/types.hpp"
#include "crypto/identity.hpp"

namespace neo::neobft {

enum class MsgKind : std::uint8_t {
    kRequest = 0x20,
    kReply = 0x21,
    kQuery = 0x22,
    kQueryReply = 0x23,
    kGapFind = 0x24,
    kGapRecv = 0x25,
    kGapDrop = 0x26,
    kGapDecision = 0x27,
    kGapPrepare = 0x28,
    kGapCommit = 0x29,
    kViewChange = 0x2a,
    kViewStart = 0x2b,
    kEpochStart = 0x2c,
    kSync = 0x2d,
    kStateReq = 0x2e,
    kStateReply = 0x2f,
    kPing = 0x30,
    kPong = 0x31,
    kGapCertReply = 0x32,
    kCkptReq = 0x33,
    kCkptMeta = 0x34,
    kCkptChunkReq = 0x35,
    kCkptChunk = 0x36,
};

/// Stable name for a NeoBFT wire kind (falls through to the aom layer's
/// names for kinds below kProtoBase); nullptr for unknown bytes. Suitable
/// as a metrics key fragment.
const char* msg_kind_name(std::uint8_t kind);

/// Decoding caps.
constexpr std::size_t kMaxOp = 1u << 20;
constexpr std::size_t kMaxSuffix = 1u << 16;
constexpr std::size_t kMaxSignature = 256;
constexpr std::size_t kMaxMac = 64;
// 1 MiB chunks would already be generous; bound the count so a Byzantine
// meta cannot make the requester allocate an absurd chunk table.
constexpr std::uint32_t kMaxCkptChunks = 1u << 20;
constexpr std::size_t kMaxMerklePath = 64;

using crypto::kMaxQuorum;
using crypto::SignerSig;

/// View number: ⟨epoch-num, leader-num⟩ (§5.2).
struct ViewId {
    EpochNum epoch = 1;
    LeaderNum leader = 0;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.epoch, m.leader);
    }

    friend bool operator==(const ViewId&, const ViewId&) = default;
    friend auto operator<=>(const ViewId& a, const ViewId& b) {
        if (auto c = a.epoch <=> b.epoch; c != 0) return c;
        return a.leader <=> b.leader;
    }
};

// ---------------------------------------------------------------- Request

/// Client request, carried as the aom payload (and re-sent by unicast on
/// timeout). Signed by the client.
struct Request : wire::Message<Request> {
    static constexpr MsgKind kKind = MsgKind::kRequest;
    static constexpr std::string_view kTag = "neobft-request";
    NodeId client = 0;
    std::uint64_t request_id = 0;
    Bytes op;
    Bytes signature;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.client, m.request_id);
        io.blob(m.op, kMaxOp);
        io.auth(m.signature, kMaxSignature);
    }
    /// The request inside an aom payload, kind byte included; nullopt when
    /// the payload is anything else.
    static std::optional<Request> parse_payload(BytesView payload) {
        return wire::try_decode<Request>(payload);
    }
};

// ------------------------------------------------------------------ Reply

/// Replica -> client. Authenticated with the pairwise client MAC over
/// signed_body() (all protocols in this repo authenticate client replies
/// the same way so the comparison stays apples-to-apples; see DESIGN.md
/// §6).
struct Reply : wire::Message<Reply> {
    static constexpr MsgKind kKind = MsgKind::kReply;
    static constexpr std::string_view kTag = "neobft-reply";
    ViewId view;
    NodeId replica = 0;
    std::uint64_t slot = 0;
    Digest32 log_hash{};
    std::uint64_t request_id = 0;
    Bytes result;
    Bytes mac;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.view, m.replica, m.slot, m.log_hash, m.request_id);
        io.blob(m.result, kMaxOp);
        io.auth(m.mac, kMaxMac);
    }
};

// ---------------------------------------------------- Gap handling (§5.4)

struct Query : wire::Message<Query> {
    static constexpr MsgKind kKind = MsgKind::kQuery;
    ViewId view;
    std::uint64_t slot = 0;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.view, m.slot);
    }
};

/// A slot's ordering certificate, length-prefixed: the answer to a QUERY
/// (QueryReply) and a replica's "received" answer to GAP-FIND (GapRecv).
template <MsgKind K>
struct SlotCert : wire::Message<SlotCert<K>> {
    static constexpr MsgKind kKind = K;
    ViewId view;
    std::uint64_t slot = 0;
    aom::OrderingCert oc;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.view, m.slot);
        io.framed(m.oc);
    }
};
using QueryReply = SlotCert<MsgKind::kQueryReply>;
using GapRecv = SlotCert<MsgKind::kGapRecv>;

struct GapFind : wire::Message<GapFind> {
    static constexpr MsgKind kKind = MsgKind::kGapFind;
    static constexpr std::string_view kTag = "neobft-gap-find";
    ViewId view;
    std::uint64_t slot = 0;
    Bytes signature;  // leader's

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.view, m.slot);
        io.auth(m.signature, kMaxSignature);
    }
};

struct GapDrop : wire::Message<GapDrop> {
    static constexpr MsgKind kKind = MsgKind::kGapDrop;
    static constexpr std::string_view kTag = "neobft-gap-drop";
    ViewId view;
    NodeId replica = 0;
    std::uint64_t slot = 0;
    Bytes signature;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.view, m.replica, m.slot);
        io.auth(m.signature, kMaxSignature);
    }
};

/// The leader's signature binds it to the (view, slot, outcome) triple;
/// the evidence is self-certifying and travels unsigned.
struct GapDecision : wire::Message<GapDecision> {
    static constexpr MsgKind kKind = MsgKind::kGapDecision;
    static constexpr std::string_view kTag = "neobft-gap-decision";
    ViewId view;
    std::uint64_t slot = 0;
    bool recv = false;
    std::optional<aom::OrderingCert> oc;  // when recv
    std::vector<GapDrop> drops;           // 2f+1 when !recv
    Bytes signature;                      // leader's

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.view, m.slot, m.recv);
        if (io.on_wire()) {
            if (m.recv) {
                io.framed(m.oc);
            } else {
                io.framed(m.drops, kMaxQuorum);
            }
        }
        io.auth(m.signature, kMaxSignature);
    }
};

/// A replica's gap-agreement vote (GAP-PREPARE, GAP-COMMIT).
template <MsgKind K>
struct GapVote : wire::Message<GapVote<K>> {
    static constexpr MsgKind kKind = K;
    static constexpr std::string_view kTag =
        K == MsgKind::kGapPrepare ? "neobft-gap-prepare" : "neobft-gap-commit";
    ViewId view;
    NodeId replica = 0;
    std::uint64_t slot = 0;
    bool recv = false;
    Bytes signature;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.view, m.replica, m.slot, m.recv);
        io.auth(m.signature, kMaxSignature);
    }
};
using GapPrepare = GapVote<MsgKind::kGapPrepare>;
using GapCommit = GapVote<MsgKind::kGapCommit>;

/// 2f+1 gap-commits: proof that `slot` committed as recv/drop (§5.4).
struct GapCertificate {
    ViewId view;
    std::uint64_t slot = 0;
    bool recv = false;
    std::vector<SignerSig> commits;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.view, m.slot, m.recv);
        io.list(m.commits, kMaxQuorum);
    }

    friend bool operator==(const GapCertificate&, const GapCertificate&) = default;
};

/// Answer to a QUERY for a slot whose gap agreement already concluded:
/// the stored certificate (2f+1 gap-commits) plus, for a recv outcome, the
/// ordering certificate. Self-certifying — no signature needed.
struct GapCertReply : wire::Message<GapCertReply> {
    static constexpr MsgKind kKind = MsgKind::kGapCertReply;
    ViewId view;
    std::uint64_t slot = 0;
    GapCertificate cert;
    std::optional<aom::OrderingCert> oc;  // present when cert.recv

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.view, m.slot, m.cert);
        bool has_oc = m.oc.has_value();
        io(has_oc);
        if (has_oc) io.framed(m.oc);
    }
};

// --------------------------------------------------- State sync (§B.2)

/// Signature covers (view, replica, slot, log_hash, app_hash) so 2f+1
/// syncs form a transferable commitment certificate; the attached gap
/// certificates are self-certifying. `app_hash` is the Merkle root of the
/// replica's checkpoint payload when `slot` is a checkpoint boundary, zero
/// otherwise (checkpointing disabled, or a non-checkpoint sync).
struct SyncMsg : wire::Message<SyncMsg> {
    static constexpr MsgKind kKind = MsgKind::kSync;
    static constexpr std::string_view kTag = "neobft-sync";
    ViewId view;
    NodeId replica = 0;
    std::uint64_t slot = 0;
    Digest32 log_hash{};
    Digest32 app_hash{};
    std::vector<GapCertificate> drops;
    Bytes signature;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.view, m.replica, m.slot, m.log_hash, m.app_hash);
        if (io.on_wire()) io.list(m.drops, kMaxQuorum);
        io.auth(m.signature, kMaxSignature);
    }
};

/// 2f+1 matching sync signatures: proof that the log prefix up to `slot`
/// (with hash `log_hash`) is committed, and — when app_hash is nonzero —
/// that `app_hash` is the agreed application-state root at `slot`.
struct SyncCertificate {
    ViewId view;
    std::uint64_t slot = 0;
    Digest32 log_hash{};
    Digest32 app_hash{};
    std::vector<SignerSig> sigs;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.view, m.slot, m.log_hash, m.app_hash);
        io.list(m.sigs, kMaxQuorum);
    }
    bool empty() const { return sigs.empty(); }
};

// -------------------------------------------- Epoch & view change (§B.1)

struct EpochStart : wire::Message<EpochStart> {
    static constexpr MsgKind kKind = MsgKind::kEpochStart;
    static constexpr std::string_view kTag = "neobft-epoch-start";
    EpochNum epoch = 0;
    NodeId replica = 0;
    std::uint64_t slot = 0;  // last log index after merging
    Bytes signature;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.epoch, m.replica, m.slot);
        io.auth(m.signature, kMaxSignature);
    }
};

/// 2f+1 epoch-starts: the agreed starting log position of an epoch.
struct EpochCertificate {
    EpochNum epoch = 0;
    std::uint64_t slot = 0;  // last slot of the previous epoch
    std::vector<SignerSig> sigs;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.epoch, m.slot);
        io.list(m.sigs, kMaxQuorum);
    }

    friend bool operator==(const EpochCertificate&, const EpochCertificate&) = default;
};

/// Log entry as transferred in view changes and state transfer. Either a
/// request backed by an ordering certificate or a no-op backed by a gap
/// certificate.
struct WireLogEntry {
    bool noop = false;
    aom::OrderingCert oc;      // when !noop
    GapCertificate gap_cert;   // when noop

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.noop);
        if (m.noop) {
            io(m.gap_cert);
        } else {
            io.framed(m.oc);
        }
    }
};

/// Signed over the whole message but the signature itself.
struct ViewChange : wire::Message<ViewChange> {
    static constexpr MsgKind kKind = MsgKind::kViewChange;
    static constexpr std::string_view kTag = "neobft-view-change";
    ViewId new_view;
    NodeId replica = 0;
    /// Commitment baseline: everything <= sync_cert.slot is committed and
    /// identical at all correct replicas. May be empty (no sync yet).
    SyncCertificate sync_cert;
    /// Epoch certificates for every epoch this log started after the
    /// baseline: (epoch, first slot of the epoch, certificate).
    struct EpochStartInfo {
        EpochNum epoch = 0;
        std::uint64_t start_slot = 0;
        EpochCertificate cert;

        template <class IO, class M>
        static void fields(IO& io, M& m) {
            io(m.epoch, m.start_slot, m.cert);
        }
    };
    std::vector<EpochStartInfo> epochs;
    /// Log entries after the baseline, starting at suffix_base + 1.
    std::uint64_t suffix_base = 0;
    std::vector<WireLogEntry> suffix;
    Bytes signature;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.new_view, m.replica, m.sync_cert);
        io.list(m.epochs, kMaxQuorum);
        io(m.suffix_base);
        io.list(m.suffix, kMaxSuffix);
        io.auth(m.signature, kMaxSignature);
    }
};

struct ViewStart : wire::Message<ViewStart> {
    static constexpr MsgKind kKind = MsgKind::kViewStart;
    static constexpr std::string_view kTag = "neobft-view-start";
    ViewId new_view;
    std::vector<ViewChange> msgs;  // 2f+1
    Bytes signature;               // new leader's

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.new_view);
        io.framed(m.msgs, kMaxQuorum);
        io.auth(m.signature, kMaxSignature);
    }
};

// ------------------------------------------------------ Leader probing
//
// The paper's liveness argument (§C.2) assumes non-faulty replicas
// "correctly suspect" faulty leaders. This implements that failure
// detector: a replica that hears a VIEW-CHANGE for a higher view probes the
// current leader and joins the view change if the leader stays silent.

template <MsgKind K>
struct Probe : wire::Message<Probe<K>> {
    static constexpr MsgKind kKind = K;
    ViewId view;
    std::uint64_t nonce = 0;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.view, m.nonce);
    }
};
using Ping = Probe<MsgKind::kPing>;
using Pong = Probe<MsgKind::kPong>;

// ----------------------------------------------------- State transfer

struct StateReq : wire::Message<StateReq> {
    static constexpr MsgKind kKind = MsgKind::kStateReq;
    std::uint64_t from_slot = 0;
    std::uint64_t to_slot = 0;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.from_slot, m.to_slot);
    }
};

struct StateReply : wire::Message<StateReply> {
    static constexpr MsgKind kKind = MsgKind::kStateReply;
    std::uint64_t base_slot = 0;  // entries start at base_slot + 1
    std::vector<WireLogEntry> entries;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.base_slot);
        io.list(m.entries, kMaxSuffix);
    }
};

// ------------------------------------------- Checkpoint transfer (§B.2)
//
// A replica whose log starts above the slot a peer needs (stable-checkpoint
// GC) answers with checkpoint metadata instead of log entries. The payload
// travels as Merkle-verified chunks: the sync certificate binds the root
// (app_hash), so each chunk is independently checkable and a Byzantine
// server cannot substitute state.

/// "Send me a checkpoint at or above `min_slot`."
struct CkptReq : wire::Message<CkptReq> {
    static constexpr MsgKind kKind = MsgKind::kCkptReq;
    std::uint64_t min_slot = 0;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.min_slot);
    }
};

/// Checkpoint offer: the certificate proves (slot, log_hash, app_hash);
/// chunking parameters let the requester schedule kCkptChunkReq pulls.
struct CkptMeta : wire::Message<CkptMeta> {
    static constexpr MsgKind kKind = MsgKind::kCkptMeta;
    std::uint64_t slot = 0;
    std::uint32_t n_chunks = 0;
    std::uint32_t chunk_size = 0;
    SyncCertificate cert;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.slot, m.n_chunks, m.chunk_size);
        io.check(m.n_chunks <= kMaxCkptChunks, "oversized chunk count");
        io(m.cert);
    }
};

struct CkptChunkReq : wire::Message<CkptChunkReq> {
    static constexpr MsgKind kKind = MsgKind::kCkptChunkReq;
    std::uint64_t slot = 0;
    std::uint32_t index = 0;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.slot, m.index);
    }
};

/// One payload chunk plus its Merkle authentication path (sibling hashes
/// bottom-up; verified against the certificate's app_hash).
struct CkptChunk : wire::Message<CkptChunk> {
    static constexpr MsgKind kKind = MsgKind::kCkptChunk;
    std::uint64_t slot = 0;
    std::uint32_t index = 0;
    std::uint32_t n_chunks = 0;
    Bytes chunk;
    std::vector<Digest32> siblings;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.slot, m.index, m.n_chunks);
        io.check(m.n_chunks <= kMaxCkptChunks, "oversized chunk count");
        io.blob(m.chunk, kMaxOp);
        io.list(m.siblings, kMaxMerklePath);
    }
};

}  // namespace neo::neobft
