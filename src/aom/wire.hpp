// aom wire formats (§4.1): the custom header that follows the UDP header,
// in the sender, HM (subgroup MAC vector) and PK (hash-chain) flavours.
//
// Every simulated packet starts with a one-byte channel/kind tag; values
// below kProtoBase belong to the aom layer, higher values to the
// replication protocol riding on top.
#pragma once

#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/codec.hpp"
#include "common/types.hpp"
#include "aom/types.hpp"

namespace neo::aom {

enum class Wire : std::uint8_t {
    kData = 0x01,        // sender -> sequencer
    kSeqHm = 0x02,       // sequencer -> receivers (HMAC subgroup packet)
    kSeqPk = 0x03,       // sequencer -> receivers (hash-chain packet)
    kCheckpoint = 0x04,  // sequencer -> receivers (retro-signature, no payload)
    kConfirm = 0x05,     // receiver <-> receiver (Byzantine network mode)
    kFailoverReq = 0x06, // receiver -> config service
    kNewEpoch = 0x07,    // config service -> receivers
    kProtoBase = 0x20,   // first value owned by the replication protocol
};

/// Returns the tag byte, or nullopt for an empty packet.
std::optional<std::uint8_t> peek_kind(BytesView packet);

/// True if the packet belongs to the aom layer (kind < kProtoBase).
bool is_aom_packet(BytesView packet);

/// Stable name for an aom wire kind; nullptr for bytes the layer does not
/// own (protocol kinds >= kProtoBase). Suitable as a metrics key fragment.
const char* wire_kind_name(std::uint8_t kind);

/// Decoding caps shared by the aom formats.
constexpr std::size_t kMaxPayload = 1u << 20;  // application payload
constexpr std::size_t kMaxSignature = 256;

/// Sender -> sequencer.
struct DataPacket : wire::Message<DataPacket> {
    static constexpr Wire kKind = Wire::kData;
    GroupId group = 0;
    Digest32 digest{};
    Bytes payload;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.group, m.digest);
        io.blob(m.payload, kMaxPayload);
    }
};

/// Sequencer -> receivers, HM variant. One packet per subgroup; each
/// carries kHmSubgroupSize MACs so receivers can assemble the full vector.
struct HmPacket : wire::Message<HmPacket> {
    static constexpr Wire kKind = Wire::kSeqHm;
    GroupId group = 0;
    EpochNum epoch = 0;
    SeqNum seq = 0;
    Digest32 digest{};
    std::uint8_t subgroup = 0;
    std::uint8_t n_subgroups = 1;
    /// MACs for receiver slots [subgroup*4, subgroup*4 + macs.size()).
    std::vector<std::uint32_t> macs;
    Bytes payload;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.group, m.epoch, m.seq, m.digest, m.subgroup, m.n_subgroups);
        io.template list<std::uint8_t>(m.macs, kHmSubgroupSize);
        io.check(m.n_subgroups != 0 && m.subgroup < m.n_subgroups, "bad subgroup index");
        io.blob(m.payload, kMaxPayload);
    }
};

/// Sequencer -> receivers, PK variant. `signature` may be empty when the
/// signing-ratio controller skipped this packet (§4.4); `checkpoint` packets
/// retro-sign the chain head and carry no payload.
///
/// The one aom format without a field list: `checkpoint` picks the kind
/// byte (kCheckpoint or kSeqPk) and decides whether a payload follows, and
/// decoding infers it from whether bytes remain after the signature.
struct PkPacket {
    GroupId group = 0;
    EpochNum epoch = 0;
    SeqNum seq = 0;
    Digest32 digest{};
    Digest32 prev_chain{};
    Bytes signature;  // empty or 64 bytes over the chain value C_seq
    bool checkpoint = false;
    Bytes payload;

    Bytes serialize() const;
    static PkPacket parse(Reader& r);  // after either kind byte
};

/// Receiver -> receivers (Byzantine network mode). Entries are batched into
/// one packet (the paper batches confirm processing, §6.2) but each entry
/// carries its own signature over confirm_input() so the resulting ordering
/// certificates stay independently verifiable (transferable).
struct ConfirmPacket : wire::Message<ConfirmPacket> {
    static constexpr Wire kKind = Wire::kConfirm;
    static constexpr std::size_t kMaxEntries = 4'096;
    NodeId sender = 0;
    GroupId group = 0;
    EpochNum epoch = 0;
    struct Entry {
        SeqNum seq = 0;
        Digest32 digest{};
        Bytes signature;

        template <class IO, class M>
        static void fields(IO& io, M& m) {
            io(m.seq, m.digest);
            io.blob(m.signature, kMaxSignature);
        }
    };
    std::vector<Entry> entries;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.sender, m.group, m.epoch);
        io.list(m.entries, kMaxEntries);
    }
};

/// Receiver -> config service: this group's sequencer looks faulty; please
/// install a new one for `next_epoch`.
struct FailoverRequest : wire::Message<FailoverRequest> {
    static constexpr Wire kKind = Wire::kFailoverReq;
    NodeId sender = 0;
    GroupId group = 0;
    EpochNum next_epoch = 0;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.sender, m.group, m.next_epoch);
    }
};

/// Config service -> receivers/senders: a new sequencer is live.
struct NewEpochAnnouncement : wire::Message<NewEpochAnnouncement> {
    static constexpr Wire kKind = Wire::kNewEpoch;
    GroupId group = 0;
    EpochNum epoch = 0;
    NodeId sequencer = kInvalidNode;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.group, m.epoch, m.sequencer);
    }
};

/// Canonical byte string authenticated by the sequencer for a message:
/// group || epoch || seq || digest (§4.1: "the concatenated message digest
/// and the sequence number").
Bytes auth_input(GroupId group, EpochNum epoch, SeqNum seq, const Digest32& digest);

/// Hash-chain values (PK variant): C_0 = H("genesis" || group || epoch),
/// C_s = H(C_{s-1} || auth_input(s)).
Digest32 chain_genesis(GroupId group, EpochNum epoch);
Digest32 chain_next(const Digest32& prev, GroupId group, EpochNum epoch, SeqNum seq,
                    const Digest32& digest);

/// Byte string covered by a receiver's confirm signature for one entry.
Bytes confirm_input(GroupId group, EpochNum epoch, SeqNum seq, const Digest32& digest);

}  // namespace neo::aom
