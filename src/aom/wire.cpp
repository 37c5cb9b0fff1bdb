#include "aom/wire.hpp"

#include "crypto/sha256.hpp"

namespace neo::aom {

std::optional<std::uint8_t> peek_kind(BytesView packet) {
    if (packet.empty()) return std::nullopt;
    return packet[0];
}

bool is_aom_packet(BytesView packet) {
    auto k = peek_kind(packet);
    return k.has_value() && *k < static_cast<std::uint8_t>(Wire::kProtoBase);
}

const char* wire_kind_name(std::uint8_t kind) {
    switch (static_cast<Wire>(kind)) {
        case Wire::kData: return "aom_data";
        case Wire::kSeqHm: return "aom_seq_hm";
        case Wire::kSeqPk: return "aom_seq_pk";
        case Wire::kCheckpoint: return "aom_checkpoint";
        case Wire::kConfirm: return "aom_confirm";
        case Wire::kFailoverReq: return "aom_failover_req";
        case Wire::kNewEpoch: return "aom_new_epoch";
        default: return nullptr;
    }
}

// ---------- PkPacket ----------

Bytes PkPacket::serialize() const {
    Writer w(128 + payload.size());
    w.u8(static_cast<std::uint8_t>(checkpoint ? Wire::kCheckpoint : Wire::kSeqPk));
    w.u32(group);
    w.u64(epoch);
    w.u64(seq);
    w.raw(BytesView(digest.data(), digest.size()));
    w.raw(BytesView(prev_chain.data(), prev_chain.size()));
    w.blob(signature);
    if (!checkpoint) w.blob(payload);
    return std::move(w).take();
}

PkPacket PkPacket::parse(Reader& r) {
    // The caller has consumed the kind byte, so the two shapes are told
    // apart by what follows the signature: nothing for a checkpoint, a
    // payload blob for a sequenced message.
    PkPacket p;
    p.group = r.u32();
    p.epoch = r.u64();
    p.seq = r.u64();
    p.digest = r.digest32();
    p.prev_chain = r.digest32();
    p.signature = r.blob(kMaxSignature);
    if (!p.signature.empty() && p.signature.size() != 64) throw CodecError("bad signature length");
    if (r.at_end()) {
        p.checkpoint = true;
        if (p.signature.empty()) throw CodecError("checkpoint must be signed");
    } else {
        p.payload = r.blob(kMaxPayload);
        r.expect_end();
    }
    return p;
}

// ---------- authenticated byte strings ----------

Bytes auth_input(GroupId group, EpochNum epoch, SeqNum seq, const Digest32& digest) {
    Writer w(56);
    w.u32(group);
    w.u64(epoch);
    w.u64(seq);
    w.raw(BytesView(digest.data(), digest.size()));
    return std::move(w).take();
}

Digest32 chain_genesis(GroupId group, EpochNum epoch) {
    Writer w(32);
    w.str("aom-chain-genesis");
    w.u32(group);
    w.u64(epoch);
    return crypto::sha256(w.bytes());
}

Digest32 chain_next(const Digest32& prev, GroupId group, EpochNum epoch, SeqNum seq,
                    const Digest32& digest) {
    return crypto::sha256_pair(BytesView(prev.data(), prev.size()),
                               auth_input(group, epoch, seq, digest));
}

Bytes confirm_input(GroupId group, EpochNum epoch, SeqNum seq, const Digest32& digest) {
    Writer w(64);
    w.str("aom-confirm-entry");
    w.raw(auth_input(group, epoch, seq, digest));
    return std::move(w).take();
}

}  // namespace neo::aom
