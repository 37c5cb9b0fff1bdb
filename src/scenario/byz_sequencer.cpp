#include "scenario/byz_sequencer.hpp"

namespace neo::scenario {

namespace {

/// Sequence number of an emitted sequencer packet, or 0 for packets the
/// attacks do not target (data forwards, epoch control traffic).
SeqNum emitted_seq(BytesView data) {
    if (data.empty()) return 0;
    try {
        Reader r(data.subspan(1));
        switch (static_cast<aom::Wire>(data[0])) {
            case aom::Wire::kSeqHm: return aom::HmPacket::parse(r).seq;
            case aom::Wire::kSeqPk:
            case aom::Wire::kCheckpoint: return aom::PkPacket::parse(r).seq;
            default: return 0;
        }
    } catch (const CodecError&) {
        return 0;
    }
}

}  // namespace

sim::Packet ByzSequencer::corrupted_copy(const sim::Packet& packet) {
    BytesView v = packet.view();
    Bytes copy(v.begin(), v.end());
    copy.back() ^= 0xA5;  // trailing payload/MAC byte: auth check must fail
    return sim::Packet(std::move(copy));
}

void ByzSequencer::emit(NodeId receiver, sim::Time depart, sim::Packet packet) {
    // Honest until a fault is set: forward without parsing the packet.
    SeqNum seq = faults_ == Faults{} ? 0 : emitted_seq(packet.view());
    if (seq == 0) {
        SequencerSwitch::emit(receiver, depart, std::move(packet));
        return;
    }

    if (hits(faults_.drop_mod, seq)) return;

    if (hits(faults_.strip_sig_mod, seq)) {
        BytesView v = packet.view();
        if (static_cast<aom::Wire>(v[0]) == aom::Wire::kSeqPk ||
            static_cast<aom::Wire>(v[0]) == aom::Wire::kCheckpoint) {
            try {
                Reader r(v.subspan(1));
                aom::PkPacket pk = aom::PkPacket::parse(r);
                if (!pk.signature.empty()) {
                    pk.signature.clear();
                    packet = sim::Packet(pk.serialize());
                }
            } catch (const CodecError&) {
            }
        }
    }

    bool corrupt = hits(faults_.corrupt_mod, seq) ||
                   (hits(faults_.equivocate_mod, seq) && (receiver & 1) != 0);
    if (corrupt) packet = corrupted_copy(packet);

    if (hits(faults_.dup_mod, seq)) SequencerSwitch::emit(receiver, depart, packet);
    SequencerSwitch::emit(receiver, depart, std::move(packet));
}

}  // namespace neo::scenario
