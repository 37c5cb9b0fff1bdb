// Malicious sequencer switch for Byzantine scenarios.
//
// NeoBFT's safety argument (§5) says a compromised switch can at worst
// deny service: receivers verify the per-message authentication (MAC
// vector or signature/hash chain) end-to-end, so a switch that drops,
// duplicates, corrupts, signature-strips or equivocates sequenced packets
// must never cause a divergent commit — only slower progress until
// failover. This subclass makes those attacks injectable so the scenario
// matrix can check exactly that. Every NeoBFT bench deployment builds its
// switches as this class; with no fault set, emit() forwards without
// parsing the packet.
//
// Faults key off the sequence number stamped into the emitted packet
// (`seq % mod == 0`), so a fault hits the SAME sequenced message for every
// receiver — the adversarial shape (an inconsistent switch) rather than
// independent random loss (sim::Network already models that).
//
// Emitted packets are refcounted and shared across the multicast fan-out;
// every mutation here re-serialises into a fresh buffer and never touches
// the shared bytes.
#pragma once

#include <cstdint>

#include "aom/sequencer.hpp"
#include "aom/wire.hpp"

namespace neo::scenario {

class ByzSequencer : public aom::SequencerSwitch {
  public:
    using aom::SequencerSwitch::SequencerSwitch;

    /// Active attacks; each applies when `seq % mod == 0` (0 = off).
    struct Faults {
        std::uint32_t drop_mod = 0;        // skipped seqnums
        std::uint32_t dup_mod = 0;         // duplicated emission
        std::uint32_t corrupt_mod = 0;     // flipped payload byte (auth must fail)
        std::uint32_t strip_sig_mod = 0;   // PK variant: signature cleared
        std::uint32_t equivocate_mod = 0;  // corrupt for odd-id receivers only
        bool operator==(const Faults&) const = default;
    };
    void set_faults(const Faults& f) { faults_ = f; }
    const Faults& faults() const { return faults_; }

  protected:
    void emit(NodeId receiver, sim::Time depart, sim::Packet packet) override;

  private:
    static bool hits(std::uint32_t mod, SeqNum seq) {
        return mod != 0 && seq % mod == 0;
    }
    sim::Packet corrupted_copy(const sim::Packet& packet);

    Faults faults_;
};

}  // namespace neo::scenario
