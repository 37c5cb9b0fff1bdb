// Emulated sequencer switch (§4.2–§4.4).
//
// Implements the Tofino data-plane algorithm exactly — per-group counters
// and epochs, HalfSipHash HMAC vectors with 4-wide subgroup packetisation,
// or secp256k1 signatures with the FPGA coprocessor's pre-compute stock,
// signing-ratio controller and SHA-256 hash chaining — while modelling the
// hardware's service times (pipeline passes, signer throughput, tail-drop
// queue) in virtual time. See DESIGN.md §1 for the substitution argument.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "aom/keys.hpp"
#include "aom/types.hpp"
#include "aom/wire.hpp"
#include "crypto/identity.hpp"
#include "sim/costs.hpp"
#include "sim/network.hpp"

namespace neo::obs {
class Registry;
}

namespace neo::aom {

struct SequencerConfig {
    /// Base parse/match-action forwarding latency.
    sim::Time forward_ns = sim::kSwitchForwardNs;
    /// Latency of the HMAC folded pipeline (occupancy is hm_service_ns;
    /// the pipeline is deep, so latency >> occupancy).
    sim::Time hm_auth_latency_ns = sim::kHmacAuthLatencyNs;
    /// PK pipeline line-rate service (hash-chain stamping).
    sim::Time pk_chain_service_ns = sim::kPkChainServiceNs;
    /// FPGA signer service time per signature (1/1.1 Mpps).
    sim::Time pk_sign_service_ns = sim::kPkSignServiceNs;
    /// Extra latency of the FPGA round trip on signed packets.
    sim::Time pk_sign_latency_ns = sim::kPkSignLatencyNs;
    /// Signer input queue bound; beyond it the controller skips signatures.
    std::size_t pk_signer_queue = 8;
    sim::PkPrecomputeConfig precompute{};
    /// Ingress tail-drop threshold (packets queued in the pipeline).
    std::size_t max_queue_depth = 4'096;
    /// Idle period after which an unsigned chain head is retro-signed with a
    /// checkpoint packet so receivers do not stall (§4.4 batch delivery).
    sim::Time checkpoint_idle_ns = 100 * sim::kMicrosecond;
    /// Tofino's 16 loopback ports cap HM groups at 64 receivers (§4.3);
    /// the Fig 8 software sequencer has no such port budget.
    bool enforce_hm_port_limit = true;

    /// Software sequencer profile used for the Fig 8 EC2-style scalability
    /// runs (the paper also substitutes a software switch there).
    static SequencerConfig software_profile();
};

class SequencerSwitch : public sim::Node {
  public:
    SequencerSwitch(SequencerConfig cfg, std::unique_ptr<crypto::NodeCrypto> crypto,
                    const AomKeyService* keys)
        : cfg_(cfg), crypto_(std::move(crypto)), keys_(keys) {}

    /// Control plane (configuration service): makes this switch the
    /// sequencer for `group` starting at `epoch`. Resets counter and chain;
    /// for an HM group this is the key exchange (§4.3), so the switch must
    /// be attached: it takes its per-receiver keys here.
    void install_group(const GroupConfig& group, EpochNum epoch);
    void remove_group(GroupId group);
    bool serves_group(GroupId group) const {
        return group < groups_.size() && groups_[group] != nullptr;
    }

    /// Fault injection: a stalled switch accepts packets but emits nothing.
    void set_stall(bool stalled) { stalled_ = stalled; }

    void on_packet(NodeId from, const sim::Packet& pkt) override;

    // Instrumentation.
    std::uint64_t packets_sequenced() const { return packets_sequenced_; }
    std::uint64_t signatures_generated() const { return signatures_generated_; }
    std::uint64_t signatures_skipped() const { return signatures_skipped_; }
    std::uint64_t tail_drops() const { return tail_drops_; }
    double precompute_stock() const { return stock_; }

    /// Publishes sequencing/signing counters under `prefix` at every
    /// registry dump.
    void register_metrics(obs::Registry& reg, const std::string& prefix);

  protected:
    /// Emission hook; Byzantine-switch test doubles override this to
    /// equivocate or drop. Multicast fan-out passes the SAME Packet for
    /// every receiver — one serialisation, N refcount bumps.
    virtual void emit(NodeId receiver, sim::Time depart, sim::Packet packet) {
        net().send_at(depart, id(), receiver, std::move(packet));
    }

  private:
    struct GroupState {
        GroupConfig cfg;
        EpochNum epoch = 0;
        SeqNum next_seq = 1;
        Digest32 chain{};        // C_{next_seq - 1}
        // Chain-head bookkeeping for idle checkpoints.
        SeqNum head_seq = 0;
        bool head_signed = true;
        Digest32 head_prev{};
        Digest32 head_digest{};
        std::uint32_t unsigned_run = 0;
        std::uint64_t checkpoint_generation = 0;
        // HM: the key shared with cfg.receivers[i], taken at install.
        std::vector<crypto::HalfSipKey> hm_keys;
    };

    void process_hm(GroupState& gs, const DataPacket& pkt, sim::Time emit_time);
    void process_pk(GroupState& gs, const DataPacket& pkt, sim::Time emit_time);
    void refill_stock();
    void schedule_checkpoint(GroupId group);

    /// Per-packet hot-path lookup: dense array indexed by GroupId (bounds
    /// check + pointer load, no hashing — measurable at 16 groups). Slots
    /// are null for group ids this switch does not serve. Group ids are
    /// small dense integers handed out by the configuration service;
    /// kMaxGroupId bounds the table so a corrupt id cannot balloon it.
    GroupState* find_group(GroupId group) {
        return group < groups_.size() ? groups_[group].get() : nullptr;
    }

    SequencerConfig cfg_;
    std::unique_ptr<crypto::NodeCrypto> crypto_;
    const AomKeyService* keys_;
    std::vector<std::unique_ptr<GroupState>> groups_;

    sim::Time pipe_busy_until_ = 0;
    sim::Time signer_busy_until_ = 0;
    double stock_ = 0.0;
    sim::Time last_refill_ = 0;
    std::size_t in_flight_ = 0;
    bool stalled_ = false;
    bool stock_initialized_ = false;

    std::uint64_t packets_sequenced_ = 0;
    std::uint64_t signatures_generated_ = 0;
    std::uint64_t signatures_skipped_ = 0;
    std::uint64_t tail_drops_ = 0;
};

}  // namespace neo::aom
