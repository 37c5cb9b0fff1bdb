// Simulated data-center network: nodes, links, loss, partitions, tampering.
//
// Replaces the paper's 100 Gbps testbed fabric (see DESIGN.md §1). Latency,
// jitter and drops are applied per packet from a counter-based per-SENDER
// RNG stream derived from (seed, sender id) — never from a shared global
// stream — so the draw sequence each packet sees is a pure function of the
// sender's own send order, independent of how nodes interleave across
// partitions. This is what keeps simulated results identical between
// --sim-threads 1 and --sim-threads N.
//
// Instrumentation counters are sharded per partition (plus one shard for
// global-context sends): each increment lands in the executing partition's
// shard without locks, and which shard that is is itself deterministic, so
// aggregate AND per-shard sums are reproducible. Deliveries are scheduled
// with Simulator::at_node(to, ...) and execute on the receiver's partition.
//
// The network also maintains the simulator's conservative lookahead as the
// minimum configured link latency (see simulator.hpp).
//
// Packets are refcounted immutable buffers (sim/packet.hpp): a multicast
// fan-out hands every destination the same buffer, and delivery closures
// carry the refcount — not a copy — through the event queue and across
// partition mailboxes.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "obs/trace.hpp"
#include "sim/packet.hpp"
#include "sim/simulator.hpp"

namespace neo::obs {
class Registry;
}

namespace neo::sim {

struct LinkConfig {
    /// One-way propagation + switching latency.
    Time latency = 5 * kMicrosecond;
    /// Uniform random addition in [0, jitter).
    Time jitter = 2 * kMicrosecond;
    /// Probability a packet is silently lost.
    double drop_rate = 0.0;
    /// Serialisation delay per byte (0.08 ns/B == 100 Gbps).
    double ns_per_byte = 0.08;
};

class Node;

enum class TamperAction { kDeliver, kDrop };

/// Inspects/mutates packets in flight; used by Byzantine-network tests.
/// Runs on a private mutable copy of the shared packet buffer (copy-on-
/// write), so tampering one delivery never corrupts the other receivers'
/// view of a multicast.
using TamperFn = std::function<TamperAction(NodeId from, NodeId to, Bytes& data)>;

class Network {
  public:
    Network(Simulator& sim, std::uint64_t seed)
        : sim_(sim), seed_(seed), shards_(sim.partitions() + 1) {
        refresh_lookahead();
    }

    Simulator& simulator() { return sim_; }

    /// Registers a node under `id` and attaches it to this network.
    void add_node(Node& node, NodeId id);

    /// Link configuration may only change from setup code or a global
    /// event (never inside a node's event): it feeds the simulator's
    /// lookahead, which must stay constant within a parallel window.
    void set_default_link(const LinkConfig& cfg) {
        default_link_ = cfg;
        refresh_lookahead();
    }
    const LinkConfig& default_link() const { return default_link_; }
    /// Directional per-pair override.
    void set_link(NodeId from, NodeId to, const LinkConfig& cfg);
    const LinkConfig& link(NodeId from, NodeId to) const;

    /// Applies an additional drop probability to every link (Fig 9's
    /// "simulated drop rate" knob).
    void set_global_drop_rate(double rate) { global_drop_rate_ = rate; }
    double global_drop_rate() const { return global_drop_rate_; }

    /// Partitions: blocked directional pairs deliver nothing.
    void block(NodeId from, NodeId to) { blocked_.insert(key(from, to)); }
    void unblock(NodeId from, NodeId to) { blocked_.erase(key(from, to)); }
    bool is_blocked(NodeId from, NodeId to) const {
        return !blocked_.empty() && blocked_.contains(key(from, to));
    }

    /// A down node neither sends nor receives (crash model).
    void set_node_down(NodeId id, bool down);
    bool is_down(NodeId id) const { return !down_.empty() && down_.contains(id); }

    void set_tamper(TamperFn fn) { tamper_ = std::move(fn); }

    /// Transmits at the current simulation time.
    void send(NodeId from, NodeId to, Packet data) {
        send_at(sim_.now(), from, to, std::move(data));
    }

    /// Transmits with the given departure timestamp (>= now). The packet
    /// buffer is shared, not copied — callers multicast by passing the same
    /// Packet for every destination.
    void send_at(Time depart, NodeId from, NodeId to, Packet data);

    // Instrumentation. Getters aggregate the per-partition shards; call
    // them from setup code, global events, or after a run (not from node
    // events racing with other partitions).
    std::uint64_t packets_sent() const { return sum(&Shard::packets_sent); }
    std::uint64_t packets_delivered() const { return sum(&Shard::packets_delivered); }
    std::uint64_t packets_dropped() const { return sum(&Shard::packets_dropped); }
    std::uint64_t bytes_sent() const { return sum(&Shard::bytes_sent); }
    /// Packets the Byzantine tamper hook rewrote but let through (the
    /// dropped ones count under DropReason::kTampered instead).
    std::uint64_t tamper_mutations() const { return sum(&Shard::tamper_mutations); }

    /// Drop attribution: why each dropped packet was lost.
    std::uint64_t dropped_for(obs::DropReason reason) const {
        std::uint64_t total = 0;
        for (const auto& s : shards_) total += s.drops_by_reason[static_cast<std::size_t>(reason)];
        return total;
    }
    /// Total virtual time delivered packets spent in flight (latency +
    /// jitter + serialisation); the "network" share of end-to-end latency.
    Time transit_time() const {
        Time total = 0;
        for (const auto& s : shards_) total += s.transit_time;
        return total;
    }
    /// Aggregate CPU busy time across attached nodes (CPU-model share).
    Time total_cpu_busy() const;
    /// Aggregate arrival-queue wait across attached nodes (queueing share).
    Time total_queue_wait() const;

    /// Per-destination delivered-message counter (Table 1 bottleneck
    /// message counting).
    std::uint64_t delivered_to(NodeId id) const;
    void reset_counters();

    /// Publishes packet/byte/drop-reason counters (and per-destination
    /// delivered counts) under `prefix` at every registry dump.
    void register_metrics(obs::Registry& reg, const std::string& prefix);

  private:
    static std::uint64_t key(NodeId from, NodeId to) {
        return (static_cast<std::uint64_t>(from) << 32) | to;
    }

    /// One partition's slice of the counters (index = executing partition;
    /// the last shard belongs to global-context sends). 64-byte aligned so
    /// partitions never false-share a cache line.
    struct alignas(64) Shard {
        std::uint64_t packets_sent = 0;
        std::uint64_t packets_delivered = 0;
        std::uint64_t packets_dropped = 0;
        std::uint64_t bytes_sent = 0;
        std::uint64_t tamper_mutations = 0;
        Time transit_time = 0;
        std::array<std::uint64_t, static_cast<std::size_t>(obs::DropReason::kCount_)>
            drops_by_reason{};
        /// NodeId-indexed; add_node sizes it in every shard before any run.
        std::vector<std::uint64_t> delivered_to;
    };

    Shard& shard() { return shards_[sim_.current_shard()]; }
    std::uint64_t sum(std::uint64_t Shard::* field) const {
        std::uint64_t total = 0;
        for (const auto& s : shards_) total += s.*field;
        return total;
    }

    /// The per-sender deterministic stream. add_node sizes the table past
    /// every attached id; sends from ids beyond it (test scaffolding that
    /// never attached the sender) grow it lazily, which is only safe from
    /// setup code or a global event — never from a node event on a worker
    /// thread.
    StreamRng& stream(NodeId from) {
        if (from >= streams_.size()) grow_streams(from);
        return streams_[from];
    }
    void grow_streams(NodeId id);

    void refresh_lookahead();
    void count_drop(obs::DropReason reason, Time t, NodeId from, NodeId to, std::size_t bytes);

    Simulator& sim_;
    std::uint64_t seed_;
    LinkConfig default_link_;
    std::map<std::uint64_t, LinkConfig> link_overrides_;
    // NodeId-indexed tables, grown only from setup code (add_node): packet
    // routing and the per-sender streams index them without hashing.
    // nodes_ holds null for ids that were never attached; streams_[id] is
    // StreamRng(seed_, id) for every id, attached or not.
    std::vector<Node*> nodes_;
    std::vector<StreamRng> streams_;
    std::unordered_set<std::uint64_t> blocked_;
    std::unordered_set<NodeId> down_;
    TamperFn tamper_;
    double global_drop_rate_ = 0.0;

    std::vector<Shard> shards_;
};

/// Base class for all simulated endpoints.
class Node {
  public:
    virtual ~Node() = default;

    NodeId id() const { return id_; }
    Network& net() { return *net_; }
    Simulator& sim() { return net_->simulator(); }
    bool attached() const { return net_ != nullptr; }

    /// Raw packet delivery; called by the network at arrival time. The
    /// packet buffer is shared — keep a Packet copy (refcount bump) to
    /// retain the bytes beyond the call, never a deep copy.
    virtual void on_packet(NodeId from, const Packet& pkt) = 0;

    /// CPU-model accounting, aggregated by Network::total_cpu_busy /
    /// total_queue_wait for the bench harness's latency breakdown. Nodes
    /// without a CPU model (e.g. the sequencer switch pipeline) report 0.
    virtual Time cpu_busy_time() const { return 0; }
    virtual Time cpu_queue_wait() const { return 0; }

  private:
    friend class Network;
    Network* net_ = nullptr;
    NodeId id_ = kInvalidNode;
};

}  // namespace neo::sim
