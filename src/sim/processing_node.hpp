// Serial-CPU endpoint model.
//
// A ProcessingNode handles one message at a time: arrivals queue, the
// handler runs when the CPU frees up, and the handler's cost (fixed
// per-message overhead + metered synchronous crypto) extends the node's busy
// time. Outbound messages produced by a handler depart when processing
// completes (plus any asynchronous crypto latency — work offloaded to the
// machine's worker cores, which delays the result without serialising the
// protocol thread).
//
// This is the mechanism that turns Table 1's "bottleneck complexity" into
// the throughput saturation and queuing-delay knees of Fig 7.
//
// Host-efficiency notes: arrivals are queued as refcounted Packets (no
// per-arrival byte copy), broadcast shares one buffer across every
// destination, and timer tasks ride in EventFns so the queue never
// heap-allocates for small callables.
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "crypto/cost.hpp"
#include "sim/event.hpp"
#include "sim/network.hpp"

namespace neo::obs {
class Registry;
}

namespace neo::sim {

struct ProcessingConfig {
    /// Fixed cost to receive + parse + dispatch one message.
    Time recv_overhead_ns = 1'200;
    /// Fixed cost per outbound unicast transmission.
    Time send_overhead_ns = 700;
    /// Size-dependent host I/O cost (copies, NIC descriptors): applied per
    /// byte sent and received. Large batched protocol messages pay this;
    /// it is the mechanism behind the paper's "reduced batching efficiency"
    /// with bigger requests (§6.5).
    double io_ns_per_byte = 0.3;
    /// Fixed cost to run a timer callback.
    Time timer_overhead_ns = 300;
    /// Worker cores available for asynchronous crypto (the testbed replicas
    /// are 32-core machines; a task's batched signature work overlaps
    /// across this pool — see crypto::CostMeter::drain_async).
    int crypto_parallelism = 16;
};

class ProcessingNode : public Node {
  public:
    using TimerId = std::uint64_t;

    explicit ProcessingNode(ProcessingConfig cfg = {}) : cfg_(cfg) {}

    void on_packet(NodeId from, const Packet& pkt) final;

    /// Total virtual time this node's CPU has been busy (utilisation stats).
    Time busy_time() const { return total_busy_; }
    std::uint64_t messages_handled() const { return messages_handled_; }

    Time cpu_busy_time() const override { return total_busy_; }
    Time cpu_queue_wait() const override { return total_queue_wait_; }

    /// Received-message count by wire-kind byte (the first payload byte).
    /// One array increment per message; the raw material for Table 1's
    /// per-message-type bottleneck counts.
    std::uint64_t rx_count(std::uint8_t kind) const { return rx_by_kind_[kind]; }

    /// Maps a wire-kind byte to a stable name for metrics keys; returns
    /// nullptr for kinds the protocol does not name (dumped as "0x%02x").
    using KindNameFn = const char* (*)(std::uint8_t);

    /// Publishes nonzero per-kind rx counters under `prefix + ".rx."` at
    /// every registry dump.
    void register_rx_metrics(obs::Registry& reg, const std::string& prefix,
                             KindNameFn name_fn = nullptr);

    void set_processing_config(const ProcessingConfig& cfg) { cfg_ = cfg; }

    // Sends and timers are public for code that runs on this node without
    // being the node, such as the aom receiver library inside a replica.

    /// Outbound unicast: inside a task it departs when processing completes,
    /// outside one (initialisation code) at once. Takes a Packet:
    /// `send_to(to, msg.serialize())` wraps the bytes once; passing the same
    /// Packet to several calls shares the buffer.
    void send_to(NodeId to, Packet data);

    /// One-shot timer. The callback runs through the same cost machinery as
    /// message handlers. Returns a nonzero id for cancel_timer() and
    /// timer_armed(). `label` names the timer in traces and must have
    /// static storage duration.
    TimerId set_timer(Time delay, std::function<void()> fn, const char* label = "timer");
    void cancel_timer(TimerId id);
    /// True from set_timer() until the callback starts, unless the timer
    /// was cancelled, invalidated, or dropped because the node was down at
    /// its deadline. False for id 0, which callers use for "no timer".
    bool timer_armed(TimerId id) const {
        return id >= min_valid_timer_ && live_timers_.contains(id);
    }

  protected:
    /// Protocol logic. Runs when the CPU picks the message up; use send_to /
    /// broadcast for outputs — they depart when processing completes.
    virtual void handle(NodeId from, BytesView data) = 0;

    /// Multicasts one shared buffer to every destination (counts one send
    /// each, but the payload is allocated exactly once).
    void broadcast(const std::vector<NodeId>& dests, const Packet& data);

    /// Drops every timer armed so far (ids below the current watermark) —
    /// their callbacks are suppressed at fire time. Used by the crash-
    /// recover lifecycle: a timer armed before a crash must not run against
    /// post-recovery state, even if the node is back up when it fires.
    void invalidate_timers() { min_valid_timer_ = next_timer_; }

    /// Attach the node's crypto cost meter so handler crypto charges CPU
    /// time automatically.
    void set_meter(crypto::CostMeter* meter) { meter_ = meter; }
    crypto::CostMeter* meter() { return meter_; }

    /// Extra synchronous CPU charge from protocol logic (e.g. state machine
    /// execution cost).
    void charge(Time ns) { extra_sync_ += ns; }

  private:
    struct PendingSend {
        NodeId to;
        Packet data;
    };

    void run_task(Time fixed_cost, FunctionRef work, const char* label);

    ProcessingConfig cfg_;
    crypto::CostMeter* meter_ = nullptr;

    // Arrival queue: messages and timer tasks wait here while the CPU is
    // busy. A valid `task` marks a timer item; messages hold a refcount on
    // the arriving packet's shared buffer.
    struct QueuedItem {
        NodeId from;
        Packet packet;
        EventFn task;
        TimerId timer_id;
        Time enqueued_at;
        const char* label;  // timer label; "" for messages
    };
    std::deque<QueuedItem> queue_;
    bool drain_scheduled_ = false;
    Time busy_until_ = 0;
    Time total_busy_ = 0;
    Time total_queue_wait_ = 0;
    std::uint64_t messages_handled_ = 0;
    std::array<std::uint64_t, 256> rx_by_kind_{};

    std::vector<PendingSend> out_;
    Time extra_sync_ = 0;
    bool in_task_ = false;

    TimerId next_timer_ = 1;
    TimerId min_valid_timer_ = 0;
    /// Armed timers whose callback has not started and that were not
    /// cancelled or dropped at fire time.
    std::unordered_set<TimerId> live_timers_;

    void maybe_schedule_drain();
    void drain_one();
};

}  // namespace neo::sim
