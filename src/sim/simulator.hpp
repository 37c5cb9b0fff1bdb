// Deterministic discrete-event simulator with an optional conservative
// parallel engine (PDES).
//
// Serial mode (threads == 1, the default) behaves exactly like the original
// single-threaded engine: one seed makes an entire run — including jitter,
// drops, and workload — bit-for-bit reproducible.
//
// Parallel mode (threads == N) partitions nodes across N worker threads
// (pluggable placement policy, see set_placement(); round-robin id % N by
// default), each with its own event heap and virtual
// clock, and advances the simulation in conservative YAWNS-style windows:
// with L = the minimum cross-node link latency ("lookahead", pushed down by
// sim::Network whenever link configs change) every event a partition
// executes at time t can only create work for OTHER partitions at t + L or
// later, so all partitions may safely run in parallel up to
//
//     W_end = min(Tmin + L,  Tg + 1,  limit + 1)
//
// where Tmin is the earliest pending node event and Tg the earliest pending
// global event. Cross-partition events travel through per-(src,dst) mailbox
// vectors that are double-buffered by window parity — the producer appends
// during its window, the consumer merges at the start of the next window,
// and the inter-window barrier provides the happens-before edge, so the hot
// path needs no atomics or locks. Packet buffers (sim/packet.hpp) are
// refcounted with atomic counts and cross threads without copying.
//
// Each window runs in one of two places. A worker window runs every
// partition on its own thread behind the dispatch/park barrier; an inline
// window runs the same per-partition window function for every partition,
// in index order, on the calling (coordinator) thread. Both see the same
// mailboxes, parities and trace marks, so the choice never reaches
// simulated results. The engine picks the cheaper mode per epoch of
// windows from the host time per event it measured in each (see
// WindowModeChooser), so windows holding a handful of events stop paying
// a barrier that costs more than their work.
//
// Determinism is structural, not incidental: every event carries a key
// (t, lane, seq) where `lane` is the id of the node that scheduled it
// (kGlobalLane for setup/main-thread scheduling) and `seq` a per-lane
// monotonic counter. The key is a pure function of simulation data — it
// never mentions partitions or threads — and execution order is exactly key
// order in both modes, so same-seed runs produce byte-identical traces and
// metrics under --sim-threads 1 and --sim-threads N. Global events (those
// scheduled from outside any node, e.g. measurement hooks, plus
// at_global()) execute between windows with all workers parked, ordered
// after every node event with time <= their own; the serial path applies
// the same rule, so cross-node shared state may be read during windows and
// mutated only at global events.
//
// When lookahead is zero (e.g. idealised zero-latency links) conservative
// windows cannot make progress, and the engine silently falls back to the
// serial merged drain regardless of the configured thread count — same
// results, no speedup.
//
// The per-partition event queue (detail::EventHeap) keeps closures out of
// the heap itself: callbacks are move-only EventFns with inline storage
// (packet-delivery closures never allocate, see sim/event.hpp) parked in a
// slab, and the heap orders 32-byte (key, slot, owner) entries. A closure
// is moved into its slot once and out of it once, however deep the queue.
// Pop order is governed solely by the strict total order on keys, so the
// heap layout cannot leak into simulated results.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "sim/event.hpp"
#include "sim/time.hpp"

namespace neo::obs {
class TraceSink;
}

namespace neo::sim {

class Simulator;

namespace detail {

/// Saturating "infinitely far in the future" sentinel (safe to add small
/// offsets to without overflow).
constexpr Time kTimeInf = INT64_MAX / 4;

/// Strict total order on events: (time, scheduling lane, per-lane counter).
/// A pure function of simulation data — independent of partition count and
/// thread scheduling — so key order is THE execution order in every mode.
struct EventKey {
    Time t = 0;
    std::uint64_t lane = 0;
    std::uint64_t seq = 0;

    bool before(const EventKey& o) const {
        if (t != o.t) return t < o.t;
        if (lane != o.lane) return lane < o.lane;
        return seq < o.seq;
    }
};

struct Ev {
    EventKey key;
    NodeId owner = kInvalidNode;  // node the event executes at; routing only
    EventFn fn;
};

/// Binary min-heap on EventKey::before. The heap orders 32-byte
/// (key, slot, owner) entries; each closure waits in a slab slot (reused
/// through a free list), so push() moves it in once and pop() moves it out
/// once. Sifts move a hole, one entry copy per level. Once the slab and
/// heap vectors have grown to the deepest queue seen, push and pop never
/// allocate.
class EventHeap {
  public:
    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }
    const EventKey& top_key() const { return heap_.front().key; }

    void push(const EventKey& key, NodeId owner, EventFn&& fn);
    Ev pop();

  private:
    // 32 bytes with no padding, so an entry copies as two 16-byte halves:
    // with 4 bytes of padding GCC copied it with overlapping moves that
    // defeat store forwarding, costing several ns per push and pop.
    struct Entry {
        EventKey key;
        std::uint32_t slot = 0;
        NodeId owner = kInvalidNode;
    };
    static_assert(sizeof(Entry) == 32);

    /// Moves the hole at `hole` up past every ancestor `key` sorts
    /// before; returns where it stops.
    std::size_t hole_up(std::size_t hole, const EventKey& key);

    std::vector<Entry> heap_;
    std::vector<EventFn> slots_;
    std::vector<std::uint32_t> free_;  // indices of empty slots_
};

struct Partition;

/// Per-thread execution frame: which simulator/partition is executing,
/// the event's virtual time, and the scheduling identity (lane + counter)
/// stamped onto anything the event schedules. Installed around every event
/// execution; null outside one (setup code on the main thread).
struct ExecContext {
    Simulator* sim = nullptr;
    Partition* part = nullptr;    // null => global context
    obs::TraceSink* trace = nullptr;
    Time now = 0;
    std::uint64_t lane = 0;
    std::uint64_t* seq = nullptr;
    unsigned shard = 0;
    unsigned parity = 0;    // outbox half this window writes (windowed only)
    bool windowed = false;  // true inside a parallel window
};

inline thread_local ExecContext* g_ctx = nullptr;

/// Decides where the parallel engine runs its windows: on the worker
/// threads (behind the barrier) or inline on the coordinator thread. The
/// mode is fixed for an epoch of windows and chosen from the host time per
/// executed event measured in each mode; a fixed schedule of probe epochs
/// re-measures the mode not in favour. Host-side only.
class WindowModeChooser {
  public:
    bool run_inline() const { return inline_; }

    /// Accounts one window that ran in the current mode, taking
    /// `host_ns` to execute `events` events; picks the next epoch's mode
    /// when this one is complete.
    void record(std::int64_t host_ns, std::uint64_t events);

    std::uint64_t windows(bool inline_mode) const { return windows_[inline_mode]; }

  private:
    static constexpr double kUnmeasured = std::numeric_limits<double>::infinity();

    bool inline_ = false;  // the first epoch runs on the workers
    unsigned epoch_windows_ = 0;
    std::int64_t epoch_ns_ = 0;
    std::uint64_t epoch_events_ = 0;
    std::uint64_t epochs_ = 0;
    // Indexed [worker, inline]: host ns per event of each mode's last
    // epoch, and its estimate (the lower of its last two epochs).
    double last_[2] = {kUnmeasured, kUnmeasured};
    double estimate_[2] = {kUnmeasured, kUnmeasured};
    std::uint64_t windows_[2] = {0, 0};
};

}  // namespace detail

class Simulator {
  public:
    using Callback = EventFn;

    /// Lane id stamped on events scheduled from outside any node context.
    /// Largest lane value: at equal times, main-thread/global scheduling
    /// sorts after every node's.
    static constexpr std::uint64_t kGlobalLane = ~0ull;

    /// `threads` worker partitions; 1 (the default) is the serial engine.
    explicit Simulator(unsigned threads = 1);
    ~Simulator();

    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    unsigned partitions() const { return nparts_; }

    /// Node -> partition placement. Placement is a host-side locality knob
    /// only: the EventKey total order never mentions partitions, so any
    /// placement yields byte-identical simulated results (asserted by
    /// tests/integration/test_placement) — a good one merely keeps chatty
    /// nodes on one worker and off the cross-partition mailboxes.
    /// Nodes bound by Network::add_node get the pluggable policy (below);
    /// ids never bound fall back to the historical round-robin.
    unsigned partition_of(NodeId owner) const {
        if (owner < placement_.size() && placement_[owner] != kUnplaced) {
            return placement_[owner];
        }
        return static_cast<unsigned>(owner % nparts_);
    }

    /// Pluggable placement policy, e.g. group-affine for sharded
    /// deployments (all replicas of one shard co-located). Must be
    /// installed from setup code BEFORE the nodes it should govern are
    /// attached; already-bound nodes keep their partition. The returned
    /// index is taken modulo partitions().
    using PlacementFn = std::function<unsigned(NodeId, unsigned nparts)>;
    void set_placement(PlacementFn policy) { placement_policy_ = std::move(policy); }

    /// Memoizes `id`'s partition under the current policy. Called by
    /// Network::add_node; setup code (single-threaded) only — the table
    /// must be immutable by the time workers run.
    void bind_node(NodeId id) {
        unsigned p = placement_policy_
                         ? placement_policy_(id, nparts_) % nparts_
                         : static_cast<unsigned>(id % nparts_);
        if (placement_.size() <= id) placement_.resize(id + 1, kUnplaced);
        placement_[id] = p;
    }

    /// Shard index for per-partition instrumentation (e.g. Network's
    /// counter shards): the executing partition's index, or partitions()
    /// from global context. Which shard an increment lands in is a pure
    /// function of the executing event, so per-shard sums are identical
    /// across thread counts.
    unsigned current_shard() const {
        const detail::ExecContext* c = detail::g_ctx;
        return (c != nullptr && c->sim == this && c->part != nullptr) ? c->shard : nparts_;
    }

    /// Virtual time of the current execution context: the executing event's
    /// timestamp on this thread, or the simulator-wide clock outside one.
    Time now() const {
        const detail::ExecContext* c = detail::g_ctx;
        return (c != nullptr && c->sim == this) ? c->now : now_;
    }

    /// Structured trace sink shared by everything running inside this
    /// simulation. Null (the default) disables tracing; call sites guard on
    /// the pointer so a disabled sink costs one branch on the hot path.
    /// Inside a parallel window this returns the executing partition's
    /// private buffer; buffers are merged into the master sink in event-key
    /// order at each window boundary (deterministic, no hot-path lock).
    void set_trace(obs::TraceSink* sink) { trace_ = sink; }
    obs::TraceSink* trace() const {
        const detail::ExecContext* c = detail::g_ctx;
        return (c != nullptr && c->sim == this) ? c->trace : trace_;
    }

    /// Conservative lookahead: a lower bound on the delay of any
    /// cross-node interaction. sim::Network maintains this as its minimum
    /// configured link latency. 0 disables parallel windows (serial
    /// fallback). Takes effect at the next window boundary.
    void set_lookahead(Time min_cross_node_delay) { lookahead_ = min_cross_node_delay; }
    Time lookahead() const { return lookahead_; }

    /// Schedules `fn` at absolute time `t` (must be >= now()). From inside
    /// a node's event the new event belongs to that node; from setup code
    /// or a global event it is a global event (runs with workers parked).
    void at(Time t, Callback&& fn);

    /// Schedules `fn` after `delay` nanoseconds.
    void after(Time delay, Callback&& fn) { at(now() + delay, std::move(fn)); }

    /// Schedules `fn` at time `t` to execute at `owner`'s partition — the
    /// form every cross-node interaction must take. When called from a
    /// different partition's event, `t` must be at least lookahead() in the
    /// future (the conservative contract; asserted).
    void at_node(Time t, NodeId owner, Callback&& fn);

    /// Schedules `fn` as a global event: it runs between windows with every
    /// worker parked, after all node events with timestamp <= t, and may
    /// therefore read and mutate cross-node shared state. From inside a
    /// node's event, `t` must be at least lookahead() in the future.
    void at_global(Time t, Callback&& fn);

    /// Runs the next event in key order. Returns false if the queue is
    /// empty. Serial (coordinator-thread) stepping only.
    bool step();

    /// Runs until the queue is empty or stop() is called.
    void run();

    /// Runs all events with timestamp <= t, then advances now() to t.
    void run_until(Time t);

    /// Makes run()/run_until() return. Immediate (after the current event)
    /// in serial mode; in parallel mode the engine stops at the next window
    /// boundary — the remaining window still executes.
    void stop() { stop_flag_.store(true, std::memory_order_relaxed); }

    std::size_t pending_events() const;
    std::uint64_t executed_events() const;

    /// Parallel windows run so far inline on the calling thread, and on
    /// the worker threads. Host-side counters: which path ran depends on
    /// measured host speed, never on simulation data.
    std::uint64_t inline_windows() const { return chooser_.windows(true); }
    std::uint64_t worker_windows() const { return chooser_.windows(false); }

  private:
    detail::ExecContext* own_ctx() const;
    detail::EventKey make_key(Time t, detail::ExecContext* c);
    void schedule_node(Time t, NodeId owner, EventFn&& fn, detail::ExecContext* c);
    void schedule_global(Time t, EventFn&& fn, detail::ExecContext* c);
    bool serial_step(Time limit);
    void exec_on_partition(detail::Partition& p, detail::Ev ev);
    void exec_global(detail::Ev ev);
    void run_limit(Time limit);
    void parallel_drain(Time limit);
    void merge_all_mailboxes();
    void collect_pending_globals();
    void merge_window_traces();
    void ensure_workers();
    void run_window(Time wend, unsigned parity);
    void run_on_workers(Time wend, unsigned parity);
    void worker_main(unsigned index);
    void window_work(detail::Partition& p, Time wend, unsigned parity);

    static constexpr unsigned kUnplaced = ~0u;

    unsigned nparts_;
    Time lookahead_ = 0;
    PlacementFn placement_policy_;
    std::vector<unsigned> placement_;  // NodeId-indexed; kUnplaced = policy fallback
    std::vector<std::unique_ptr<detail::Partition>> parts_;
    detail::EventHeap global_;
    obs::TraceSink* trace_ = nullptr;
    Time now_ = 0;
    std::uint64_t global_seq_ = 0;
    std::uint64_t executed_global_ = 0;
    std::atomic<bool> stop_flag_{false};

    // Worker pool (parallel mode only; spawned lazily on the first
    // parallel drain). Workers park between windows; the epoch/unfinished
    // pair is the window barrier.
    std::vector<std::thread> workers_;
    std::mutex mu_;
    std::condition_variable cv_work_;
    std::condition_variable cv_done_;
    std::atomic<std::uint64_t> epoch_{0};
    std::atomic<unsigned> unfinished_{0};
    bool shutdown_ = false;
    Time window_end_ = 0;
    unsigned window_parity_ = 0;  // outbox half the in-flight window writes
    unsigned carry_parity_ = 0;   // outbox half holding undelivered events
    detail::WindowModeChooser chooser_;
};

}  // namespace neo::sim
