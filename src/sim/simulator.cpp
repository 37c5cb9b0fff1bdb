#include "sim/simulator.hpp"

#include <algorithm>
#include <chrono>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "obs/trace.hpp"

namespace neo::sim {

using detail::Ev;
using detail::EventKey;
using detail::ExecContext;
using detail::g_ctx;
using detail::kTimeInf;

namespace detail {

void EventHeap::push(const EventKey& key, NodeId owner, EventFn&& fn) {
    if (free_.empty()) {
        free_.push_back(static_cast<std::uint32_t>(slots_.size()));
        slots_.emplace_back();
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    slots_[slot] = std::move(fn);

    heap_.emplace_back();
    heap_[hole_up(heap_.size() - 1, key)] = Entry{key, slot, owner};
}

std::size_t EventHeap::hole_up(std::size_t hole, const EventKey& key) {
    while (hole > 0) {
        const std::size_t parent = (hole - 1) / 2;
        if (!key.before(heap_[parent].key)) break;
        heap_[hole] = heap_[parent];
        hole = parent;
    }
    return hole;
}

Ev EventHeap::pop() {
    const Entry top = heap_.front();
    Ev ev{top.key, top.owner, std::move(slots_[top.slot])};
    free_.push_back(top.slot);

    const Entry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n > 0) {
        // Floyd's pop: walk the root hole down the smaller children to a
        // leaf, then move it back up to where the last entry belongs. The
        // last entry usually belongs near the bottom, so this costs about
        // one key comparison per level where a plain sift-down costs two.
        std::size_t hole = 0;
        for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
            if (child + 1 < n && heap_[child + 1].key.before(heap_[child].key)) ++child;
            heap_[hole] = heap_[child];
            hole = child;
        }
        heap_[hole_up(hole, last.key)] = last;
    }
    return ev;
}

// One logical process: a slice of the nodes, their event heap and virtual
// clock, per-lane sequence counters, outgoing mailboxes (double-buffered by
// window parity), and — when tracing — a private trace buffer plus the event
// keys marking where each event's records end (for the window-boundary
// merge).
struct Partition {
    Partition(unsigned idx, unsigned nparts) : index(idx) {
        for (auto& par : outbox) par.resize(nparts);
        for (auto& par : outbox_min) par.assign(nparts, kTimeInf);
    }

    unsigned index;
    EventHeap heap;
    Time now = 0;
    std::uint64_t executed = 0;
    // Per-lane monotonic counters, indexed by lane (the executing node's
    // id). The vector grows only here, at event start, before ExecContext
    // takes the pointer, so the pointer stays valid while the event runs.
    std::vector<std::uint64_t> lane_seq;
    std::uint64_t* lane_counter(NodeId lane) {
        if (lane >= lane_seq.size()) lane_seq.resize(static_cast<std::size_t>(lane) + 1, 0);
        return &lane_seq[lane];
    }
    // outbox[parity][dst]: events this partition scheduled for partition
    // dst during a window writing `parity`; dst merges them at the start of
    // the next window (the barrier is the happens-before edge).
    std::vector<std::vector<Ev>> outbox[2];
    std::vector<Time> outbox_min[2];
    // at_global() calls made inside a window; collected by the coordinator
    // at the window boundary.
    std::vector<Ev> pending_globals;
    std::unique_ptr<obs::TraceSink> tbuf;
    std::vector<std::pair<EventKey, std::uint32_t>> tmarks;
};

}  // namespace detail

Simulator::Simulator(unsigned threads) : nparts_(threads == 0 ? 1 : threads) {
    parts_.reserve(nparts_);
    for (unsigned i = 0; i < nparts_; ++i) {
        parts_.push_back(std::make_unique<detail::Partition>(i, nparts_));
    }
}

Simulator::~Simulator() {
    if (!workers_.empty()) {
        {
            std::lock_guard<std::mutex> lk(mu_);
            shutdown_ = true;
        }
        cv_work_.notify_all();
        for (auto& w : workers_) w.join();
    }
}

ExecContext* Simulator::own_ctx() const {
    ExecContext* c = g_ctx;
    return (c != nullptr && c->sim == this) ? c : nullptr;
}

EventKey Simulator::make_key(Time t, ExecContext* c) {
    if (c != nullptr) {
        NEO_ASSERT_MSG(t >= c->now, "cannot schedule an event in the past");
        return EventKey{t, c->lane, (*c->seq)++};
    }
    NEO_ASSERT_MSG(t >= now_, "cannot schedule an event in the past");
    return EventKey{t, kGlobalLane, global_seq_++};
}

void Simulator::at(Time t, Callback&& fn) {
    ExecContext* c = own_ctx();
    if (c != nullptr && c->part != nullptr) {
        schedule_node(t, static_cast<NodeId>(c->lane), std::move(fn), c);
    } else {
        schedule_global(t, std::move(fn), c);
    }
}

void Simulator::at_node(Time t, NodeId owner, Callback&& fn) {
    NEO_ASSERT_MSG(owner != kInvalidNode, "at_node() requires a real node id");
    schedule_node(t, owner, std::move(fn), own_ctx());
}

void Simulator::at_global(Time t, Callback&& fn) { schedule_global(t, std::move(fn), own_ctx()); }

void Simulator::schedule_node(Time t, NodeId owner, EventFn&& fn, ExecContext* c) {
    EventKey key = make_key(t, c);
    detail::Partition& dst = *parts_[partition_of(owner)];
    if (c != nullptr && c->part != nullptr && c->part != &dst) {
        // Cross-partition: the conservative contract — an event executing at
        // virtual time `now` may only create work for other partitions at
        // now + lookahead or later. (Trivially satisfied in serial mode,
        // where lookahead may be 0.)
        NEO_ASSERT_MSG(t >= c->now + lookahead_,
                       "cross-partition event violates the lookahead contract");
        if (c->windowed) {
            c->part->outbox[c->parity][dst.index].push_back(Ev{key, owner, std::move(fn)});
            Time& m = c->part->outbox_min[c->parity][dst.index];
            if (t < m) m = t;
            return;
        }
    }
    dst.heap.push(key, owner, std::move(fn));
}

void Simulator::schedule_global(Time t, EventFn&& fn, ExecContext* c) {
    if (c != nullptr && c->part != nullptr) {
        // Scheduled from inside a node's event: the global must not land
        // inside the window that is scheduling it.
        NEO_ASSERT_MSG(t >= c->now + lookahead_,
                       "node-scheduled global events must be >= lookahead in the future");
        EventKey key = make_key(t, c);
        if (c->windowed) {
            c->part->pending_globals.push_back(Ev{key, kInvalidNode, std::move(fn)});
        } else {
            global_.push(key, kInvalidNode, std::move(fn));
        }
        return;
    }
    global_.push(make_key(t, c), kInvalidNode, std::move(fn));
}

// ---------------------------------------------------------------------------
// Serial engine (threads == 1, or lookahead == 0 fallback): one merged drain
// across the partition heaps and the global queue, in exactly the order the
// parallel engine realises — full key order among node events, full key
// order among globals, and a global at time Tg after every node event with
// t <= Tg.

void Simulator::exec_on_partition(detail::Partition& p, Ev ev) {
    NEO_ASSERT(ev.key.t >= p.now);
    p.now = ev.key.t;
    now_ = ev.key.t;
    ExecContext ctx;
    ctx.sim = this;
    ctx.part = &p;
    ctx.trace = trace_;
    ctx.now = ev.key.t;
    ctx.lane = ev.owner;
    ctx.seq = p.lane_counter(ev.owner);
    ctx.shard = p.index;
    ctx.windowed = false;
    ExecContext* prev = g_ctx;
    g_ctx = &ctx;
    ++p.executed;
    ev.fn();
    g_ctx = prev;
}

void Simulator::exec_global(Ev ev) {
    NEO_ASSERT(ev.key.t >= now_);
    now_ = ev.key.t;
    ExecContext ctx;
    ctx.sim = this;
    ctx.part = nullptr;
    ctx.trace = trace_;
    ctx.now = ev.key.t;
    ctx.lane = kGlobalLane;
    ctx.seq = &global_seq_;
    ctx.shard = nparts_;
    ctx.windowed = false;
    ExecContext* prev = g_ctx;
    g_ctx = &ctx;
    ++executed_global_;
    ev.fn();
    g_ctx = prev;
}

bool Simulator::serial_step(Time limit) {
    detail::Partition* best = nullptr;
    for (auto& p : parts_) {
        if (p->heap.empty()) continue;
        if (best == nullptr || p->heap.top_key().before(best->heap.top_key())) best = p.get();
    }
    const bool have_global = !global_.empty();
    if (best != nullptr && (!have_global || best->heap.top_key().t <= global_.top_key().t)) {
        if (best->heap.top_key().t > limit) return false;
        exec_on_partition(*best, best->heap.pop());
        return true;
    }
    if (have_global) {
        if (global_.top_key().t > limit) return false;
        exec_global(global_.pop());
        return true;
    }
    return false;
}

bool Simulator::step() {
    // Mode switches mid-run (e.g. a test lowering link latency to zero) can
    // leave events parked in mailboxes or pending-global buffers; fold them
    // into the heaps before the merged drain.
    merge_all_mailboxes();
    collect_pending_globals();
    return serial_step(kTimeInf);
}

void Simulator::merge_all_mailboxes() {
    for (auto& src : parts_) {
        for (unsigned par = 0; par < 2; ++par) {
            for (unsigned d = 0; d < nparts_; ++d) {
                auto& box = src->outbox[par][d];
                for (auto& ev : box) parts_[d]->heap.push(ev.key, ev.owner, std::move(ev.fn));
                box.clear();
                src->outbox_min[par][d] = kTimeInf;
            }
        }
    }
}

void Simulator::collect_pending_globals() {
    for (auto& p : parts_) {
        for (auto& ev : p->pending_globals) global_.push(ev.key, ev.owner, std::move(ev.fn));
        p->pending_globals.clear();
    }
}

// ---------------------------------------------------------------------------
// Parallel engine: conservative YAWNS windows.

void Simulator::ensure_workers() {
    if (!workers_.empty()) return;
    workers_.reserve(nparts_);
    for (unsigned i = 0; i < nparts_; ++i) {
        workers_.emplace_back([this, i] { worker_main(i); });
    }
}

namespace detail {

// Window placement. A worker window pays a dispatch/park barrier of ~20 us
// at 4 partitions on a 4-vCPU host (BM_WindowBarrier/4 with every window on
// the workers), while the 5 us windows of the sharded YCSB workload hold
// ~6 events: such windows run faster inline on the coordinator, and dense
// ones (fig8_10x's 256-replica points) faster on the workers. run_window
// times every window, and the mode is chosen per epoch from host ns per
// executed event. (A per-window rule, "inline below 64 events",
// flip-flopped and ran fig8_10x's Neo-HM n=64 2x slower.) The constants
// were set on that host:
// - The first windows after a mode switch cost up to several times a
//   settled one (the threads wake, partition state moves between caches),
//   so they are not measured, and an epoch is long enough to amortise them.
// - Host interference only ever adds time, so a mode's estimate is the
//   lower of its last two epochs: one disturbed epoch cannot flip the
//   choice.
// - Every kProbeEvery-th epoch runs the mode not in favour, so the choice
//   follows load changes and every long multi-partition run keeps running
//   worker windows. On the sharded YCSB workload, where a worker window
//   costs ~3.5x an inline one, these probes cost ~20% over running every
//   window inline.
// With 32-window epochs, one probe in eight and single-epoch estimates,
// fig8_10x --quick's Neo-PK n=256 point sometimes stuck to inline windows
// (median host speedup 1.13, against 1.50 with every window on the
// workers and 1.41 with these settings).
constexpr unsigned kEpochWindows = 64;
constexpr unsigned kWarmupWindows = 2;
constexpr std::uint64_t kProbeEvery = 16;

void WindowModeChooser::record(std::int64_t host_ns, std::uint64_t events) {
    ++windows_[inline_];
    if (epoch_windows_++ >= kWarmupWindows) {
        epoch_ns_ += host_ns;
        epoch_events_ += events;
    }
    if (epoch_windows_ < kEpochWindows) return;
    // Every window executes at least the event that opened it.
    const double measured = static_cast<double>(epoch_ns_) / static_cast<double>(epoch_events_);
    estimate_[inline_] = std::min(measured, last_[inline_]);
    last_[inline_] = measured;
    epoch_windows_ = 0;
    epoch_ns_ = 0;
    epoch_events_ = 0;
    ++epochs_;
    if (estimate_[1] == kUnmeasured) {
        inline_ = true;  // the second epoch measures the inline mode
        return;
    }
    const bool favoured = estimate_[1] < estimate_[0];
    inline_ = epochs_ % kProbeEvery == 0 ? !favoured : favoured;
}

}  // namespace detail

void Simulator::run_window(Time wend, unsigned parity) {
    const std::uint64_t before = executed_events();
    const auto start = std::chrono::steady_clock::now();
    if (chooser_.run_inline()) {
        for (auto& p : parts_) window_work(*p, wend, parity);
    } else {
        run_on_workers(wend, parity);
    }
    const auto host = std::chrono::steady_clock::now() - start;
    chooser_.record(std::chrono::duration_cast<std::chrono::nanoseconds>(host).count(),
                    executed_events() - before);
}

void Simulator::run_on_workers(Time wend, unsigned parity) {
    {
        std::lock_guard<std::mutex> lk(mu_);
        window_end_ = wend;
        window_parity_ = parity;
        unfinished_.store(nparts_, std::memory_order_relaxed);
        epoch_.fetch_add(1, std::memory_order_release);
    }
    cv_work_.notify_all();
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [&] { return unfinished_.load(std::memory_order_acquire) == 0; });
}

void Simulator::worker_main(unsigned index) {
    detail::Partition& p = *parts_[index];
    // Log lines from this worker carry this partition's virtual clock.
    set_log_time_source([&p] { return p.now; });
    // The epoch starts at 0 and the coordinator bumps it once per window,
    // waiting for every worker in between — so "last processed" starts at 0
    // unconditionally. Loading epoch_ here instead would race with a first
    // window dispatched before this thread got scheduled.
    std::uint64_t seen = 0;
    for (;;) {
        Time wend;
        unsigned parity;
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_work_.wait(lk, [&] {
                return shutdown_ || epoch_.load(std::memory_order_relaxed) != seen;
            });
            if (shutdown_) break;
            seen = epoch_.load(std::memory_order_relaxed);
            wend = window_end_;
            parity = window_parity_;
        }
        window_work(p, wend, parity);
        if (unfinished_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            std::lock_guard<std::mutex> lk(mu_);
            cv_done_.notify_one();
        }
    }
    clear_log_time_source();
}

void Simulator::window_work(detail::Partition& p, Time wend, unsigned parity) {
    // Merge inbound mailboxes from the previous window (the other parity).
    // Only this partition reads column p.index, and producers are writing
    // the current parity — disjoint halves, no synchronisation needed.
    for (auto& src : parts_) {
        auto& box = src->outbox[parity ^ 1][p.index];
        if (!box.empty()) {
            for (auto& ev : box) p.heap.push(ev.key, ev.owner, std::move(ev.fn));
            box.clear();
        }
        src->outbox_min[parity ^ 1][p.index] = kTimeInf;
    }

    ExecContext ctx;
    ctx.sim = this;
    ctx.part = &p;
    ctx.trace = (trace_ != nullptr && p.tbuf) ? p.tbuf.get() : nullptr;
    ctx.shard = p.index;
    ctx.parity = parity;
    ctx.windowed = true;
    ExecContext* prev = g_ctx;
    g_ctx = &ctx;
    std::size_t tprev = ctx.trace != nullptr ? p.tbuf->size() : 0;
    while (!p.heap.empty() && p.heap.top_key().t < wend) {
        Ev ev = p.heap.pop();
        NEO_ASSERT(ev.key.t >= p.now);
        p.now = ev.key.t;
        ctx.now = ev.key.t;
        ctx.lane = ev.owner;
        ctx.seq = p.lane_counter(ev.owner);
        ++p.executed;
        ev.fn();
        if (ctx.trace != nullptr && p.tbuf->size() != tprev) {
            p.tmarks.emplace_back(ev.key, static_cast<std::uint32_t>(p.tbuf->size()));
            tprev = p.tbuf->size();
        }
    }
    g_ctx = prev;
}

void Simulator::merge_window_traces() {
    if (trace_ == nullptr) return;
    // K-way merge of the per-partition record chunks into the master sink in
    // event-key order — the exact order the serial engine records in.
    struct Cursor {
        detail::Partition* p;
        std::size_t mark = 0;
        std::uint32_t ev = 0;
    };
    std::vector<Cursor> cur;
    for (auto& p : parts_) {
        if (!p->tmarks.empty()) cur.push_back(Cursor{p.get()});
    }
    while (!cur.empty()) {
        std::size_t best = 0;
        for (std::size_t i = 1; i < cur.size(); ++i) {
            if (cur[i].p->tmarks[cur[i].mark].first.before(cur[best].p->tmarks[cur[best].mark].first)) {
                best = i;
            }
        }
        Cursor& c = cur[best];
        const std::uint32_t end = c.p->tmarks[c.mark].second;
        const auto& evs = c.p->tbuf->events();
        for (std::uint32_t i = c.ev; i < end; ++i) trace_->append(evs[i]);
        c.ev = end;
        if (++c.mark == c.p->tmarks.size()) {
            c.p->tbuf->clear();
            c.p->tmarks.clear();
            cur.erase(cur.begin() + static_cast<std::ptrdiff_t>(best));
        }
    }
}

void Simulator::parallel_drain(Time limit) {
    ensure_workers();
    if (trace_ != nullptr) {
        for (auto& p : parts_) {
            if (!p->tbuf) p->tbuf = std::make_unique<obs::TraceSink>();
            // Partition-local buffers must filter exactly like the master
            // sink, or a masked master would still pay (and later merge)
            // suppressed kinds recorded inside windows.
            p->tbuf->set_kind_mask(trace_->kind_mask());
        }
    }
    unsigned carry = carry_parity_;
    while (!stop_flag_.load(std::memory_order_relaxed)) {
        // Earliest pending node event: heap tops plus events still parked in
        // carry-parity mailboxes (the other parity is empty between windows).
        Time tmin = kTimeInf;
        for (auto& p : parts_) {
            if (!p->heap.empty()) tmin = std::min(tmin, p->heap.top_key().t);
            for (Time m : p->outbox_min[carry]) tmin = std::min(tmin, m);
        }
        const Time tg = global_.empty() ? kTimeInf : global_.top_key().t;
        const Time tnext = std::min(tmin, tg);
        if (tnext >= kTimeInf || tnext > limit) break;

        if (tmin <= tg) {
            // Safe horizon: nothing a node event at >= tmin creates can land
            // before tmin + lookahead; the earliest global and the caller's
            // limit cap it. After this window no node event with t <= tg
            // remains, so the serial tie rule (node events before a
            // same-time global) is preserved.
            const Time wend = std::min({tmin + lookahead_, tg + 1, limit + 1});
            run_window(wend, carry ^ 1);
            carry ^= 1;
            collect_pending_globals();
            merge_window_traces();
        } else {
            // One global at a time: it may schedule node events that key-sort
            // before the next pending global, so re-derive tmin in between.
            exec_global(global_.pop());
        }
    }
    carry_parity_ = carry;
    for (auto& p : parts_) now_ = std::max(now_, p->now);
}

// ---------------------------------------------------------------------------

void Simulator::run_limit(Time limit) {
    stop_flag_.store(false, std::memory_order_relaxed);
    if (nparts_ > 1 && lookahead_ > 0) {
        parallel_drain(limit);
        return;
    }
    merge_all_mailboxes();
    collect_pending_globals();
    while (!stop_flag_.load(std::memory_order_relaxed) && serial_step(limit)) {
    }
}

void Simulator::run() { run_limit(kTimeInf); }

void Simulator::run_until(Time t) {
    run_limit(t);
    if (now_ < t) now_ = t;
}

std::size_t Simulator::pending_events() const {
    std::size_t n = global_.size();
    for (const auto& p : parts_) {
        n += p->heap.size();
        for (const auto& par : p->outbox) {
            for (const auto& box : par) n += box.size();
        }
        n += p->pending_globals.size();
    }
    return n;
}

std::uint64_t Simulator::executed_events() const {
    std::uint64_t n = executed_global_;
    for (const auto& p : parts_) n += p->executed;
    return n;
}

}  // namespace neo::sim
