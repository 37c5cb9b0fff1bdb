#include "open_loop.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "common/assert.hpp"
#include "host_trace.hpp"

namespace neo::e2e {

ArrivalSchedule::ArrivalSchedule(std::uint64_t seed, int session, double rate_per_sec,
                                 sim::Time start)
    : rng_(seed, static_cast<std::uint64_t>(session)),
      mean_gap_ns_(1e9 / rate_per_sec),
      t_(static_cast<double>(start)) {
    NEO_ASSERT(rate_per_sec > 0);
}

sim::Time ArrivalSchedule::next() {
    // Inverse-CDF exponential gap; 1 - u is in (0, 1], so log is finite.
    t_ += -std::log(1.0 - rng_.real()) * mean_gap_ns_;
    return static_cast<sim::Time>(t_);
}

const char* outcome_name(Outcome o) {
    switch (o) {
        case Outcome::kOk: return "ok";
        case Outcome::kFailed: return "failed";
        case Outcome::kUnfinished: return "unfinished";
        case Outcome::kNotIssued: return "not_issued";
    }
    return "?";
}

double LoadResult::ok_pct() const {
    return due == 0 ? 0 : 100.0 * static_cast<double>(ok) / static_cast<double>(due);
}

double LoadResult::within_pct(sim::Time limit) const {
    if (due == 0) return 0;
    const double lim_us = sim::to_us(limit);
    std::uint64_t n = 0;
    for (double v : latency_us.samples()) n += v <= lim_us ? 1 : 0;
    return 100.0 * static_cast<double>(n) / static_cast<double>(due);
}

namespace {

/// Everything one session owns. Touched only from the session's own
/// context (its first wake-up is a global event; every later step runs in
/// the client's completion callback or a wake-up it scheduled).
struct Session {
    explicit Session(ArrivalSchedule a) : arrivals(std::move(a)) {}

    ArrivalSchedule arrivals;
    std::uint32_t k = 0;       // index of the pending / outstanding request
    sim::Time due = 0;         // due time of request k
    sim::Time start = 0;
    bool outstanding = false;
    bool stopped = false;      // next due time fell past the window
    Bytes op;                  // request k's op, for the reply check
    std::uint32_t gen_ns = 0;
    std::uint32_t invoke_ns = 0;

    std::uint64_t due_in_window = 0, ok = 0, failed = 0, invalid = 0, missing = 0;
    Histogram latency_us, late_us;
    std::vector<sim::Time> ok_done;  // successful completions inside the window
    std::uint64_t generated = 0, callbacks = 0, gen_total = 0, invoke_total = 0, cb_total = 0;
    std::vector<RequestRecord> records;
};

struct LoadRun {
    Deployment& d;
    const LoadSpec& spec;
    const OpSource& ops;
    const ReplyCheck& check;
    sim::Time ws = 0, we = 0;  // measured window [ws, we)
    std::vector<Session> sessions;
    /// Set between the two run_until calls (workers parked), so sessions
    /// read it race-free: the host-time totals cover window plus drain.
    bool timed = false;

    bool in_window(sim::Time t) const { return t >= ws && t < we; }

    /// Draws session s's next due time; false once it falls past the window.
    bool draw(Session& s) {
        s.due = s.arrivals.next();
        if (s.due >= we) {
            s.stopped = true;
            return false;
        }
        if (in_window(s.due)) ++s.due_in_window;
        return true;
    }

    void issue(int c) {
        Session& s = sessions[static_cast<std::size_t>(c)];
        sim::Simulator& sim = d.simulator();
        s.start = sim.now();
        s.outstanding = true;
        if (in_window(s.due)) s.late_us.add(sim::to_us(s.start - s.due));

        std::uint64_t t0 = spec.trace ? host_ns() : 0;
        s.op = ops(c);
        std::uint64_t t1 = spec.trace ? host_ns() : 0;
        d.invoke(c, s.op, [this, c](Bytes reply) { complete(c, reply); });
        if (spec.trace) {
            std::uint64_t t2 = host_ns();
            s.gen_ns = static_cast<std::uint32_t>(t1 - t0);
            s.invoke_ns = static_cast<std::uint32_t>(t2 - t1);
            if (timed) {
                s.gen_total += t1 - t0;
                s.invoke_total += t2 - t1;
            }
        }
        if (timed) ++s.generated;
    }

    void complete(int c, const Bytes& reply) {
        std::uint64_t t0 = spec.trace ? host_ns() : 0;
        Session& s = sessions[static_cast<std::size_t>(c)];
        sim::Simulator& sim = d.simulator();
        const sim::Time now = sim.now();
        Verdict v = check(s.op, reply);
        Outcome outcome = v == Verdict::kOk ? Outcome::kOk : Outcome::kFailed;
        if (in_window(s.due)) {
            if (v == Verdict::kOk) {
                ++s.ok;
                s.latency_us.add(sim::to_us(now - s.due));
            } else if (v == Verdict::kFailed) {
                ++s.failed;
            } else {
                ++s.invalid;
            }
        }
        if (v == Verdict::kOk && in_window(now)) s.ok_done.push_back(now);
        const std::uint32_t cb_ns =
            spec.trace ? static_cast<std::uint32_t>(host_ns() - t0) : 0;
        if (spec.trace) {
            s.records.push_back({static_cast<std::uint32_t>(c), s.k, s.due, s.start, now,
                                 outcome, s.gen_ns, s.invoke_ns, cb_ns});
        }
        if (timed) {
            ++s.callbacks;
            s.cb_total += cb_ns;
        }
        s.outstanding = false;
        ++s.k;

        if (!draw(s)) return;
        if (s.due > now) {
            // Inside the client's completion event, so this wake-up belongs
            // to the client's node and stays on its partition.
            sim.at(s.due, [this, c] { issue(c); });
        } else {
            issue(c);
        }
    }

    /// After the drain: the outstanding request is unfinished, and every
    /// later due time inside the window was never issued.
    void close_session(int c) {
        Session& s = sessions[static_cast<std::size_t>(c)];
        auto lost = [&](Outcome o) {
            if (in_window(s.due)) ++s.missing;
            if (spec.trace) {
                s.records.push_back({static_cast<std::uint32_t>(c), s.k, s.due,
                                     o == Outcome::kUnfinished ? s.start : -1, -1, o, 0, 0, 0});
            }
            ++s.k;
        };
        if (s.stopped) return;
        if (s.outstanding) {
            lost(Outcome::kUnfinished);
        } else {
            lost(Outcome::kNotIssued);
        }
        while (draw(s)) lost(Outcome::kNotIssued);
    }
};

}  // namespace

LoadResult run_open_loop(Deployment& d, const LoadSpec& spec, const OpSource& ops,
                         const ReplyCheck& check, const RunHooks& hooks) {
    sim::Simulator& sim = d.simulator();
    const sim::Time t0 = sim.now();
    const int nsessions = d.n_clients();
    NEO_ASSERT(nsessions > 0 && spec.rate > 0);

    LoadRun drv{d, spec, ops, check, t0 + spec.warmup, t0 + spec.warmup + spec.window, {}};
    drv.sessions.reserve(static_cast<std::size_t>(nsessions));
    const double per_session = spec.rate / nsessions;
    for (int c = 0; c < nsessions; ++c) {
        drv.sessions.emplace_back(ArrivalSchedule(spec.seed, c, per_session, t0));
    }
    // First wake-ups: global events, scheduled from setup.
    for (int c = 0; c < nsessions; ++c) {
        Session& s = drv.sessions[static_cast<std::size_t>(c)];
        if (drv.draw(s)) sim.at(s.due, [&drv, c] { drv.issue(c); });
    }

    {
        std::optional<HostTrace::Scope> span;
        if (hooks.trace) span.emplace(*hooks.trace, "sim.run_until.warmup");
        sim.run_until(drv.ws);
    }
    if (hooks.at_window) hooks.at_window();
    drv.timed = true;
    const std::uint64_t ev0 = sim.executed_events();
    std::uint64_t h0 = 0, h1 = 0;
    {
        std::optional<HostTrace::Scope> span;
        if (hooks.trace) span.emplace(*hooks.trace, "sim.run_until.measure");
        h0 = host_ns();
        sim.run_until(drv.we + spec.drain);
        h1 = host_ns();
    }
    const std::uint64_t ev1 = sim.executed_events();
    drv.timed = false;
    if (hooks.at_end) hooks.at_end();

    LoadResult r;
    r.wall_s = static_cast<double>(h1 - h0) * 1e-9;
    r.events = ev1 - ev0;
    std::vector<sim::Time> done;
    for (int c = 0; c < nsessions; ++c) {
        drv.close_session(c);
        Session& s = drv.sessions[static_cast<std::size_t>(c)];
        r.due += s.due_in_window;
        r.ok += s.ok;
        r.failed += s.failed;
        r.invalid += s.invalid;
        r.missing += s.missing;
        r.latency_us.merge(s.latency_us);
        r.late_us.merge(s.late_us);
        done.insert(done.end(), s.ok_done.begin(), s.ok_done.end());
        r.generated += s.generated;
        r.callbacks += s.callbacks;
        r.gen_ns += s.gen_total;
        r.invoke_ns += s.invoke_total;
        r.cb_ns += s.cb_total;
        if (spec.trace) {
            r.records.insert(r.records.end(), s.records.begin(), s.records.end());
        }
    }
    std::sort(done.begin(), done.end());
    sim::Time prev = drv.ws;
    for (sim::Time t : done) {
        r.longest_gap = std::max(r.longest_gap, t - prev);
        prev = t;
    }
    r.longest_gap = std::max(r.longest_gap, drv.we - prev);
    return r;
}

double bisect_rate(double lo, double hi, double step, const std::function<bool(double)>& holds,
                   int* probes) {
    NEO_ASSERT(lo > 0 && hi > lo && step > 1);
    int n = 0;
    while (hi / lo > step) {
        const double mid = std::sqrt(lo * hi);
        ++n;
        if (holds(mid)) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    if (probes) *probes = n;
    return lo;
}

}  // namespace neo::e2e
