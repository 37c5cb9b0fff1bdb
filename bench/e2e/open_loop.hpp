// Open-loop load generator for the end-to-end benchmark.
//
// Each of S sessions owns one client of the deployment and draws Poisson due
// times at rate/S from StreamRng(seed, session). Request k starts at
// max(due_k, done_{k-1}) — a session has one request outstanding, like a
// user who queues work while waiting — and its latency is measured from
// due_k, so a stall charges every request that fell due during it.
//
// A request due in the measured window counts as failed when its reply says
// so (aborted transaction), when it was never issued, or when it is still
// unfinished after the drain. Failed requests miss every latency limit.
//
// PDES safety: only a session's first wake-up is a global event. After that
// the session reschedules itself from its own completion callback, which
// runs on the client's partition, so every per-session slot is touched by
// one partition only and is merged session-major after the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "harness/harness.hpp"
#include "sim/time.hpp"

namespace neo::e2e {

using bench::Deployment;

/// Poisson due times of one session: a pure function of (seed, session).
class ArrivalSchedule {
  public:
    ArrivalSchedule(std::uint64_t seed, int session, double rate_per_sec, sim::Time start);
    /// Due time of the next request.
    sim::Time next();

  private:
    StreamRng rng_;
    double mean_gap_ns_;
    double t_;
};

/// How a reply is judged. kInvalid is a correctness failure of the system
/// (wrong echo, unparsable result), not a request failure.
enum class Verdict : std::uint8_t { kOk, kFailed, kInvalid };

enum class Outcome : std::uint8_t { kOk, kFailed, kUnfinished, kNotIssued };
const char* outcome_name(Outcome o);

/// Makes session `s`'s next operation; called only from that session's
/// context (its first wake-up or its completion callback).
using OpSource = std::function<Bytes(int session)>;
using ReplyCheck = std::function<Verdict(BytesView op, BytesView reply)>;

struct LoadSpec {
    std::uint64_t seed = 42;
    double rate = 0;  // offered requests per second of virtual time
    sim::Time warmup = 20 * sim::kMillisecond;
    sim::Time window = 100 * sim::kMillisecond;
    sim::Time drain = 20 * sim::kMillisecond;
    /// Traced pass: keep one RequestRecord per request and read the host
    /// clock around op generation, invoke and callbacks. Host timings never
    /// feed simulated results.
    bool trace = false;
};

/// One request, virtual times in ns (-1 = did not happen), plus the host
/// time its session spent generating, invoking and completing it.
struct RequestRecord {
    std::uint32_t session = 0;
    std::uint32_t k = 0;
    sim::Time due = 0;
    sim::Time start = -1;
    sim::Time done = -1;
    Outcome outcome = Outcome::kNotIssued;
    std::uint32_t gen_ns = 0;
    std::uint32_t invoke_ns = 0;
    std::uint32_t cb_ns = 0;
};

class HostTrace;

/// Hooks into the run at its phase boundaries (global context, workers
/// parked): `at_window` fires when the measured window opens, `at_end`
/// after the drain. Both may read any node's counters. With `trace`, the
/// two run_until calls are recorded as host spans.
struct RunHooks {
    std::function<void()> at_window;
    std::function<void()> at_end;
    HostTrace* trace = nullptr;
};

struct LoadResult {
    // Requests due inside the measured window, by outcome.
    std::uint64_t due = 0;
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;    // the reply said the request failed
    std::uint64_t missing = 0;   // never issued, or unfinished after the drain
    std::uint64_t invalid = 0;   // replies that failed the correctness check
    Histogram latency_us;        // ok requests, due -> done
    Histogram late_us;           // issued requests, due -> start
    /// Longest stretch of the window without a successful completion
    /// (window edges count as completions).
    sim::Time longest_gap = 0;
    /// Host seconds spent in run_until over the window plus the drain.
    double wall_s = 0;
    /// Events executed over the window plus the drain.
    std::uint64_t events = 0;
    /// Requests generated and callbacks run over the window plus the drain,
    /// and the host time spent in them (trace only).
    std::uint64_t generated = 0;
    std::uint64_t callbacks = 0;
    std::uint64_t gen_ns = 0;
    std::uint64_t invoke_ns = 0;
    std::uint64_t cb_ns = 0;
    std::vector<RequestRecord> records;  // trace only, session-major

    /// Share of due requests that succeeded, in percent.
    double ok_pct() const;
    /// Share of due requests that succeeded within `limit`, in percent.
    double within_pct(sim::Time limit) const;
};

/// Drives `d` open-loop through warm-up, window and drain. Sessions are the
/// deployment's clients. The deployment must be fresh, and must not run
/// again afterwards: unfinished requests still hold callbacks into the
/// generator's stack frame.
LoadResult run_open_loop(Deployment& d, const LoadSpec& spec, const OpSource& ops,
                         const ReplyCheck& check, const RunHooks& hooks = {});

/// Log-space bisection for the highest rate in [lo, hi] at which `holds`
/// is true, down to a step of `step` (ratio hi/lo). Assumes `holds` is
/// monotone; returns lo when nothing larger holds. `probes` (optional)
/// counts the calls made.
double bisect_rate(double lo, double hi, double step, const std::function<bool(double)>& holds,
                   int* probes = nullptr);

/// Host wall clock in nanoseconds (steady).
inline std::uint64_t host_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

}  // namespace neo::e2e
