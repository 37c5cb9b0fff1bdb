// Parallel multi-seed benchmark runner.
//
// Every figure/table binary describes its sweep as a list of named points;
// the runner fans (point, seed) pairs across a work-stealing thread pool —
// each run owns a private Simulator/Network/Deployment, so per-seed
// determinism is untouched by scheduling — aggregates each metric across
// seeds (mean, stddev, min, max, raw values) and writes the whole suite as
// machine-readable JSON ("neo-bench-suite@1", see docs/BENCHMARKING.md).
//
// Uniform CLI (shared by all bench binaries, on top of PR 1's
// --trace/--metrics):
//   --json <path>   write the suite as JSON (env NEO_BENCH_JSON)
//   --seed <S>      base seed, default 42 (env NEO_BENCH_SEED)
//   --seeds <N>     run every point under N seeds S, S+1, ... (default 1)
//   --jobs <N>      worker threads, default 1; 0 = hardware concurrency
//   --sim-threads <N>  partitions per simulation (PDES), default 1; 0 = all
//                   cores (env NEO_BENCH_SIM_THREADS). Simulated results are
//                   byte-identical for every N; only host_ns changes.
//   --quick         reduced-size sweep for CI smoke runs (env NEO_BENCH_QUICK)
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness/harness.hpp"

namespace neo::bench {

/// `--flag <value>` / `--flag=<value>` from argv, else `env`, else "".
std::string flag_value(int argc, char* const* argv, const char* flag, const char* env);

struct BenchOptions {
    std::string json_path;        // empty = no JSON output
    std::uint64_t base_seed = 42;
    int seeds = 1;
    unsigned jobs = 1;
    /// Worker partitions inside each simulation (Simulator's thread count).
    unsigned sim_threads = 1;
    bool quick = false;
    /// --real-crypto (env NEO_BENCH_REAL_CRYPTO): run every protocol point
    /// with CryptoMode::kReal — actual secp256k1/SipHash on the host instead
    /// of the modeled HMAC oracle. Virtual costs (and therefore simulated
    /// metrics) are mode-independent; only host_ns and the signature bytes
    /// in traces change. Used by the nightly workflow and the host-side
    /// crypto wall-clock gate (docs/BENCHMARKING.md).
    bool real_crypto = false;

    /// Parses the uniform flags from argv (unrecognised flags are left for
    /// other consumers, e.g. --trace/--metrics). `--jobs 0` resolves to
    /// hardware concurrency here.
    static BenchOptions parse(int argc, char* const* argv);
};

/// Per-run context handed to a point's run function on a worker thread.
class RunCtx {
  public:
    std::uint64_t seed() const { return seed_; }
    bool quick() const { return quick_; }
    /// --sim-threads: forward into CommonParams::sim_threads (or a
    /// Simulator constructor) so the simulation itself runs partitioned.
    unsigned sim_threads() const { return sim_threads_; }
    /// --real-crypto: forward into CommonParams::crypto_mode so factories
    /// build real-crypto deployments.
    crypto::CryptoMode crypto_mode() const {
        return real_crypto_ ? crypto::CryptoMode::kReal : crypto::CryptoMode::kModeled;
    }
    /// Label for metrics namespacing: "<point>.s<seed>" — the seed is part
    /// of the label so multi-seed metric dumps never collide.
    const std::string& label() const { return label_; }

    /// Attaches this run's observability. Hold the returned handle in a
    /// scope *inside* the deployment/bench fixture's lifetime (declare the
    /// fixture first): its destructor snapshots the metrics, which reads
    /// the fixture's counters.
    ObsSession::Attachment attach(
        sim::Simulator& sim,
        const std::function<void(obs::Registry&, obs::TraceSink*)>& reg) const;
    /// Deployment convenience: forwards to Deployment::register_obs with
    /// label() as the metrics prefix.
    ObsSession::Attachment attach(Deployment& d) const;

  private:
    friend class BenchMain;
    RunCtx(ObsSession* obs, std::string label, std::uint64_t seed, bool want_trace, bool quick,
           unsigned sim_threads, bool real_crypto)
        : obs_(obs), label_(std::move(label)), seed_(seed), want_trace_(want_trace),
          quick_(quick), sim_threads_(sim_threads), real_crypto_(real_crypto) {}

    ObsSession* obs_;
    std::string label_;
    std::uint64_t seed_;
    bool want_trace_;
    bool quick_;
    unsigned sim_threads_ = 1;
    bool real_crypto_ = false;
};

/// One sweep point: a stable name ("aom_hm.r4"), its machine-readable sweep
/// coordinates, and a function that runs ONE simulation for one seed and
/// returns its metrics. The function must build all state (fixture,
/// deployment, RNGs) locally — it runs concurrently with other points.
struct BenchPointSpec {
    std::string name;
    std::map<std::string, double> params;
    std::function<std::map<std::string, double>(RunCtx&)> run;
    /// Whether this point may be offered the process-wide trace slot
    /// (the first candidate's first seed gets it).
    bool trace_candidate = true;
};

/// A metric's per-seed samples (in seed order) plus the derived stats.
struct MetricStats {
    std::vector<double> values;

    double mean() const;
    double stddev() const;  // sample stddev; 0 when fewer than 2 samples
    double min() const;
    double max() const;
};

struct PointResult {
    std::string name;
    std::map<std::string, double> params;
    std::map<std::string, MetricStats> metrics;

    /// Mean of `metric` across seeds; 0 when the metric is absent.
    double mean(const std::string& metric) const;
};

struct BenchSuite {
    std::string name;
    std::uint64_t base_seed = 42;
    int seeds = 1;
    bool quick = false;
    /// Simulation partition count, echoed into the "meta" header (see
    /// run_meta_json — which adds the build's git describe / build type)
    /// so archived BENCH_*.json files are self-describing.
    unsigned sim_threads = 1;
    /// Whether the suite ran with --real-crypto (echoed as a root field so
    /// archived real-crypto suites are distinguishable from modeled ones).
    bool real_crypto = false;
    std::vector<PointResult> points;

    const PointResult* point(const std::string& name) const;

    /// Serialises to the "neo-bench-suite@1" schema. Output depends only
    /// on the results (not on scheduling), so a --jobs N run and a
    /// --jobs 1 run of the same sweep produce byte-identical files —
    /// which is also why the meta header has no "jobs" field.
    std::string to_json() const;
    bool write_json_file(const std::string& path) const;
};

/// Per-binary entry point: owns the parsed options, the ObsSession and the
/// accumulated suite. Destruction writes the JSON file when --json was
/// given (after printing, so a crash mid-print loses nothing silently).
class BenchMain {
  public:
    BenchMain(int argc, char** argv, std::string suite_name);
    ~BenchMain();

    BenchMain(const BenchMain&) = delete;
    BenchMain& operator=(const BenchMain&) = delete;

    const BenchOptions& opt() const { return opt_; }
    bool quick() const { return opt_.quick; }
    std::uint64_t base_seed() const { return opt_.base_seed; }
    ObsSession& obs() { return obs_; }

    /// Runs every (point, seed) pair on the pool and appends the
    /// aggregated results to the suite. Returns the results for THIS call
    /// (same order as `points`). Exceptions from run functions propagate
    /// after all in-flight runs drain.
    std::vector<PointResult> run(const std::vector<BenchPointSpec>& points);

    const BenchSuite& suite() const { return suite_; }

    /// Writes the suite JSON now (idempotent; also done by the destructor).
    void flush();

  private:
    BenchOptions opt_;
    ObsSession obs_;
    BenchSuite suite_;
    bool trace_offered_ = false;
    bool flushed_ = false;
};

}  // namespace neo::bench
