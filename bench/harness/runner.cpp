#include "harness/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>

#include "common/assert.hpp"
#include "harness/bench_json.hpp"
#include "harness/thread_pool.hpp"

namespace neo::bench {

// ------------------------------------------------------------------ options

std::string flag_value(int argc, char* const* argv, const char* flag, const char* env) {
    const std::size_t flen = std::strlen(flag);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) return argv[i + 1];
        if (std::strncmp(argv[i], flag, flen) == 0 && argv[i][flen] == '=') {
            return argv[i] + flen + 1;
        }
    }
    const char* e = std::getenv(env);
    return e ? e : "";
}

namespace {

bool flag_present(int argc, char* const* argv, const char* flag) {
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0) return true;
    }
    return false;
}

}  // namespace

BenchOptions BenchOptions::parse(int argc, char* const* argv) {
    BenchOptions o;
    o.json_path = flag_value(argc, argv, "--json", "NEO_BENCH_JSON");
    std::string s;
    if (!(s = flag_value(argc, argv, "--seed", "NEO_BENCH_SEED")).empty()) {
        o.base_seed = std::strtoull(s.c_str(), nullptr, 10);
    }
    if (!(s = flag_value(argc, argv, "--seeds", "NEO_BENCH_SEEDS")).empty()) {
        o.seeds = std::max(1, std::atoi(s.c_str()));
    }
    if (!(s = flag_value(argc, argv, "--jobs", "NEO_BENCH_JOBS")).empty()) {
        int j = std::atoi(s.c_str());
        o.jobs = j <= 0 ? ThreadPool::default_jobs() : static_cast<unsigned>(j);
    }
    if (!(s = flag_value(argc, argv, "--sim-threads", "NEO_BENCH_SIM_THREADS")).empty()) {
        int j = std::atoi(s.c_str());
        o.sim_threads = j <= 0 ? ThreadPool::default_jobs() : static_cast<unsigned>(j);
    }
    o.quick = flag_present(argc, argv, "--quick") || std::getenv("NEO_BENCH_QUICK") != nullptr;
    o.real_crypto = flag_present(argc, argv, "--real-crypto") ||
                    std::getenv("NEO_BENCH_REAL_CRYPTO") != nullptr;
    return o;
}

// ------------------------------------------------------------------ context

ObsSession::Attachment RunCtx::attach(
    sim::Simulator& sim,
    const std::function<void(obs::Registry&, obs::TraceSink*)>& reg) const {
    return obs_->attach(sim, label_, want_trace_, reg);
}

ObsSession::Attachment RunCtx::attach(Deployment& d) const {
    return obs_->attach(d, label_, want_trace_);
}

// -------------------------------------------------------------- aggregation

double MetricStats::mean() const {
    if (values.empty()) return 0;
    double sum = 0;
    for (double v : values) sum += v;
    return sum / static_cast<double>(values.size());
}

double MetricStats::stddev() const {
    if (values.size() < 2) return 0;
    double m = mean();
    double ss = 0;
    for (double v : values) ss += (v - m) * (v - m);
    return std::sqrt(ss / static_cast<double>(values.size() - 1));
}

double MetricStats::min() const {
    if (values.empty()) return 0;
    return *std::min_element(values.begin(), values.end());
}

double MetricStats::max() const {
    if (values.empty()) return 0;
    return *std::max_element(values.begin(), values.end());
}

double PointResult::mean(const std::string& metric) const {
    auto it = metrics.find(metric);
    return it == metrics.end() ? 0 : it->second.mean();
}

const PointResult* BenchSuite::point(const std::string& name_) const {
    for (const auto& p : points) {
        if (p.name == name_) return &p;
    }
    return nullptr;
}

std::string BenchSuite::to_json() const {
    Json root = Json::object();
    root.set("schema", Json(std::string("neo-bench-suite@1")));
    root.set("suite", Json(name));
    root.set("base_seed", Json(static_cast<double>(base_seed)));
    root.set("seeds", Json(static_cast<double>(seeds)));
    root.set("quick", Json(quick));
    root.set("real_crypto", Json(real_crypto));
    root.set("meta", run_meta_json(base_seed, seeds, sim_threads));
    Json pts = Json::array();
    for (const auto& p : points) {
        Json jp = Json::object();
        jp.set("name", Json(p.name));
        Json params = Json::object();
        for (const auto& [k, v] : p.params) params.set(k, Json(v));
        jp.set("params", std::move(params));
        Json metrics = Json::object();
        for (const auto& [k, st] : p.metrics) {
            Json jm = Json::object();
            jm.set("mean", Json(st.mean()));
            jm.set("stddev", Json(st.stddev()));
            jm.set("min", Json(st.min()));
            jm.set("max", Json(st.max()));
            Json values = Json::array();
            for (double v : st.values) values.push_back(Json(v));
            jm.set("values", std::move(values));
            metrics.set(k, std::move(jm));
        }
        jp.set("metrics", std::move(metrics));
        pts.push_back(std::move(jp));
    }
    root.set("points", std::move(pts));
    return root.dump() + "\n";
}

bool BenchSuite::write_json_file(const std::string& path) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << to_json();
    return static_cast<bool>(out);
}

// ------------------------------------------------------------------- runner

BenchMain::BenchMain(int argc, char** argv, std::string suite_name)
    : opt_(BenchOptions::parse(argc, argv)), obs_(argc, argv) {
    suite_.name = std::move(suite_name);
    suite_.base_seed = opt_.base_seed;
    suite_.seeds = opt_.seeds;
    suite_.quick = opt_.quick;
    suite_.sim_threads = opt_.sim_threads;
    suite_.real_crypto = opt_.real_crypto;
    if (flag_present(argc, argv, "--help") || flag_present(argc, argv, "-h")) {
        std::printf(
            "usage: %s [--json <path>] [--seed <S>] [--seeds <N>] [--jobs <N>]\n"
            "          [--sim-threads <N>] [--quick] [--trace <path>] [--metrics <path>]\n"
            "  --json     write machine-readable results (neo-bench-suite@1)\n"
            "  --seed     base seed (default 42)\n"
            "  --seeds    seeds per point: S, S+1, ... (default 1)\n"
            "  --jobs     parallel runs; 0 = all cores (default 1)\n"
            "  --sim-threads  partitions per simulation (PDES); 0 = all cores\n"
            "             (default 1). Simulated results are identical for any N.\n"
            "  --quick    reduced-size sweep for CI smoke runs\n"
            "  --real-crypto  run with CryptoMode::kReal (actual secp256k1 /\n"
            "             SipHash on the host). Simulated metrics are unchanged;\n"
            "             only host_ns and trace signature bytes differ.\n"
            "  --trace    Chrome-trace/JSONL timeline of one run (see docs/OBSERVABILITY.md)\n"
            "  --metrics  per-run counter JSON, labels namespaced '<point>.s<seed>'\n",
            argv[0]);
        std::exit(0);
    }
}

BenchMain::~BenchMain() { flush(); }

std::vector<PointResult> BenchMain::run(const std::vector<BenchPointSpec>& points) {
    // The trace slot (process-wide, first claim wins) must land on a
    // deterministic run regardless of scheduling: the first candidate
    // point's first seed, once per process.
    std::ptrdiff_t trace_point = -1;
    if (!trace_offered_) {
        for (std::size_t i = 0; i < points.size(); ++i) {
            if (points[i].trace_candidate) {
                trace_point = static_cast<std::ptrdiff_t>(i);
                trace_offered_ = true;
                break;
            }
        }
    }

    using Metrics = std::map<std::string, double>;
    std::vector<std::vector<std::future<Metrics>>> futs(points.size());
    {
        ThreadPool pool(opt_.jobs);
        for (std::size_t i = 0; i < points.size(); ++i) {
            const BenchPointSpec& spec = points[i];
            NEO_ASSERT_MSG(spec.run, "BenchPointSpec without a run function");
            futs[i].reserve(static_cast<std::size_t>(opt_.seeds));
            for (int s = 0; s < opt_.seeds; ++s) {
                std::uint64_t seed = opt_.base_seed + static_cast<std::uint64_t>(s);
                bool want_trace = static_cast<std::ptrdiff_t>(i) == trace_point && s == 0;
                std::string label = spec.name + ".s" + std::to_string(seed);
                auto fn = spec.run;
                bool quick = opt_.quick;
                unsigned sim_threads = opt_.sim_threads;
                bool real_crypto = opt_.real_crypto;
                ObsSession* obs = &obs_;
                futs[i].push_back(pool.async(
                    [fn, obs, label = std::move(label), seed, want_trace, quick,
                     sim_threads, real_crypto]() -> Metrics {
                        RunCtx ctx(obs, label, seed, want_trace, quick, sim_threads,
                                   real_crypto);
                        // Wall-clock per (point, seed). host_* metrics are
                        // nondeterministic by nature; bench_compare and the
                        // determinism tests ignore them (docs/BENCHMARKING.md).
                        auto t0 = std::chrono::steady_clock::now();
                        Metrics m = fn(ctx);
                        auto t1 = std::chrono::steady_clock::now();
                        m["host_ns"] = static_cast<double>(
                            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                                .count());
                        return m;
                    }));
            }
        }
        // Pool destructor drains every run (even when a get() below would
        // throw) before any future is inspected.
    }

    std::vector<PointResult> out;
    out.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        PointResult r;
        r.name = points[i].name;
        r.params = points[i].params;
        for (auto& fut : futs[i]) {
            Metrics m = fut.get();  // rethrows a run's exception
            for (const auto& [k, v] : m) r.metrics[k].values.push_back(v);
        }
        out.push_back(std::move(r));
    }
    for (const auto& r : out) suite_.points.push_back(r);
    return out;
}

void BenchMain::flush() {
    if (flushed_) return;
    flushed_ = true;
    if (opt_.json_path.empty()) return;
    if (suite_.write_json_file(opt_.json_path)) {
        std::printf("\nwrote %s (%zu points, %d seed%s)\n", opt_.json_path.c_str(),
                    suite_.points.size(), opt_.seeds, opt_.seeds == 1 ? "" : "s");
    } else {
        std::fprintf(stderr, "bench: cannot write suite JSON %s\n", opt_.json_path.c_str());
    }
}

}  // namespace neo::bench
