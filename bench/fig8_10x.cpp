// Figure 8 at 10x scale: NeoBFT with replica groups up to 1000+ on the
// software-sequencer profile — the sweep the single-core engine could not
// touch. Every point runs TWICE: once on the serial engine and once with
// --sim-threads N partitions, asserts the simulated results are identical
// (same committed ops, same latency percentiles, same packet counts), and
// reports the host wall-clock speedup.
//
// The simulated numbers extend the paper's Fig 8 claim (Neo-PK per-replica
// work is constant; Neo-HM decays with ceil(n/4) subgroup packets); the
// host_ns columns are this engine's own scaling story. Speedup is bounded
// by the host's core count — on a single-core host both engines serialise
// and the ratio is ~1 minus barrier overhead.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "harness/runner.hpp"

using namespace neo;
using namespace neo::bench;

namespace {

struct RunOut {
    Measured m;
    std::uint64_t packets = 0;
    std::uint64_t executed = 0;
    double host_ns = 0;
};

RunOut run_once(NeoVariant variant, int replicas, unsigned sim_threads, std::uint64_t seed,
                bool quick, crypto::CryptoMode crypto_mode) {
    NeoParams p;
    p.n_replicas = replicas;
    p.n_clients = 16;
    p.variant = variant;
    p.software_sequencer = true;
    p.seed = seed;
    p.sim_threads = sim_threads;
    p.crypto_mode = crypto_mode;
    auto t0 = std::chrono::steady_clock::now();
    auto d = make_neobft(p);
    Measured m = run_closed_loop(*d, echo_ops(64), 2 * sim::kMillisecond,
                                 quick ? 4 * sim::kMillisecond : 10 * sim::kMillisecond);
    auto t1 = std::chrono::steady_clock::now();
    RunOut out;
    out.m = m;
    out.packets = d->network().packets_delivered();
    out.executed = d->simulator().executed_events();
    out.host_ns =
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    return out;
}

/// Exact equality — the PDES contract is byte-identical simulated results,
/// not "close enough".
bool same_results(const RunOut& a, const RunOut& b) {
    return a.m.completed == b.m.completed && a.m.throughput_ops == b.m.throughput_ops &&
           a.m.p50_us == b.m.p50_us && a.m.p99_us == b.m.p99_us && a.m.p999_us == b.m.p999_us &&
           a.m.mean_us == b.m.mean_us && a.packets == b.packets && a.executed == b.executed;
}

}  // namespace

int main(int argc, char** argv) {
    BenchMain bm(argc, argv, "fig8_10x");
    const unsigned par = bm.opt().sim_threads > 1 ? bm.opt().sim_threads : 8;
    std::printf("=== Figure 8 x10: NeoBFT at 100..1000+ replicas, serial vs %u-way PDES ===\n\n",
                par);

    const std::vector<int> replica_counts =
        bm.quick() ? std::vector<int>{64, 256} : std::vector<int>{100, 250, 500, 1000};

    std::vector<BenchPointSpec> points;
    for (NeoVariant variant : {NeoVariant::kHm, NeoVariant::kPk}) {
        const char* prefix = variant == NeoVariant::kHm ? "neo_hm" : "neo_pk";
        for (int n : replica_counts) {
            points.push_back({
                std::string(prefix) + ".n" + std::to_string(n),
                {{"replicas", static_cast<double>(n)}},
                [variant, n, par, quick = bm.quick()](RunCtx& ctx) {
                    std::uint64_t seed = ctx.seed() + static_cast<std::uint64_t>(n);
                    RunOut serial = run_once(variant, n, 1, seed, quick, ctx.crypto_mode());
                    RunOut parallel = run_once(variant, n, par, seed, quick, ctx.crypto_mode());
                    if (!same_results(serial, parallel)) {
                        std::fprintf(stderr,
                                     "fig8_10x: serial / %u-thread results DIVERGED at n=%d\n",
                                     par, n);
                        std::abort();  // determinism is the contract; fail loudly
                    }
                    return std::map<std::string, double>{
                        {"tput_ops", serial.m.throughput_ops},
                        {"p50_us", serial.m.p50_us},
                        {"executed_events", static_cast<double>(serial.executed)},
                        {"host_serial_ns", serial.host_ns},
                        {"host_parallel_ns", parallel.host_ns},
                        {"host_speedup", serial.host_ns / std::max(1.0, parallel.host_ns)},
                    };
                },
                false,
            });
        }
    }
    std::vector<PointResult> results = bm.run(points);

    std::size_t i = 0;
    for (const char* name : {"Neo-HM", "Neo-PK"}) {
        std::printf("--- %s ---\n", name);
        TablePrinter table(
            {"replicas", "tput_ops", "p50_us", "events", "serial_ms", "par_ms", "speedup"});
        for (int n : replica_counts) {
            const PointResult& r = results[i++];
            table.row({std::to_string(n), fmt_double(r.mean("tput_ops"), 0),
                       fmt_double(r.mean("p50_us"), 1), fmt_double(r.mean("executed_events"), 0),
                       fmt_double(r.mean("host_serial_ns") / 1e6, 0),
                       fmt_double(r.mean("host_parallel_ns") / 1e6, 0),
                       fmt_double(r.mean("host_speedup"), 2)});
        }
        std::printf("\n");
    }
    std::printf("serial and %u-thread runs produced identical simulated results at every point\n",
                par);
    return 0;
}
