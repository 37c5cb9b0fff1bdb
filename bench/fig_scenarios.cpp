// Byzantine scenario matrix: every canonical fault scenario from
// src/scenario's library, run over every protocol in the evaluation
// (NeoBFT-HM, NeoBFT-PK, their 2-shard deployments, PBFT, Zyzzyva,
// HotStuff, MinBFT), with the obs::Auditor checking safety (expected
// violations MUST fire, anything else fails) and the liveness floor (every
// client commits) on each run.
//
// NeoBFT rows run with checkpointing enabled over Byzantine-capable
// sequencer switches, so the sequencer-fault scenarios (skipped seqnums,
// unsigned packets, wire equivocation) and the full
// crash-recover-state-transfer lifecycle are exercised. The 2-shard rows
// (2 groups x 4 replicas, 20%-cross-shard YCSB transactions) aim every
// fault at the last shard, so each group stays within f. On the
// sequencer-less baselines the sequencer faults are no-ops and the
// scenario degrades to a clean liveness run (matrix uniformity).
//
// Modes:
//   default / --quick   fixed matrix; exit 1 unless EVERY cell passes
//   --fuzz <N>          N seed-randomised scenarios (scenario::fuzz) per
//                       NeoBFT variant; every seed is printed so a failing
//                       composition is reproducible from the log
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness/runner.hpp"
#include "harness/scenario_run.hpp"
#include "scenario/scenario.hpp"

using namespace neo;
using namespace neo::bench;

namespace {

/// Scenario names are protocol-independent; the replica-parameterised
/// schedule is rebuilt per deployment at run time.
std::vector<std::string> scenario_names(bool quick) {
    if (quick) {
        return {"crash_recover", "equivocating_replica", "minority_partition", "seq_skips"};
    }
    std::vector<std::string> names;
    for (const auto& sc : scenario::standard_suite({1, 2, 3, 4}, 1'000'000)) {
        names.push_back(sc.name);
    }
    return names;
}

scenario::Scenario scenario_by_name(const std::string& name, const std::vector<NodeId>& replicas,
                                    sim::Time horizon) {
    for (auto& sc : scenario::standard_suite(replicas, horizon)) {
        if (sc.name == name) return sc;
    }
    std::fprintf(stderr, "unknown scenario %s\n", name.c_str());
    std::abort();
}

std::map<std::string, double> outcome_metrics(const ScenarioOutcome& out) {
    return {
        {"ok", out.ok ? 1.0 : 0.0},
        {"completed", static_cast<double>(out.total_completed)},
        {"min_client_completed", static_cast<double>(out.min_client_completed)},
        {"violations", static_cast<double>(out.violations.size())},
        {"unexpected", static_cast<double>(out.unexpected.size())},
        {"missing", static_cast<double>(out.missing.size())},
    };
}

}  // namespace

int main(int argc, char** argv) {
    // --fuzz <N> is specific to this binary; the uniform flags (--seed,
    // --quick, --sim-threads, --json, ...) are parsed by BenchMain.
    int fuzz_n = 0;
    std::string only;  // --only <substr>: run matching matrix cells only
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--fuzz") == 0 && i + 1 < argc) {
            fuzz_n = std::atoi(argv[i + 1]);
        }
        if (std::strcmp(argv[i], "--only") == 0 && i + 1 < argc) {
            only = argv[i + 1];
        }
    }

    BenchMain bm(argc, argv, "fig_scenarios");
    const sim::Time horizon = bm.quick() ? 20 * sim::kMillisecond : 60 * sim::kMillisecond;

    if (fuzz_n > 0) {
        // Fuzzer mode: randomised fault compositions over both NeoBFT
        // variants (the richest fault surface: sequencer + recovery).
        std::printf("=== Scenario fuzzer: %d seeds from base %" PRIu64 " ===\n", fuzz_n,
                    bm.base_seed());
        int failures = 0;
        for (int i = 0; i < fuzz_n; ++i) {
            std::uint64_t fuzz_seed = bm.base_seed() + static_cast<std::uint64_t>(i);
            for (const std::string& proto : {std::string("neo_hm"), std::string("neo_pk")}) {
                ScenarioRow row = make_scenario_row(
                    proto, fuzz_seed, bm.opt().sim_threads,
                    bm.opt().real_crypto ? crypto::CryptoMode::kReal
                                         : crypto::CryptoMode::kModeled);
                scenario::Scenario sc = scenario::fuzz(fuzz_seed, row.targets, horizon);
                ScenarioOutcome out = run_scenario(*row.d, sc, row.ops, horizon);
                std::printf("fuzz seed=%" PRIu64 " proto=%s %s\n", fuzz_seed, proto.c_str(),
                            out.to_string().c_str());
                if (!out.ok) ++failures;
            }
        }
        if (failures > 0) {
            std::fprintf(stderr, "fig_scenarios: %d fuzz runs FAILED (seeds above)\n", failures);
            return 1;
        }
        std::printf("all %d fuzz compositions passed safety + liveness\n", fuzz_n * 2);
        return 0;
    }

    const std::vector<std::string> names = scenario_names(bm.quick());
    std::printf("=== Scenario matrix: %zu scenarios x %zu protocols, auditor-checked ===\n\n",
                names.size(), scenario_protocols().size());

    std::vector<BenchPointSpec> points;
    for (const std::string& proto : scenario_protocols()) {
        for (const std::string& name : names) {
            if (!only.empty() && (proto + "." + name).find(only) == std::string::npos) continue;
            points.push_back({
                proto + "." + name,
                {},
                [proto, name, horizon](RunCtx& ctx) {
                    ScenarioRow row = make_scenario_row(proto, ctx.seed(), ctx.sim_threads(),
                                                        ctx.crypto_mode());
                    auto obs = ctx.attach(*row.d);
                    scenario::Scenario sc = scenario_by_name(name, row.targets, horizon);
                    ScenarioOutcome out = run_scenario(*row.d, sc, row.ops, horizon);
                    if (!out.ok) {
                        std::fprintf(stderr, "fig_scenarios: %s %s\n", proto.c_str(),
                                     out.to_string().c_str());
                    }
                    return outcome_metrics(out);
                },
                // Every cell is a trace candidate; the first to run claims
                // the --trace export (a faulty run's span stream is the
                // interesting one to look at).
                true,
            });
        }
    }
    std::vector<PointResult> results = bm.run(points);

    bool all_ok = true;
    if (!only.empty()) {
        for (const PointResult& r : results) {
            bool ok = r.mean("ok") >= 1.0;
            all_ok = all_ok && ok;
            std::printf("%s: %s\n", r.name.c_str(), ok ? "ok" : "FAIL");
        }
        return all_ok ? 0 : 1;
    }
    std::size_t i = 0;
    for (const std::string& proto : scenario_protocols()) {
        std::printf("--- %s ---\n", proto.c_str());
        TablePrinter table({"scenario", "ok", "completed", "min_client", "violations"});
        for (const std::string& name : names) {
            const PointResult& r = results[i++];
            bool ok = r.mean("ok") >= 1.0;  // every seed must pass
            all_ok = all_ok && ok;
            table.row({name, ok ? "yes" : "NO", fmt_double(r.mean("completed"), 0),
                       fmt_double(r.mean("min_client_completed"), 0),
                       fmt_double(r.mean("violations"), 1)});
        }
        std::printf("\n");
    }

    if (!all_ok) {
        std::fprintf(stderr, "fig_scenarios: matrix has failing cells\n");
        return 1;
    }
    std::printf("all %zu matrix cells passed safety + liveness\n", results.size());
    return 0;
}
