// Byzantine scenario matrix: every canonical fault scenario runs over
// every protocol in the evaluation, with the auditor checking safety
// (expected violations must fire, anything else fails) and the liveness
// floor on each cell — plus the engine's determinism contract: same-seed
// scenario outcomes are byte-identical across --sim-threads {1, 8}. The
// neo_*_2shard rows run the sharded NeoBFT shape (2 groups x 4 replicas,
// 20%-cross-shard YCSB transactions) under the same catalogue.
//
// tsan label: scenario faults mutate cross-node shared state (network
// blocks, node-down flags, sequencer fault knobs) from global events
// between PDES windows while replicas run on partition workers — exactly
// the cross-thread pattern the ThreadSanitizer job exists to check.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "harness/harness.hpp"
#include "harness/scenario_run.hpp"
#include "scenario/scenario.hpp"

namespace neo::bench {
namespace {

constexpr std::uint64_t kSeed = 777;
constexpr sim::Time kHorizon = 20 * sim::kMillisecond;

scenario::Scenario scenario_by_name(const std::string& name,
                                    const std::vector<NodeId>& replicas) {
    for (auto& sc : scenario::standard_suite(replicas, kHorizon)) {
        if (sc.name == name) return sc;
    }
    ADD_FAILURE() << "unknown scenario " << name;
    return {};
}

std::vector<std::string> scenario_names() {
    std::vector<std::string> names;
    for (const auto& sc : scenario::standard_suite({1, 2, 3, 4}, kHorizon)) {
        names.push_back(sc.name);
    }
    return names;
}

using Cell = std::tuple<std::string, std::string>;  // (protocol, scenario)

class ScenarioMatrix : public ::testing::TestWithParam<Cell> {};

TEST_P(ScenarioMatrix, PassesSafetyAndLiveness) {
    const auto& [proto, name] = GetParam();
    ScenarioRow row = make_scenario_row(proto, kSeed, 1);
    scenario::Scenario sc = scenario_by_name(name, row.targets);
    ScenarioOutcome out = run_scenario(*row.d, sc, row.ops, kHorizon);
    EXPECT_TRUE(out.ok) << proto << " " << out.to_string();
}

std::vector<Cell> all_cells() {
    std::vector<Cell> cells;
    for (const std::string& proto : scenario_protocols()) {
        for (const std::string& name : scenario_names()) cells.push_back({proto, name});
    }
    return cells;
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ScenarioMatrix, ::testing::ValuesIn(all_cells()),
                         [](const ::testing::TestParamInfo<Cell>& info) {
                             return std::get<0>(info.param) + "_" + std::get<1>(info.param);
                         });

TEST(ScenarioDeterminism, OutcomeByteIdenticalAcrossThreadCounts) {
    // The engine schedules every fault as a global event, so a scenario
    // run — faults, recovery, auditor stream and all — must be a pure
    // function of (seed, scenario), independent of worker threads.
    for (const char* proto : {"neo_hm", "neo_pk", "neo_hm_2shard", "neo_pk_2shard"}) {
        for (const char* name : {"crash_recover", "seq_equivocate"}) {
            std::string ref;
            std::size_t ref_records = 0;
            for (unsigned threads : {1u, 8u}) {
                ScenarioRow row = make_scenario_row(proto, kSeed, threads);
                scenario::Scenario sc = scenario_by_name(name, row.targets);
                ScenarioOutcome out = run_scenario(*row.d, sc, row.ops, kHorizon);
                if (threads == 1) {
                    ref = out.to_string();
                    ref_records = row.d->auditor().records();
                } else {
                    EXPECT_EQ(out.to_string(), ref) << proto << " threads=" << threads;
                    EXPECT_EQ(row.d->auditor().records(), ref_records) << proto;
                    EXPECT_GT(row.d->simulator().worker_windows(), 0u) << proto;
                }
            }
        }
    }
}

TEST(ScenarioDeterminism, FuzzCompositionsStableAcrossThreadCounts) {
    for (std::uint64_t seed : {3ull, 11ull}) {
        std::string ref;
        for (unsigned threads : {1u, 8u}) {
            ScenarioRow row = make_scenario_row("neo_hm", seed, threads);
            scenario::Scenario sc = scenario::fuzz(seed, row.targets, kHorizon);
            ScenarioOutcome out = run_scenario(*row.d, sc, row.ops, kHorizon);
            EXPECT_TRUE(out.ok) << out.to_string();
            if (threads == 1) {
                ref = out.to_string();
            } else {
                EXPECT_EQ(out.to_string(), ref) << "fuzz seed " << seed;
                EXPECT_GT(row.d->simulator().worker_windows(), 0u) << "fuzz seed " << seed;
            }
        }
    }
}

}  // namespace
}  // namespace neo::bench
