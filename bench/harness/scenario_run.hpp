// Scenario driver: runs a declarative fault schedule (src/scenario) over a
// live deployment and checks BOTH safety and liveness at the end.
//
// run_closed_loop() aborts on any auditor violation — correct for perf
// figures, where a violation means the numbers are garbage. Scenario runs
// are different: a Byzantine scenario EXPECTS specific violations (an
// equivocation run that trips no divergent_commit is a detector bug), so
// the driver compares the auditor's findings against the scenario's
// expectation set instead of asserting emptiness, and adds the liveness
// floor (every client commits >= min_commits_per_client) that perf runs
// never needed.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "harness/harness.hpp"
#include "scenario/scenario.hpp"

namespace neo::bench {

/// Deterministic result of one scenario run: every field derives from the
/// simulation's event stream, so to_string() is byte-identical across
/// --sim-threads values for the same (deployment params, scenario).
struct ScenarioOutcome {
    std::string scenario;
    bool ok = false;
    /// Violation names the auditor flagged, in finalize order (duplicates
    /// collapsed), and how they compare against the expectation set.
    std::vector<std::string> violations;
    std::vector<std::string> unexpected;
    std::vector<std::string> missing;
    /// Per-client committed-request counts over the run.
    std::vector<std::uint64_t> client_completed;
    std::uint64_t total_completed = 0;
    std::uint64_t min_client_completed = 0;

    /// One-line summary (stable field order) for logs and the determinism
    /// test's byte comparison.
    std::string to_string() const;
};

/// Protocol rows of the scenario matrix (bench/fig_scenarios and the tsan
/// matrix test): NeoBFT-HM and -PK with checkpointing on, the same two over
/// 2 shards x 4 replicas ("neo_hm_2shard", "neo_pk_2shard"), and the four
/// baselines.
const std::vector<std::string>& scenario_protocols();

/// One freshly built matrix row: the deployment, the ops its clients issue
/// (64-B echo; 20%-cross-shard YCSB transactions on the 2-shard rows) and
/// the replicas a scenario may target (the last shard's on the 2-shard
/// rows, so each group stays within f).
struct ScenarioRow {
    std::unique_ptr<Deployment> d;
    OpGen ops;
    std::vector<NodeId> targets;
};
ScenarioRow make_scenario_row(const std::string& proto, std::uint64_t seed, unsigned sim_threads,
                              crypto::CryptoMode mode = crypto::CryptoMode::kModeled);

/// Applies `sc` to `d`, drives every client closed-loop for `duration` of
/// virtual time, finalizes the auditor and evaluates the scenario's
/// expectations. The deployment must be freshly built (the auditor and
/// client counters start at zero).
ScenarioOutcome run_scenario(Deployment& d, const scenario::Scenario& sc, const OpGen& ops,
                             sim::Time duration);

}  // namespace neo::bench
