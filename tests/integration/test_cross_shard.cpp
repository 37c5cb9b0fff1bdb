// Cross-shard two-phase commit, end to end: honest multi-shard runs commit
// atomically and pass the auditor (including under packet loss and a
// sequencer failover), and a Byzantine participant shard that equivocates
// on its prepare vote — claims PREPARED on the wire, stages nothing — is
// flagged by obs::Auditor as a divergent transaction decision.
//
// tsan label: 2PC fans prepare/commit ops out across shards placed on
// different PDES partitions, with the per-client coordinator state mutated
// from co-located child-client events — the heaviest cross-partition
// shared-state pattern the sharded stack has.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>

#include "harness/harness.hpp"

namespace neo::bench {
namespace {

constexpr std::uint64_t kSeed = 4242;
constexpr int kTxnsPerClient = 8;

ShardParams params(int shards, unsigned sim_threads = 1) {
    ShardParams p;
    p.n_shards = shards;
    p.n_replicas = 4;
    p.n_clients = 2;
    p.seed = kSeed;
    p.sim_threads = sim_threads;
    p.dataset.record_count = 1'000;  // small preload keeps the test fast
    return p;
}

ShardTxnWorkload workload(int shards, double cross_ratio) {
    ShardTxnWorkload w;
    w.n_shards = shards;
    w.cross_shard_ratio = cross_ratio;
    w.ops_per_txn = 3;
    w.seed = kSeed;
    w.dataset.record_count = 1'000;
    return w;
}

/// Issues kTxnsPerClient transactions per client and runs to quiescence
/// (run_closed_loop would abort on an auditor violation, and the Byzantine
/// scenarios exist to *observe* violations — so drive the sim directly).
void drive(Deployment& d, const OpGen& gen) {
    // Held weakly by itself and strongly by in-flight callbacks (no cycle).
    auto issue = std::make_shared<std::function<void(int, std::uint64_t)>>();
    std::weak_ptr<std::function<void(int, std::uint64_t)>> self = issue;
    *issue = [&d, self, &gen](int client, std::uint64_t k) {
        if (k >= kTxnsPerClient) return;
        d.invoke(client, gen(client, k),
                 [loop = self.lock(), client, k](Bytes) { (*loop)(client, k + 1); });
    };
    for (int c = 0; c < d.n_clients(); ++c) (*issue)(c, 0);
    d.simulator().run_until(100 * sim::kMillisecond);
}

bool has_violation(const obs::Auditor& aud, std::string_view invariant) {
    for (const auto& v : aud.violations()) {
        if (std::string_view(v.invariant) == invariant) return true;
    }
    return false;
}

TEST(CrossShard, SingleShardFastPathCommitsWithout2pc) {
    auto d = make_sharded_neobft(params(1));
    OpGen gen = sharded_txn_ops(workload(1, 0.0), d->n_clients());
    drive(*d, gen);

    obs::Auditor& aud = d->auditor();
    aud.finalize();
    EXPECT_TRUE(aud.ok()) << (aud.violations().empty() ? ""
                                                       : aud.violations()[0].to_string());

    Deployment::TxnTotals t = d->txn_totals();
    EXPECT_EQ(t.txns_started, static_cast<std::uint64_t>(2 * kTxnsPerClient));
    EXPECT_EQ(t.cross_shard_txns, 0u);
    EXPECT_GT(t.committed_txns, 0u);
    EXPECT_EQ(t.committed_txns + t.aborted_txns, t.txns_started);
}

TEST(CrossShard, CrossShardTxnsCommitAtomicallyAndPassTheAuditor) {
    auto d = make_sharded_neobft(params(4));
    OpGen gen = sharded_txn_ops(workload(4, 1.0), d->n_clients());
    drive(*d, gen);

    obs::Auditor& aud = d->auditor();
    aud.finalize();
    EXPECT_TRUE(aud.ok()) << (aud.violations().empty() ? ""
                                                       : aud.violations()[0].to_string());

    Deployment::TxnTotals t = d->txn_totals();
    EXPECT_EQ(t.txns_started, static_cast<std::uint64_t>(2 * kTxnsPerClient));
    EXPECT_GT(t.cross_shard_txns, 0u);
    EXPECT_GT(t.committed_txns, 0u);
    EXPECT_GT(t.committed_ops, 0u);
    EXPECT_EQ(t.committed_txns + t.aborted_txns, t.txns_started);
}

TEST(CrossShard, HonestRunSurvivesDropsAndFailover) {
    // run_closed_loop finalizes the auditor and aborts the process on any
    // safety violation — surviving the call IS the assertion. Packet loss
    // exercises the 2PC retry paths; stalling shard 0's home switch
    // mid-run forces a sequencer failover under live transactions.
    ShardParams p = params(2);
    p.n_clients = 4;
    p.drop_rate = 0.01;
    auto d = make_sharded_neobft(p);
    OpGen gen = sharded_txn_ops(workload(2, 0.2), d->n_clients());

    d->simulator().at(5 * sim::kMillisecond, [&] { d->inject_sequencer_failure(); });
    Measured m = run_closed_loop(*d, gen, 2 * sim::kMillisecond, 150 * sim::kMillisecond);

    EXPECT_GT(m.completed, 0u);
    EXPECT_GE(d->failovers(), 1u);
    Deployment::TxnTotals t = d->txn_totals();
    EXPECT_GT(t.committed_txns, 0u);
    EXPECT_GT(t.cross_shard_txns, 0u);
}

TEST(CrossShard, ByzantineEquivocatingShardIsFlagged) {
    // Shard 1's replicas run the forged-prepare double: the coordinator
    // sees PREPARED everywhere and commits, the honest shards apply, the
    // Byzantine shard finds nothing staged — a cross-shard atomicity
    // violation the auditor must surface as txn_divergent_decision.
    ShardParams p = params(2);
    p.byzantine_prepare_shard = 1;
    auto d = make_sharded_neobft(p);
    OpGen gen = sharded_txn_ops(workload(2, 1.0), d->n_clients());
    drive(*d, gen);

    Deployment::TxnTotals t = d->txn_totals();
    ASSERT_GT(t.cross_shard_txns, 0u);
    ASSERT_GT(t.committed_txns, 0u) << "the forged votes never led to a commit";

    obs::Auditor& aud = d->auditor();
    aud.finalize();
    EXPECT_FALSE(aud.ok());
    EXPECT_TRUE(has_violation(aud, "txn_divergent_decision"))
        << "auditor missed the equivocating shard (" << aud.violations().size()
        << " other violations)";
}

TEST(CrossShard, HonestRunsFlagNothingAcrossThreadCounts) {
    // The auditor merges per-partition record buffers; the multi-threaded
    // engine must neither lose txn records nor order them differently.
    for (unsigned threads : {1u, 2u, 8u}) {
        auto d = make_sharded_neobft(params(4, threads));
        OpGen gen = sharded_txn_ops(workload(4, 0.5), d->n_clients());
        drive(*d, gen);
        obs::Auditor& aud = d->auditor();
        aud.finalize();
        EXPECT_TRUE(aud.ok()) << "threads=" << threads << ": "
                              << (aud.violations().empty()
                                      ? ""
                                      : aud.violations()[0].to_string());
    }
}

}  // namespace
}  // namespace neo::bench
