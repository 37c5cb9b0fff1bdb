// 2PC liveness regression tests. Two bugs, each reproducible by flipping
// the fixed protocol back to its pre-fix configuration:
//
//  1. Coordinator crash between prepare and decision leaked the
//     participants' write locks forever (no presumed-abort sweep). The
//     orphaned locks starve every later transaction on those keys, and the
//     auditor's txn_orphan_prepare check flags the leak.
//  2. Under zipfian contention, no-wait 2PL (any lock conflict aborts)
//     livelocks: concurrent cross-shard transactions keep aborting each
//     other on the hot keys. Wait-die retries (young waits for old via
//     bounded backoff, old never waits for young) restore progress.
//
// Pre-fix expectations are asserted too: if the knob stops reproducing the
// failure, the regression test itself has rotted.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>

#include "apps/kvstore.hpp"
#include "harness/harness.hpp"

namespace neo::bench {
namespace {

constexpr std::uint64_t kSeed = 9090;

// Node-id layout mirrored from the sharded NeoBFT deployment
// (bench/harness/harness.cpp): child client of (logical client c, shard s)
// and the home switch of shard s.
NodeId child_client_id(int c, int s) { return 1'000 + 32 * static_cast<NodeId>(c) + static_cast<NodeId>(s); }
NodeId home_switch_id(int s) { return 910 + static_cast<NodeId>(s); }

ShardParams params(bool fixed) {
    ShardParams p;
    p.n_shards = 2;
    p.n_replicas = 4;
    p.n_clients = 2;
    p.seed = kSeed;
    p.dataset.record_count = 1'000;
    // fixed = the shipped protocol; !fixed = the pre-fix configuration.
    // The sweep threshold is in executed ops, kept small so the sweep
    // fires within the test's workload.
    p.presumed_abort_after = fixed ? 40 : 0;
    return p;
}

ShardTxnWorkload workload() {
    ShardTxnWorkload w;
    w.n_shards = 2;
    w.cross_shard_ratio = 1.0;
    w.ops_per_txn = 3;
    w.seed = kSeed;
    w.dataset.record_count = 1'000;
    return w;
}

void drive_client(Deployment& d, const OpGen& gen, int client, int txns, sim::Time deadline) {
    // Held weakly by itself and strongly by in-flight callbacks (no cycle).
    auto issue = std::make_shared<std::function<void(std::uint64_t)>>();
    std::weak_ptr<std::function<void(std::uint64_t)>> self = issue;
    *issue = [&d, self, &gen, client, txns](std::uint64_t k) {
        if (k >= static_cast<std::uint64_t>(txns)) return;
        d.invoke(client, gen(client, k), [loop = self.lock(), k](Bytes) { (*loop)(k + 1); });
    };
    (*issue)(0);
    d.simulator().run_until(deadline);
}

bool has_violation(const obs::Auditor& aud, std::string_view invariant) {
    for (const auto& v : aud.violations()) {
        if (std::string_view(v.invariant) == invariant) return true;
    }
    return false;
}

/// Crashes client 0's coordinator mid-2PC with shard 0 prepared and the
/// shard-1 prepare stuck behind a network block, then runs client 1's
/// workload over the same key space. Returns the deployment for
/// inspection; `end` receives the finalize timestamp.
std::unique_ptr<Deployment> run_coordinator_crash(bool fixed, sim::Time& end) {
    auto d = make_sharded_neobft(params(fixed));
    OpGen gen = sharded_txn_ops(workload(), d->n_clients());
    sim::Network& net = d->network();

    // Stage the crash: prepares go out in ascending shard order, so with
    // the shard-1 path blocked the coordinator sits between phase 1 and
    // phase 2 holding shard-0 locks.
    net.block(child_client_id(0, 1), home_switch_id(1));
    d->invoke(0, gen(0, 0), [](Bytes) { FAIL() << "abandoned txn must not complete"; });
    d->simulator().run_until(5 * sim::kMillisecond);
    EXPECT_EQ(d->txn_totals().txns_started, 1u);
    EXPECT_TRUE(d->abandon_coordinator(0));
    net.unblock(child_client_id(0, 1), home_switch_id(1));

    // Client 1 now works the same (zipfian-hot) keys; its ops are also the
    // executed-op clock that drives the presumed-abort sweep.
    drive_client(*d, gen, 1, 30, 120 * sim::kMillisecond);
    end = d->simulator().now();
    return d;
}

TEST(TxnLiveness, CoordinatorCrashLeaksLocksWithoutPresumedAbort) {
    sim::Time end = 0;
    auto d = run_coordinator_crash(/*fixed=*/false, end);

    obs::Auditor& aud = d->auditor();
    aud.set_txn_orphan_grace(10 * sim::kMillisecond, end);
    aud.finalize();
    EXPECT_TRUE(has_violation(aud, "txn_orphan_prepare"))
        << "pre-fix configuration no longer reproduces the lock leak";
}

TEST(TxnLiveness, PresumedAbortReleasesOrphanedLocks) {
    sim::Time end = 0;
    auto d = run_coordinator_crash(/*fixed=*/true, end);

    obs::Auditor& aud = d->auditor();
    aud.set_txn_orphan_grace(10 * sim::kMillisecond, end);
    aud.finalize();
    EXPECT_FALSE(has_violation(aud, "txn_orphan_prepare"))
        << (aud.violations().empty() ? "" : aud.violations()[0].to_string());

    // The sweep freed the keys: client 1 made progress through them.
    Deployment::TxnTotals t = d->txn_totals();
    EXPECT_GT(t.committed_txns, 0u);
    EXPECT_EQ(t.committed_txns + t.aborted_txns, t.txns_started - 1)
        << "every surviving txn must reach a decision (the abandoned one has none)";
}

/// Four coordinators hammer the same zipfian-hot keys with all-cross-shard
/// transactions; returns committed counts under the given lock discipline.
Deployment::TxnTotals run_contention(bool wait_die, std::uint64_t& min_client_committed) {
    ShardParams p = params(/*fixed=*/true);
    p.n_clients = 4;
    p.wait_die = wait_die;
    auto d = make_sharded_neobft(p);
    OpGen gen = sharded_txn_ops(workload(), d->n_clients());

    constexpr int kTxns = 12;
    auto issue = std::make_shared<std::function<void(int, std::uint64_t)>>();
    std::weak_ptr<std::function<void(int, std::uint64_t)>> self = issue;
    auto committed = std::make_shared<std::vector<std::uint64_t>>(4, 0);
    *issue = [&d, self, &gen, committed](int c, std::uint64_t k) {
        if (k >= kTxns) return;
        d->invoke(c, gen(c, k), [loop = self.lock(), committed, c, k](Bytes reply) {
            auto res = app::KvResult::parse(BytesView(reply.data(), reply.size()));
            if (res && res->status == app::KvStatus::kOk) {
                ++(*committed)[static_cast<std::size_t>(c)];
            }
            (*loop)(c, k + 1);
        });
    };
    for (int c = 0; c < 4; ++c) (*issue)(c, 0);
    d->simulator().run_until(200 * sim::kMillisecond);

    obs::Auditor& aud = d->auditor();
    aud.finalize();
    EXPECT_TRUE(aud.ok()) << aud.violations()[0].to_string();

    min_client_committed = ~0ull;
    for (std::uint64_t n : *committed) min_client_committed = std::min(min_client_committed, n);
    return d->txn_totals();
}

TEST(TxnLiveness, ZipfianContentionLivelocksUnderNoWait2pl) {
    std::uint64_t min_fixed = 0, min_prefix = 0;
    Deployment::TxnTotals fixed = run_contention(/*wait_die=*/true, min_fixed);
    Deployment::TxnTotals prefix = run_contention(/*wait_die=*/false, min_prefix);

    // Both disciplines decide every transaction (2PC safety is not at
    // stake — progress is).
    EXPECT_EQ(fixed.committed_txns + fixed.aborted_txns, fixed.txns_started);
    EXPECT_EQ(prefix.committed_txns + prefix.aborted_txns, prefix.txns_started);

    // Post-fix: contention is resolved by ordered waiting, so commits
    // dominate and every client gets through the hot keys.
    EXPECT_GE(fixed.committed_txns * 2, fixed.txns_started)
        << "wait-die should commit the majority of contended txns";
    EXPECT_GT(min_fixed, 0u) << "a client starved despite wait-die";

    // Pre-fix: no-wait 2PL measurably livelocks the same workload.
    EXPECT_LT(prefix.committed_txns, fixed.committed_txns)
        << "pre-fix configuration no longer reproduces the livelock";
}

}  // namespace
}  // namespace neo::bench
