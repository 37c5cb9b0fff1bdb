// Gap handling (§5.4): QUERY recovery, the binary gap agreement, no-op
// commitment and speculative rollback.
#include <gtest/gtest.h>

#include "neobft_test_util.hpp"

namespace neo::neobft {
namespace {

using testutil::DeploymentOptions;
using testutil::NeoDeployment;

// Drops all switch->replica traffic for `victim` while active.
struct SwitchDropper {
    explicit SwitchDropper(NeoDeployment& d, std::vector<NodeId> victims)
        : victims_(std::move(victims)) {
        d.net.set_tamper([this](NodeId from, NodeId to, Bytes&) {
            if (active && from >= NeoDeployment::kSwitchBase &&
                from < NeoDeployment::kSwitchBase + 10) {
                for (NodeId v : victims_) {
                    if (to == v) return sim::TamperAction::kDrop;
                }
            }
            return sim::TamperAction::kDeliver;
        });
    }
    bool active = true;
    std::vector<NodeId> victims_;
};

TEST(NeoGaps, NonLeaderRecoversViaQuery) {
    // Replica 2 (non-leader) misses a message; it must fetch the ordering
    // certificate from the leader and catch up without any agreement round.
    DeploymentOptions opts;
    opts.receiver.gap_timeout = 500 * sim::kMicrosecond;
    NeoDeployment d(opts);
    SwitchDropper dropper(d, {2});

    Client& client = d.add_client();
    int done = 0;
    client.invoke(to_bytes("first"), [&](Bytes) { ++done; });
    d.sim.run_until(2 * sim::kMillisecond);
    dropper.active = false;
    client.invoke(to_bytes("second"), [&](Bytes) { ++done; });
    d.sim.run_until(sim::kSecond);

    EXPECT_EQ(done, 2);
    // Replica 2 recovered both entries.
    EXPECT_EQ(d.replicas[1]->log().size(), 2u);
    EXPECT_FALSE(d.replicas[1]->log().at(1).noop());
    EXPECT_GE(d.replicas[1]->stats().queries_sent, 1u);
    EXPECT_EQ(d.replicas[1]->stats().gap_noops_committed, 0u);
    d.expect_prefix_consistent();
}

TEST(NeoGaps, AllReplicasMissCommitsNoOp) {
    // Every replica misses the message: the leader collects 2f+1 gap-drops
    // and the slot commits as a no-op.
    DeploymentOptions opts;
    opts.receiver.gap_timeout = 500 * sim::kMicrosecond;
    NeoDeployment d(opts);
    SwitchDropper dropper(d, {1, 2, 3, 4});

    Client& client = d.add_client();
    int done = 0;
    client.invoke(to_bytes("vanishes"), [&](Bytes) { ++done; });
    d.sim.run_until(3 * sim::kMillisecond);
    dropper.active = false;
    // A second message creates the seq gap that triggers detection.
    Client& client2 = d.add_client();
    client2.invoke(to_bytes("arrives"), [&](Bytes) { ++done; });
    d.sim.run_until(2 * sim::kSecond);

    // The vanished request is retried by its client and eventually commits
    // (in a later slot); the original slot is a no-op everywhere.
    EXPECT_EQ(done, 2);
    for (auto& rep : d.replicas) {
        ASSERT_GE(rep->log().size(), 2u);
        EXPECT_TRUE(rep->log().at(1).noop()) << "replica " << rep->id();
        EXPECT_GE(rep->stats().gap_noops_committed, 1u);
    }
    d.expect_prefix_consistent();
}

TEST(NeoGaps, LeaderMissesButFollowerHasIt) {
    // Only the leader misses the message: GAP-FIND-MESSAGE yields a
    // GAP-RECV-MESSAGE from a follower and the slot commits as the request.
    DeploymentOptions opts;
    opts.receiver.gap_timeout = 500 * sim::kMicrosecond;
    NeoDeployment d(opts);
    SwitchDropper dropper(d, {1});  // replica 1 is leader of view <1,0>

    Client& client = d.add_client();
    int done = 0;
    client.invoke(to_bytes("leader-missed"), [&](Bytes) { ++done; });
    d.sim.run_until(2 * sim::kMillisecond);
    dropper.active = false;
    client.invoke(to_bytes("next"), [&](Bytes) { ++done; });
    d.sim.run_until(sim::kSecond);

    EXPECT_EQ(done, 2);
    for (auto& rep : d.replicas) {
        ASSERT_EQ(rep->log().size(), 2u);
        EXPECT_FALSE(rep->log().at(1).noop());
    }
    EXPECT_GE(d.replicas[0]->stats().gap_agreements_started, 1u);
    d.expect_prefix_consistent();
}

TEST(NeoGaps, RandomLossStaysConsistent) {
    // Property sweep: under random loss everything either commits or
    // no-ops, and logs stay prefix-consistent.
    DeploymentOptions opts;
    opts.receiver.gap_timeout = 500 * sim::kMicrosecond;
    opts.client.retry_timeout = 5 * sim::kMillisecond;
    NeoDeployment d(opts);
    sim::LinkConfig lossy = d.net.default_link();
    lossy.drop_rate = 0.05;
    d.net.set_default_link(lossy);

    auto results = d.run_workload(4, 15, 30 * sim::kSecond);
    for (const auto& r : results) EXPECT_EQ(r.size(), 15u);
    d.expect_prefix_consistent();
}

class GapLossSweep : public ::testing::TestWithParam<double> {};

TEST_P(GapLossSweep, ConsistentUnderLossRate) {
    DeploymentOptions opts;
    opts.receiver.gap_timeout = 500 * sim::kMicrosecond;
    opts.client.retry_timeout = 5 * sim::kMillisecond;
    opts.seed = 999 + static_cast<std::uint64_t>(GetParam() * 10000);
    NeoDeployment d(opts);
    d.net.set_global_drop_rate(GetParam());

    auto results = d.run_workload(3, 10, 60 * sim::kSecond);
    for (const auto& r : results) EXPECT_EQ(r.size(), 10u) << "loss " << GetParam();
    d.expect_prefix_consistent();
}

INSTANTIATE_TEST_SUITE_P(Rates, GapLossSweep, ::testing::Values(0.001, 0.01, 0.05, 0.1));

TEST(NeoGaps, RollbackOnNoOpCommit) {
    // Replica 2 receives and speculatively executes a message that every
    // other replica misses; the agreement commits a no-op and replica 2
    // must roll back.
    DeploymentOptions opts;
    opts.receiver.gap_timeout = 500 * sim::kMicrosecond;
    // Keep replica 2's copy: drop switch traffic to everyone EXCEPT 2.
    NeoDeployment d(opts);
    bool drop_switch = true;
    d.net.set_tamper([&](NodeId from, NodeId to, Bytes& data) {
        if (drop_switch && from >= NeoDeployment::kSwitchBase &&
            (to == 1 || to == 3 || to == 4)) {
            return sim::TamperAction::kDrop;
        }
        // Permanently block replica 2 from handing its ordering certificate
        // to anyone, so the drop decision wins (models the oc replies being
        // lost; safety must still hold).
        if (from == 2 && !data.empty() &&
            (data[0] == static_cast<std::uint8_t>(MsgKind::kGapRecv) ||
             data[0] == static_cast<std::uint8_t>(MsgKind::kQueryReply))) {
            return sim::TamperAction::kDrop;
        }
        return sim::TamperAction::kDeliver;
    });

    Client& client = d.add_client();
    int done = 0;
    client.invoke(to_bytes("spec-exec"), [&](Bytes) { ++done; });
    d.sim.run_until(1 * sim::kMillisecond);
    // Replica 2 executed speculatively.
    EXPECT_EQ(d.replicas[1]->stats().requests_executed, 1u);

    d.sim.run_until(10 * sim::kMillisecond);
    drop_switch = false;
    d.sim.run_until(2 * sim::kSecond);

    // The slot became a no-op everywhere; replica 2 rolled back.
    for (auto& rep : d.replicas) {
        ASSERT_GE(rep->log().size(), 1u);
        EXPECT_TRUE(rep->log().at(1).noop()) << "replica " << rep->id();
    }
    EXPECT_GE(d.replicas[1]->stats().rollbacks, 1u);
    auto& echo = dynamic_cast<app::EchoApp&>(d.replicas[1]->app());
    // The rolled-back op no longer counts (client retry may have re-landed
    // it in a later slot, but never twice).
    EXPECT_LE(echo.executed(), 1u);
    d.expect_prefix_consistent();
    EXPECT_EQ(done, 1);  // the client's retry eventually committed
}

TEST(NeoGaps, SyncCertificateRollsBackAMissedNoOp) {
    // Replica 2 alone receives slot 1 and executes it, while it is cut off
    // from its peers as they commit a no-op there. It never blocks, so only
    // the sync at slot 8 tells it (§B.2): the certificate shipped with the
    // peers' sync messages rolls slots 1..8 back and re-executes them.
    DeploymentOptions opts;
    opts.receiver.gap_timeout = 500 * sim::kMicrosecond;
    opts.protocol.sync_interval = 8;
    NeoDeployment d(opts);
    bool drop_switch = true;
    bool isolate = true;
    auto is_replica = [](NodeId n) { return n >= 1 && n <= 4; };
    d.net.set_tamper([&](NodeId from, NodeId to, Bytes&) {
        if (drop_switch && from == NeoDeployment::kSwitchBase && to != 2) {
            return sim::TamperAction::kDrop;
        }
        if (isolate && is_replica(from) && is_replica(to) && (from == 2 || to == 2)) {
            return sim::TamperAction::kDrop;
        }
        return sim::TamperAction::kDeliver;
    });

    Client& client = d.add_client();
    std::vector<std::string> results;
    std::function<void(int)> issue = [&](int i) {
        if (i > 10) return;
        client.invoke(to_bytes("op-" + std::to_string(i)), [&, i](Bytes r) {
            results.push_back(to_string(r));
            if (i > 0) issue(i + 1);
        });
    };
    issue(0);
    d.sim.run_until(3 * sim::kMillisecond);
    drop_switch = false;
    // The client's retry (10 ms) lands op-0 in slot 2 everywhere; the
    // peers of replica 2 then find slot 1 missing and commit a no-op.
    d.sim.run_until(15 * sim::kMillisecond);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(d.replicas[1]->stats().requests_executed, 1u);
    EXPECT_FALSE(d.replicas[1]->log().at(1).noop());
    for (std::size_t i : {0u, 2u, 3u}) {
        ASSERT_EQ(d.replicas[i]->log().size(), 2u);
        EXPECT_TRUE(d.replicas[i]->log().at(1).noop());
    }
    isolate = false;
    issue(1);
    d.sim.run_until(2 * sim::kSecond);

    ASSERT_EQ(results.size(), 11u);
    EXPECT_EQ(d.replicas[1]->stats().rollbacks, 1u);
    for (auto& rep : d.replicas) {
        ASSERT_EQ(rep->log().size(), 12u) << "replica " << rep->id();
        EXPECT_TRUE(rep->log().at(1).noop()) << "replica " << rep->id();
        EXPECT_EQ(rep->sync_point(), 8u) << "replica " << rep->id();
        // op-0 runs once, in slot 2, everywhere: replica 2's run of it in
        // slot 1 was undone.
        EXPECT_EQ(dynamic_cast<app::EchoApp&>(rep->app()).executed(), 11u)
            << "replica " << rep->id();
        EXPECT_EQ(rep->log().hash_at(12), d.replicas[0]->log().hash_at(12));
    }
    d.expect_prefix_consistent();
}

TEST(NeoGaps, GapCertificateInLogIsValid) {
    DeploymentOptions opts;
    opts.receiver.gap_timeout = 500 * sim::kMicrosecond;
    NeoDeployment d(opts);
    SwitchDropper dropper(d, {1, 2, 3, 4});
    Client& client = d.add_client();
    client.invoke(to_bytes("gone"), [](Bytes) {});
    d.sim.run_until(3 * sim::kMillisecond);
    dropper.active = false;
    Client& client2 = d.add_client();
    client2.invoke(to_bytes("later"), [](Bytes) {});
    d.sim.run_until(2 * sim::kSecond);

    for (auto& rep : d.replicas) {
        ASSERT_TRUE(rep->log().at(1).noop());
        const GapCertificate& cert = rep->log().at(1).gap_cert();
        EXPECT_FALSE(cert.recv);
        EXPECT_EQ(cert.slot, 1u);
        EXPECT_TRUE(verify_gap_certificate(cert, d.cfg, rep->node_crypto()));
    }
}

}  // namespace
}  // namespace neo::neobft

namespace neo::neobft {
namespace {

using testutil::DeploymentOptions;
using testutil::NeoDeployment;

TEST(NeoGapsRecovery, LostGapFindIsRetransmitted) {
    // Drop the leader's FIRST gap-find broadcast entirely; the retry timer
    // must re-send it and the agreement must still conclude.
    DeploymentOptions opts;
    opts.receiver.gap_timeout = 500 * sim::kMicrosecond;
    NeoDeployment d(opts);
    int finds_dropped = 0;
    bool drop_switch = true;
    d.net.set_tamper([&](NodeId from, NodeId to, Bytes& data) {
        if (drop_switch && from >= NeoDeployment::kSwitchBase &&
            to >= 1 && to <= 4) {
            return sim::TamperAction::kDrop;
        }
        if (!data.empty() && data[0] == static_cast<std::uint8_t>(MsgKind::kGapFind) &&
            finds_dropped < 3) {
            ++finds_dropped;
            return sim::TamperAction::kDrop;
        }
        return sim::TamperAction::kDeliver;
    });

    Client& client = d.add_client();
    int done = 0;
    client.invoke(to_bytes("lost-find"), [&](Bytes) { ++done; });
    d.sim.run_until(3 * sim::kMillisecond);
    drop_switch = false;
    d.sim.run_until(5 * sim::kSecond);

    EXPECT_EQ(done, 1);
    EXPECT_GE(finds_dropped, 3);
    for (auto& rep : d.replicas) {
        ASSERT_GE(rep->log().size(), 1u);
        EXPECT_TRUE(rep->log().at(1).noop());
    }
    d.expect_prefix_consistent();
}

TEST(NeoGapsRecovery, LostGapCommitsRetransmitted) {
    // Drop a fraction of gap prepare/commit messages; retransmission must
    // still converge (no view change needed).
    DeploymentOptions opts;
    opts.receiver.gap_timeout = 500 * sim::kMicrosecond;
    opts.protocol.view_change_timeout = 500 * sim::kMillisecond;  // disable churn
    NeoDeployment d(opts);
    auto rng = std::make_shared<Rng>(7);
    bool drop_switch = true;
    d.net.set_tamper([&, rng](NodeId from, NodeId to, Bytes& data) {
        if (drop_switch && from >= NeoDeployment::kSwitchBase && to >= 1 && to <= 4) {
            return sim::TamperAction::kDrop;
        }
        if (!data.empty() &&
            (data[0] == static_cast<std::uint8_t>(MsgKind::kGapPrepare) ||
             data[0] == static_cast<std::uint8_t>(MsgKind::kGapCommit) ||
             data[0] == static_cast<std::uint8_t>(MsgKind::kGapDecision)) &&
            rng->chance(0.5)) {
            return sim::TamperAction::kDrop;
        }
        return sim::TamperAction::kDeliver;
    });

    Client& client = d.add_client();
    int done = 0;
    client.invoke(to_bytes("flaky-agreement"), [&](Bytes) { ++done; });
    d.sim.run_until(3 * sim::kMillisecond);
    drop_switch = false;
    d.sim.run_until(10 * sim::kSecond);

    EXPECT_EQ(done, 1);
    for (auto& rep : d.replicas) {
        EXPECT_EQ(rep->stats().view_changes_started, 0u) << "should resolve without churn";
    }
    d.expect_prefix_consistent();
}

TEST(NeoGapsRecovery, HighLossSoakStaysConsistent) {
    // Regression soak for the fig9 failure mode: sustained load at 1% loss
    // with a tight reorder window; drop-notifications consumed before view
    // changes must still get resolved in the new views.
    DeploymentOptions opts;
    opts.receiver.gap_timeout = 100 * sim::kMicrosecond;
    opts.client.retry_timeout = 5 * sim::kMillisecond;
    opts.crypto_mode = crypto::CryptoMode::kModeled;
    NeoDeployment d(opts);
    d.net.set_global_drop_rate(0.01);
    auto results = d.run_workload(8, 40, 120 * sim::kSecond);
    for (const auto& r : results) EXPECT_EQ(r.size(), 40u);
    d.expect_prefix_consistent();
}

}  // namespace
}  // namespace neo::neobft
