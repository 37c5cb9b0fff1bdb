// View changes (§5.5/§B.1): leader replacement within an epoch and
// sequencer failover across epochs.
#include <gtest/gtest.h>

#include "neobft_test_util.hpp"

namespace neo::neobft {
namespace {

using testutil::DeploymentOptions;
using testutil::NeoDeployment;

DeploymentOptions fast_failover_opts() {
    DeploymentOptions opts;
    opts.n_switches = 2;
    opts.receiver.gap_timeout = 500 * sim::kMicrosecond;
    opts.protocol.view_change_timeout = 5 * sim::kMillisecond;
    opts.protocol.request_aom_timeout = 8 * sim::kMillisecond;
    opts.client.retry_timeout = 4 * sim::kMillisecond;
    return opts;
}

TEST(NeoViewChange, SequencerFailureTriggersEpochChange) {
    NeoDeployment d(fast_failover_opts());
    auto results = d.run_workload(1, 3);
    ASSERT_EQ(results[0].size(), 3u);

    // Kill the sequencer; new client traffic stalls, replicas learn of the
    // request via unicast retry, suspect the sequencer, and fail over.
    d.switches[0]->set_stall(true);
    Client& client = d.add_client();
    int done = 0;
    client.invoke(to_bytes("after-failure"), [&](Bytes) { ++done; });
    d.sim.run_until(d.sim.now() + 5 * sim::kSecond);

    EXPECT_EQ(done, 1);
    EXPECT_EQ(d.config->failovers_performed(), 1u);
    for (auto& rep : d.replicas) {
        EXPECT_EQ(rep->view().epoch, 2u);
        EXPECT_EQ(rep->status(), Replica::Status::kNormal);
        EXPECT_GE(rep->stats().views_entered, 1u);
    }
    d.expect_prefix_consistent();
}

TEST(NeoViewChange, ThroughputResumesAfterFailover) {
    NeoDeployment d(fast_failover_opts());
    auto before = d.run_workload(2, 5);
    ASSERT_EQ(before[0].size(), 5u);

    d.switches[0]->set_stall(true);
    auto after = d.run_workload(2, 10, d.sim.now() + 10 * sim::kSecond);
    EXPECT_EQ(after[0].size(), 10u);
    EXPECT_EQ(after[1].size(), 10u);
    for (auto& rep : d.replicas) EXPECT_EQ(rep->view().epoch, 2u);
    d.expect_prefix_consistent();
}

TEST(NeoViewChange, CommittedEntriesSurviveEpochChange) {
    NeoDeployment d(fast_failover_opts());
    auto results = d.run_workload(2, 10);
    ASSERT_EQ(results[0].size(), 10u);
    std::vector<Digest32> digests;
    for (std::uint64_t s = 1; s <= d.replicas[0]->log().size(); ++s) {
        const LogEntry& e = d.replicas[0]->log().at(s);
        digests.push_back(e.noop() ? Digest32{} : e.oc().digest);
    }

    d.switches[0]->set_stall(true);
    auto after = d.run_workload(1, 3, d.sim.now() + 10 * sim::kSecond);
    ASSERT_EQ(after[0].size(), 3u);

    for (auto& rep : d.replicas) {
        ASSERT_GE(rep->log().size(), digests.size());
        for (std::size_t i = 0; i < digests.size(); ++i) {
            if (digests[i] != Digest32{}) {
                EXPECT_EQ(rep->log().at(i + 1).oc().digest, digests[i]) << "slot " << i + 1;
            }
        }
    }
    d.expect_prefix_consistent();
}

TEST(NeoViewChange, EpochCertificatesRecorded) {
    NeoDeployment d(fast_failover_opts());
    d.run_workload(1, 2);
    d.switches[0]->set_stall(true);
    auto after = d.run_workload(1, 2, d.sim.now() + 10 * sim::kSecond);
    ASSERT_EQ(after[0].size(), 2u);

    // Sequence numbers restarted in epoch 2: the first epoch-2 entry maps to
    // slot 3 on every replica.
    for (auto& rep : d.replicas) {
        ASSERT_GE(rep->log().size(), 3u);
        EXPECT_EQ(rep->log().at(3).oc().epoch, 2u);
        EXPECT_EQ(rep->log().at(3).oc().seq, 1u);
    }
}

TEST(NeoViewChange, LeaderFailureDuringGapAgreement) {
    // The leader goes silent while a gap needs resolving; followers must
    // replace it (leader-num + 1, same epoch) and then resolve the gap.
    DeploymentOptions opts = fast_failover_opts();
    NeoDeployment d(opts);
    auto results = d.run_workload(1, 2);
    ASSERT_EQ(results[0].size(), 2u);

    // Silence the leader (replica 1, view <1,0>) and drop switch traffic to
    // replica 2 so it needs a QUERY that the dead leader never answers.
    d.net.set_node_down(d.replicas[0]->id(), true);
    bool active = true;
    d.net.set_tamper([&](NodeId from, NodeId to, Bytes&) {
        if (active && from >= NeoDeployment::kSwitchBase && to == 2) {
            return sim::TamperAction::kDrop;
        }
        return sim::TamperAction::kDeliver;
    });

    Client& client = d.add_client();
    int done = 0;
    client.invoke(to_bytes("needs-new-leader"), [&](Bytes) { ++done; });
    d.sim.run_until(d.sim.now() + 3 * sim::kMillisecond);
    active = false;
    d.sim.run_until(d.sim.now() + 10 * sim::kSecond);

    EXPECT_EQ(done, 1);
    for (std::size_t i = 1; i < d.replicas.size(); ++i) {
        EXPECT_GE(d.replicas[i]->view().leader, 1u) << "replica " << i + 1;
        EXPECT_EQ(d.replicas[i]->view().epoch, 1u);
        EXPECT_EQ(d.replicas[i]->status(), Replica::Status::kNormal);
    }
    d.expect_prefix_consistent();
}

TEST(NeoViewChange, RepeatedFailoversCycleSwitches) {
    NeoDeployment d(fast_failover_opts());
    auto r1 = d.run_workload(1, 2);
    ASSERT_EQ(r1[0].size(), 2u);

    d.switches[0]->set_stall(true);
    auto r2 = d.run_workload(1, 2, d.sim.now() + 10 * sim::kSecond);
    ASSERT_EQ(r2[0].size(), 2u);

    d.switches[1]->set_stall(true);
    d.switches[0]->set_stall(false);  // pool wraps back to switch 0
    auto r3 = d.run_workload(1, 2, d.sim.now() + 10 * sim::kSecond);
    ASSERT_EQ(r3[0].size(), 2u);

    EXPECT_EQ(d.config->failovers_performed(), 2u);
    for (auto& rep : d.replicas) EXPECT_EQ(rep->view().epoch, 3u);
    d.expect_prefix_consistent();
}

TEST(NeoViewChange, SyncPointBoundsViewChangePayload) {
    // After syncs, view-change messages only carry the suffix.
    DeploymentOptions opts = fast_failover_opts();
    opts.protocol.sync_interval = 8;
    NeoDeployment d(opts);
    auto r1 = d.run_workload(2, 20);
    ASSERT_EQ(r1[0].size(), 20u);
    for (auto& rep : d.replicas) EXPECT_GE(rep->sync_point(), 32u);

    d.switches[0]->set_stall(true);
    auto r2 = d.run_workload(1, 2, d.sim.now() + 10 * sim::kSecond);
    ASSERT_EQ(r2[0].size(), 2u);
    d.expect_prefix_consistent();
}

}  // namespace
}  // namespace neo::neobft
