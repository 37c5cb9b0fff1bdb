// Byzantine replica behaviours: equivocation, forged protocol messages and
// garbage must never violate safety or block progress (f=1, N=4).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "neobft_test_util.hpp"

namespace neo::neobft {
namespace {

using testutil::DeploymentOptions;
using testutil::NeoDeployment;

TEST(NeoByzantine, GarbageFromReplicaIgnored) {
    NeoDeployment d;
    Rng rng(5);
    // Replica 4 sprays random protocol-kind bytes at everyone.
    for (int i = 0; i < 500; ++i) {
        Bytes junk = rng.bytes(1 + rng.uniform(100));
        junk[0] = static_cast<std::uint8_t>(0x20 + rng.uniform(18));
        d.net.send(4, 1 + rng.uniform(3) % 3, junk);
    }
    auto results = d.run_workload(2, 10);
    EXPECT_EQ(results[0].size(), 10u);
    EXPECT_EQ(results[1].size(), 10u);
    d.expect_prefix_consistent();
}

TEST(NeoByzantine, ForgedGapDropCannotCommitNoOp) {
    // A Byzantine replica sends gap-drop/gap-commit messages for a slot the
    // others committed normally; nothing must change.
    NeoDeployment d;
    auto results = d.run_workload(1, 3);
    ASSERT_EQ(results[0].size(), 3u);

    // Forge gap-commits claiming slot 2 dropped, "signed" with garbage.
    for (NodeId target : {1u, 2u, 3u}) {
        GapCommit forged;
        forged.view = {1, 0};
        forged.replica = 4;
        forged.slot = 2;
        forged.recv = false;
        forged.signature = Bytes(64, 0x42);
        d.net.send(4, target, forged.serialize());
    }
    d.sim.run_until(d.sim.now() + sim::kSecond);

    for (auto& rep : d.replicas) {
        ASSERT_GE(rep->log().size(), 3u);
        EXPECT_FALSE(rep->log().at(2).noop());
    }
    d.expect_prefix_consistent();
}

TEST(NeoByzantine, ForgedViewStartRejected) {
    NeoDeployment d;
    auto results = d.run_workload(1, 2);
    ASSERT_EQ(results[0].size(), 2u);

    // Replica 4 (not the leader of <1,1>) forges a VIEW-START for view
    // <1,1> with fabricated view-change messages.
    ViewStart vs;
    vs.new_view = {1, 1};
    for (NodeId r : {1u, 3u, 4u}) {
        ViewChange vc;
        vc.new_view = vs.new_view;
        vc.replica = r;
        vc.signature = Bytes(64, static_cast<std::uint8_t>(r));
        vs.msgs.push_back(vc);
    }
    vs.signature = Bytes(64, 0x99);
    for (NodeId target : {1u, 2u, 3u}) d.net.send(4, target, vs.serialize());
    d.sim.run_until(d.sim.now() + sim::kSecond);

    for (auto& rep : d.replicas) {
        EXPECT_EQ(rep->view(), (ViewId{1, 0})) << "forged view start accepted!";
    }
}

TEST(NeoByzantine, SingleViewChangeVoteDoesNotForceViewChange) {
    // One Byzantine replica repeatedly demands view changes; with a healthy
    // leader the probe finds it alive and nobody joins.
    NeoDeployment d;
    auto results = d.run_workload(1, 2);
    ASSERT_EQ(results[0].size(), 2u);

    for (int round = 0; round < 3; ++round) {
        ViewChange vc;
        vc.new_view = {1, static_cast<LeaderNum>(1 + round)};
        vc.replica = 4;
        vc.signature = Bytes(64, 0x01);  // invalid signature anyway
        for (NodeId target : {1u, 2u, 3u}) d.net.send(4, target, vc.serialize());
        d.sim.run_until(d.sim.now() + 100 * sim::kMillisecond);
    }
    for (std::size_t i = 0; i + 1 < d.replicas.size(); ++i) {
        EXPECT_EQ(d.replicas[i]->view(), (ViewId{1, 0}));
    }
    // System still live.
    auto more = d.run_workload(1, 2, d.sim.now() + 5 * sim::kSecond);
    EXPECT_EQ(more[0].size(), 2u);
}

TEST(NeoByzantine, ReplayedRequestsExecuteOnce) {
    NeoDeployment d;
    auto results = d.run_workload(1, 1);
    ASSERT_EQ(results[0].size(), 1u);
    std::uint64_t executed_before = d.replicas[0]->stats().requests_executed;

    // Capture the committed request from the log and replay it through aom.
    const auto& oc = d.replicas[0]->log().at(1).oc();
    aom::DataPacket replay;
    replay.group = NeoDeployment::kGroup;
    replay.payload = oc.payload;
    replay.digest = oc.digest;
    for (int i = 0; i < 5; ++i) {
        d.net.send(999, d.config->current_sequencer(NeoDeployment::kGroup), replay.serialize());
    }
    d.sim.run_until(d.sim.now() + sim::kSecond);

    for (auto& rep : d.replicas) {
        // Replays occupy log slots (aom sequenced them) but execute nothing.
        EXPECT_EQ(rep->stats().requests_executed, executed_before);
        EXPECT_EQ(rep->log().size(), 6u);
    }
    d.expect_prefix_consistent();
}

TEST(NeoByzantine, WrongViewGapMessagesIgnored) {
    NeoDeployment d;
    auto results = d.run_workload(1, 2);
    ASSERT_EQ(results[0].size(), 2u);

    // Gap messages claiming a future view must be ignored outright.
    GapFind find;
    find.view = {1, 5};
    find.slot = 1;
    find.signature = Bytes(64, 1);
    d.net.send(4, 2, find.serialize());

    GapDecision decision;
    decision.view = {3, 0};
    decision.slot = 1;
    decision.recv = false;
    decision.signature = Bytes(64, 2);
    d.net.send(4, 2, decision.serialize());

    d.sim.run_until(d.sim.now() + sim::kSecond);
    EXPECT_FALSE(d.replicas[1]->log().at(1).noop());
    EXPECT_EQ(d.replicas[1]->view(), (ViewId{1, 0}));
}

TEST(NeoByzantine, TamperedReplyMacRejectedByClient) {
    NeoDeployment d;
    // Corrupt every reply from replica 2 to clients; the client must still
    // commit with the other three replicas' replies.
    d.net.set_tamper([](NodeId from, NodeId to, Bytes& data) {
        if (from == 2 && to >= NeoDeployment::kClientBase && !data.empty() &&
            data[0] == static_cast<std::uint8_t>(MsgKind::kReply)) {
            data.back() ^= 0xff;
        }
        return sim::TamperAction::kDeliver;
    });
    auto results = d.run_workload(1, 5);
    EXPECT_EQ(results[0].size(), 5u);
}

}  // namespace
}  // namespace neo::neobft
