#include "baselines/hotstuff.hpp"

#include <gtest/gtest.h>

#include "baselines_test_util.hpp"

namespace neo::baselines {
namespace {

using HotStuffDeployment = testutil::Deployment<HotStuffReplica>;

TEST(HotStuff, SingleRequestDecides) {
    HotStuffDeployment d;
    auto& client = d.add_client();
    std::vector<std::string> results;
    testutil::drive(client, 0, 0, 1, results);
    d.sim.run_until(sim::kSecond);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0], "op-0-0");
    for (auto& rep : d.replicas) {
        EXPECT_EQ(rep->batches_decided(), 1u);
        EXPECT_EQ(rep->requests_executed(), 1u);
    }
}

TEST(HotStuff, SequentialWorkload) {
    HotStuffDeployment d;
    auto& client = d.add_client();
    std::vector<std::string> results;
    testutil::drive(client, 0, 0, 20, results);
    d.sim.run_until(30 * sim::kSecond);
    ASSERT_EQ(results.size(), 20u);
    for (int i = 0; i < 20; ++i) {
        EXPECT_EQ(results[static_cast<std::size_t>(i)], "op-0-" + std::to_string(i));
    }
}

TEST(HotStuff, MultipleClientsBatch) {
    BaseConfig base;
    base.batch_max = 8;
    HotStuffDeployment d(4, base);
    std::vector<std::vector<std::string>> results(8);
    for (int c = 0; c < 8; ++c) {
        auto& client = d.add_client();
        testutil::drive(client, c, 0, 5, results[static_cast<std::size_t>(c)]);
    }
    d.sim.run_until(30 * sim::kSecond);
    for (const auto& r : results) EXPECT_EQ(r.size(), 5u);
    EXPECT_LT(d.replicas[0]->batches_decided(), 40u);
}

TEST(HotStuff, ToleratesSilentFollower) {
    HotStuffDeployment d;
    d.net.set_node_down(4, true);
    auto& client = d.add_client();
    std::vector<std::string> results;
    testutil::drive(client, 0, 0, 5, results);
    d.sim.run_until(10 * sim::kSecond);
    EXPECT_EQ(results.size(), 5u);
}

TEST(HotStuff, CorruptedVoteDoesNotCount) {
    HotStuffDeployment d;
    // Corrupt replica 2's votes on the wire: the leader must discard them,
    // still reaching the 2f+1 quorum from {leader, 3, 4}.
    d.net.set_tamper([](NodeId from, NodeId to, Bytes& data) {
        if (from == 2 && to == 1 && !data.empty() &&
            data[0] == static_cast<std::uint8_t>(Kind::kHsVote)) {
            data.back() ^= 1;
        }
        return sim::TamperAction::kDeliver;
    });
    auto& client = d.add_client();
    std::vector<std::string> results;
    testutil::drive(client, 0, 0, 3, results);
    d.sim.run_until(10 * sim::kSecond);
    EXPECT_EQ(results.size(), 3u);
}

TEST(HotStuff, HigherLatencyThanPhasesImply) {
    // Sanity on the phase structure: a single request takes at least 4
    // protocol round trips (propose/vote x3 + decide), i.e. clearly longer
    // than one network RTT.
    HotStuffDeployment d;
    auto& client = d.add_client();
    sim::Time start = d.sim.now();
    bool done = false;
    client.invoke(to_bytes("x"), [&](Bytes) { done = true; });
    d.sim.run_until(sim::kSecond);
    ASSERT_TRUE(done);
    // 8+ one-way delays at ~2.25us each plus batch delay (100us default).
    EXPECT_GT(d.sim.now() - start, 100 * sim::kMicrosecond);
}

}  // namespace
}  // namespace neo::baselines
