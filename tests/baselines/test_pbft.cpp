#include "baselines/pbft.hpp"

#include <gtest/gtest.h>

#include "baselines_test_util.hpp"

namespace neo::baselines {
namespace {

using testutil::drive;

using PbftDeployment = testutil::Deployment<PbftReplica>;

TEST(Pbft, SingleRequestCommits) {
    PbftDeployment d;
    auto& client = d.add_client();
    std::vector<std::string> results;
    drive(client, 0, 0, 1, results);
    d.sim.run_until(sim::kSecond);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0], "op-0-0");
    for (auto& rep : d.replicas) {
        EXPECT_EQ(rep->requests_executed(), 1u);
        EXPECT_EQ(rep->executed_seq(), 1u);
    }
}

TEST(Pbft, SequentialWorkload) {
    PbftDeployment d;
    auto& client = d.add_client();
    std::vector<std::string> results;
    drive(client, 0, 0, 30, results);
    d.sim.run_until(10 * sim::kSecond);
    ASSERT_EQ(results.size(), 30u);
    for (int i = 0; i < 30; ++i) EXPECT_EQ(results[static_cast<std::size_t>(i)], "op-0-" + std::to_string(i));
}

TEST(Pbft, BatchingAmortisesAgreement) {
    BaseConfig base;
    base.batch_max = 8;
    base.batch_delay = 200 * sim::kMicrosecond;
    PbftDeployment d(4, base);
    std::vector<std::vector<std::string>> results(8);
    for (int c = 0; c < 8; ++c) {
        auto& client = d.add_client();
        drive(client, c, 0, 10, results[static_cast<std::size_t>(c)]);
    }
    d.sim.run_until(10 * sim::kSecond);
    for (const auto& r : results) EXPECT_EQ(r.size(), 10u);
    // 80 requests in far fewer batches than 80.
    EXPECT_LT(d.replicas[0]->batches_committed(), 40u);
    EXPECT_EQ(d.replicas[0]->requests_executed(), 80u);
}

TEST(Pbft, AllReplicasExecuteIdentically) {
    PbftDeployment d;
    std::vector<std::vector<std::string>> results(3);
    for (int c = 0; c < 3; ++c) {
        auto& client = d.add_client();
        drive(client, c, 0, 10, results[static_cast<std::size_t>(c)]);
    }
    d.sim.run_until(10 * sim::kSecond);
    for (auto& rep : d.replicas) {
        EXPECT_EQ(rep->requests_executed(), 30u);
        EXPECT_EQ(rep->executed_seq(), d.replicas[0]->executed_seq());
    }
}

TEST(Pbft, ToleratesSilentBackup) {
    PbftDeployment d;
    d.net.set_node_down(4, true);  // one backup crashes
    auto& client = d.add_client();
    std::vector<std::string> results;
    drive(client, 0, 0, 10, results);
    d.sim.run_until(10 * sim::kSecond);
    EXPECT_EQ(results.size(), 10u);
}

TEST(Pbft, SevenReplicas) {
    PbftDeployment d(7);
    d.net.set_node_down(6, true);
    d.net.set_node_down(7, true);  // f=2
    auto& client = d.add_client();
    std::vector<std::string> results;
    drive(client, 0, 0, 5, results);
    d.sim.run_until(10 * sim::kSecond);
    EXPECT_EQ(results.size(), 5u);
}

}  // namespace
}  // namespace neo::baselines
