// Behaviour every baseline gets from LeaderReplica, checked on all four
// protocols: the client table answers a retransmitted request from its
// cached reply, a bad client MAC is ignored, and the checkpoint rule both
// fires on its boundaries and stays off at interval 0.
#include <gtest/gtest.h>

#include "baselines_test_util.hpp"

namespace neo::baselines {
namespace {

using testutil::drive;

template <typename ReplicaT>
class LeaderReplicaTest : public ::testing::Test {};

using Replicas = ::testing::Types<PbftReplica, ZyzzyvaReplica, HotStuffReplica, MinbftReplica>;

TYPED_TEST_SUITE(LeaderReplicaTest, Replicas);

std::uint64_t packets_received(const sim::ProcessingNode& node) {
    std::uint64_t n = 0;
    for (int kind = 0; kind < 256; ++kind) n += node.rx_count(static_cast<std::uint8_t>(kind));
    return n;
}

TYPED_TEST(LeaderReplicaTest, DuplicateRequestAnsweredFromCache) {
    testutil::Deployment<TypeParam> d;
    auto& client = d.add_client();
    std::vector<std::string> results;
    drive(client, 0, 0, 1, results);
    d.sim.run_until(sim::kSecond);
    ASSERT_EQ(results.size(), 1u);

    // Re-deliver the same request wire to the primary: no replica executes
    // it again, and the primary answers with its cached reply.
    const std::uint64_t received_before = packets_received(client);
    const Kind reply_kind =
        std::is_same_v<TypeParam, ZyzzyvaReplica> ? Kind::kSpecResponse : Kind::kReply;
    const std::uint64_t replies_before = client.rx_count(static_cast<std::uint8_t>(reply_kind));
    Request req;
    req.client = client.id();
    req.request_id = 1;
    req.op = to_bytes("op-0-0");
    req.mac = client.node_crypto().mac_for(1, req.signed_body());
    d.net.send(client.id(), 1, req.serialize());
    d.sim.run_until(d.sim.now() + sim::kSecond);

    for (auto& rep : d.replicas) EXPECT_EQ(rep->requests_executed(), 1u);
    EXPECT_EQ(packets_received(client), received_before + 1);
    EXPECT_EQ(client.rx_count(static_cast<std::uint8_t>(reply_kind)), replies_before + 1);
}

TYPED_TEST(LeaderReplicaTest, BadClientMacIgnored) {
    testutil::Deployment<TypeParam> d;
    // Register a node so the network can route from the client id.
    auto& client = d.add_client();
    Request req;
    req.client = client.id();
    req.request_id = 1;
    req.op = to_bytes("evil");
    req.mac = Bytes(8, 0x42);
    d.net.send(client.id(), 1, req.serialize());
    d.sim.run_until(sim::kSecond);
    for (auto& rep : d.replicas) EXPECT_EQ(rep->requests_executed(), 0u);
}

TYPED_TEST(LeaderReplicaTest, CheckpointsGarbageCollect) {
    BaseConfig base;
    base.checkpoint_interval = 4;
    base.batch_max = 1;  // one batch per request -> quick seq growth
    base.batch_delay = 10 * sim::kMicrosecond;
    testutil::Deployment<TypeParam> d(testutil::Deployment<TypeParam>::kDefaultReplicas, base);
    auto& client = d.add_client();
    std::vector<std::string> results;
    drive(client, 0, 0, 20, results);
    d.sim.run_until(10 * sim::kSecond);
    ASSERT_EQ(results.size(), 20u);
    for (auto& rep : d.replicas) EXPECT_GE(rep->checkpoints(), 3u);
}

TYPED_TEST(LeaderReplicaTest, CheckpointIntervalZeroTakesNoCheckpoint) {
    BaseConfig base;
    base.checkpoint_interval = 0;
    base.batch_max = 1;
    base.batch_delay = 10 * sim::kMicrosecond;
    testutil::Deployment<TypeParam> d(testutil::Deployment<TypeParam>::kDefaultReplicas, base);
    auto& client = d.add_client();
    std::vector<std::string> results;
    drive(client, 0, 0, 20, results);
    d.sim.run_until(10 * sim::kSecond);
    ASSERT_EQ(results.size(), 20u);
    for (auto& rep : d.replicas) {
        EXPECT_EQ(rep->requests_executed(), 20u);
        EXPECT_EQ(rep->executed_seq(), 20u);
        EXPECT_EQ(rep->checkpoints(), 0u);
    }
}

}  // namespace
}  // namespace neo::baselines
