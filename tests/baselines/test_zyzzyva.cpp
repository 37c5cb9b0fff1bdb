#include "baselines/zyzzyva.hpp"

#include <gtest/gtest.h>

#include "baselines_test_util.hpp"

namespace neo::baselines {
namespace {

using ZyzzyvaDeployment = testutil::Deployment<ZyzzyvaReplica>;

TEST(Zyzzyva, FastPathWithAllReplicas) {
    ZyzzyvaDeployment d;
    auto& client = d.add_client();
    std::vector<std::string> results;
    testutil::drive(client, 0, 0, 10, results);
    d.sim.run_until(10 * sim::kSecond);
    ASSERT_EQ(results.size(), 10u);
    EXPECT_EQ(client.fast_commits(), 10u);
    EXPECT_EQ(client.slow_commits(), 0u);
    for (int i = 0; i < 10; ++i) EXPECT_EQ(results[static_cast<std::size_t>(i)], "op-0-" + std::to_string(i));
}

TEST(Zyzzyva, SlowPathWithSilentReplica) {
    // Zyzzyva-F: one silent replica means the fast path never completes.
    ZyzzyvaDeployment d;
    d.replicas[3]->set_silent(true);
    auto& client = d.add_client();
    std::vector<std::string> results;
    testutil::drive(client, 0, 0, 5, results);
    d.sim.run_until(10 * sim::kSecond);
    ASSERT_EQ(results.size(), 5u);
    EXPECT_EQ(client.fast_commits(), 0u);
    EXPECT_EQ(client.slow_commits(), 5u);
}

TEST(Zyzzyva, SlowPathSlowerThanFast) {
    ZyzzyvaDeployment fast;
    auto& cf = fast.add_client();
    std::vector<std::string> rf;
    testutil::drive(cf, 0, 0, 5, rf);
    fast.sim.run_until(10 * sim::kSecond);
    sim::Time fast_done = 0;
    // Re-measure: single op latency.
    ZyzzyvaDeployment f2;
    auto& c2 = f2.add_client();
    bool done2 = false;
    c2.invoke(to_bytes("x"), [&](Bytes) { done2 = true; });
    f2.sim.run();
    fast_done = f2.sim.now();

    ZyzzyvaDeployment slow;
    slow.replicas[3]->set_silent(true);
    auto& c3 = slow.add_client();
    bool done3 = false;
    c3.invoke(to_bytes("x"), [&](Bytes) { done3 = true; });
    slow.sim.run_until(10 * sim::kSecond);

    EXPECT_TRUE(done2);
    EXPECT_TRUE(done3);
    // Slow path includes the fast-path timeout + an extra round trip.
    EXPECT_GT(slow.sim.now(), 0);
    EXPECT_GT(c3.slow_commits(), 0u);
    EXPECT_GT(400 * sim::kMicrosecond + fast_done, fast_done);  // sanity
}

TEST(Zyzzyva, SpeculativeHistoryConsistent) {
    ZyzzyvaDeployment d;
    std::vector<std::vector<std::string>> results(3);
    for (int c = 0; c < 3; ++c) {
        auto& client = d.add_client();
        testutil::drive(client, c, 0, 10, results[static_cast<std::size_t>(c)]);
    }
    d.sim.run_until(10 * sim::kSecond);
    for (const auto& r : results) EXPECT_EQ(r.size(), 10u);
    // All replicas executed the same number of requests (same order implied
    // by the matching histories the clients verified).
    for (auto& rep : d.replicas) {
        EXPECT_EQ(rep->requests_executed(), 30u);
    }
}

TEST(Zyzzyva, BatchedThroughput) {
    BaseConfig base;
    base.batch_max = 8;
    ZyzzyvaDeployment d(4, base);
    std::vector<std::vector<std::string>> results(6);
    for (int c = 0; c < 6; ++c) {
        auto& client = d.add_client();
        testutil::drive(client, c, 0, 10, results[static_cast<std::size_t>(c)]);
    }
    d.sim.run_until(10 * sim::kSecond);
    for (const auto& r : results) EXPECT_EQ(r.size(), 10u);
    EXPECT_LT(d.replicas[1]->batches_ordered() + 60, 120u);
}

TEST(Zyzzyva, TamperedOrderReqRejected) {
    ZyzzyvaDeployment d;
    // Corrupt primary->replica2 order-req traffic: replica 2 then diverges
    // from the others, but clients still make progress via the slow path
    // with the 3 consistent replicas... with f=1 and 3f+1 needed for fast
    // path, fast path fails but 2f+1 slow path succeeds.
    d.net.set_tamper([](NodeId from, NodeId to, Bytes& data) {
        if (from == 1 && to == 2 && !data.empty() &&
            data[0] == static_cast<std::uint8_t>(Kind::kOrderReq)) {
            data.back() ^= 1;
        }
        return sim::TamperAction::kDeliver;
    });
    auto& client = d.add_client();
    std::vector<std::string> results;
    testutil::drive(client, 0, 0, 3, results);
    d.sim.run_until(10 * sim::kSecond);
    EXPECT_EQ(results.size(), 3u);
    // Replica 2 rejected the corrupted order-reqs.
    EXPECT_EQ(d.replicas[1]->requests_executed(), 0u);
}

}  // namespace
}  // namespace neo::baselines
