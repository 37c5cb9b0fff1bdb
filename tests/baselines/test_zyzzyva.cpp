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
    // Commit times are read in the callbacks: after sim.run() the clock
    // stands at the last (cancelled) timer, not at the commit.
    ZyzzyvaDeployment fast;
    auto& cf = fast.add_client();
    sim::Time fast_done = -1;
    cf.invoke(to_bytes("x"), [&](Bytes) { fast_done = fast.sim.now(); });
    fast.sim.run();

    ZyzzyvaDeployment slow;
    slow.replicas[3]->set_silent(true);
    auto& cs = slow.add_client();
    sim::Time slow_done = -1;
    cs.invoke(to_bytes("x"), [&](Bytes) { slow_done = slow.sim.now(); });
    slow.sim.run();

    ASSERT_GT(fast_done, 0);
    ASSERT_GT(slow_done, 0);
    EXPECT_EQ(cf.fast_commits(), 1u);
    EXPECT_EQ(cs.slow_commits(), 1u);
    // The slow path waits out the fast-path timeout, then takes one more
    // round trip for the commit certificate.
    EXPECT_LT(fast_done, ZyzzyvaClient::kFastPathTimeout);
    EXPECT_GT(slow_done, ZyzzyvaClient::kFastPathTimeout);
    EXPECT_GT(slow_done, fast_done);
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
