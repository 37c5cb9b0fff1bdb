#include "baselines/minbft.hpp"

#include <gtest/gtest.h>

#include "baselines_test_util.hpp"
#include "crypto/sha256.hpp"

namespace neo::baselines {
namespace {

using MinbftDeployment = testutil::Deployment<MinbftReplica>;

TEST(Usig, CreatesMonotonicSequentialCounters) {
    Usig usig(1, 42);
    Digest32 d = crypto::sha256("m");
    auto ui1 = usig.create(d);
    auto ui2 = usig.create(d);
    EXPECT_EQ(ui1.counter, 1u);
    EXPECT_EQ(ui2.counter, 2u);
    EXPECT_NE(ui1.tag, ui2.tag);  // counter is part of the attestation
}

TEST(Usig, VerifiesAcrossInstances) {
    Usig a(7, 1), b(7, 2);
    Digest32 d = crypto::sha256("msg");
    auto ui = a.create(d);
    EXPECT_TRUE(b.verify(1, d, ui));
    EXPECT_FALSE(b.verify(2, d, ui));          // wrong claimed owner
    EXPECT_FALSE(b.verify(1, crypto::sha256("other"), ui));
    Usig::UI forged = ui;
    forged.counter += 1;
    EXPECT_FALSE(b.verify(1, d, forged));      // counter bound into the tag
}

TEST(Usig, DifferentSeedsIncompatible) {
    Usig a(7, 1), b(8, 1);
    Digest32 d = crypto::sha256("m");
    EXPECT_FALSE(b.verify(1, d, a.create(d)));
}

TEST(Minbft, SingleRequestCommitsWithThreeReplicas) {
    MinbftDeployment d;
    auto& client = d.add_client();
    std::vector<std::string> results;
    testutil::drive(client, 0, 0, 1, results);
    d.sim.run_until(sim::kSecond);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0], "op-0-0");
    for (auto& rep : d.replicas) EXPECT_EQ(rep->requests_executed(), 1u);
}

TEST(Minbft, SequentialWorkload) {
    MinbftDeployment d;
    auto& client = d.add_client();
    std::vector<std::string> results;
    testutil::drive(client, 0, 0, 20, results);
    d.sim.run_until(10 * sim::kSecond);
    ASSERT_EQ(results.size(), 20u);
}

TEST(Minbft, UsigCallsCharged) {
    MinbftDeployment d;
    auto& client = d.add_client();
    std::vector<std::string> results;
    testutil::drive(client, 0, 0, 4, results);
    d.sim.run_until(10 * sim::kSecond);
    ASSERT_EQ(results.size(), 4u);
    // Primary: 2 creates per batch (+commit verifies); backups: >= 2 calls.
    for (auto& rep : d.replicas) EXPECT_GE(rep->usig_calls(), 4u);
}

TEST(Minbft, ToleratesCrashedBackupWithFivereplicas) {
    MinbftDeployment d(5);  // f=2
    d.net.set_node_down(5, true);
    d.net.set_node_down(4, true);
    auto& client = d.add_client();
    std::vector<std::string> results;
    testutil::drive(client, 0, 0, 5, results);
    d.sim.run_until(10 * sim::kSecond);
    EXPECT_EQ(results.size(), 5u);
}

TEST(Minbft, ForgedPrepareRejected) {
    MinbftDeployment d;
    // A Byzantine backup (replica 2) forges a prepare pretending to be the
    // primary: backups must reject it (USIG tag won't verify for owner 1).
    std::vector<Request> batch;
    Request req;
    req.client = 400;
    req.request_id = 99;
    req.op = to_bytes("forged");
    batch.push_back(req);

    Usig rogue(testutil::kUsigSeed, 2);  // replica 2's own USIG
    Digest32 bd = batch_digest(batch);
    Writer pd(56);
    pd.str("minbft-prepare");
    pd.u64(0);
    pd.u64(1);
    pd.raw(BytesView(bd.data(), bd.size()));
    auto ui = rogue.create(crypto::sha256(pd.bytes()));

    MbPrepare m;
    m.view = 0;
    m.seq = 1;
    m.batch = batch;
    m.ui = ui;
    // Spoof: sent from node 2 but prepares must come from the primary (1).
    d.net.send(2, 3, m.serialize());
    d.sim.run_until(sim::kSecond);
    EXPECT_EQ(d.replicas[2]->requests_executed(), 0u);
}

TEST(Minbft, ReplayedPrepareRejected) {
    MinbftDeployment d;
    Bytes captured;
    d.net.set_tamper([&](NodeId from, NodeId to, Bytes& data) {
        if (from == 1 && to == 2 && !data.empty() &&
            data[0] == static_cast<std::uint8_t>(Kind::kMbPrepare) && captured.empty()) {
            captured = data;
        }
        return sim::TamperAction::kDeliver;
    });
    auto& client = d.add_client();
    std::vector<std::string> results;
    testutil::drive(client, 0, 0, 2, results);
    d.sim.run_until(10 * sim::kSecond);
    ASSERT_EQ(results.size(), 2u);
    ASSERT_FALSE(captured.empty());

    std::uint64_t before = d.replicas[1]->requests_executed();
    d.net.send(1, 2, captured);  // replay the first prepare
    d.sim.run_until(d.sim.now() + sim::kSecond);
    EXPECT_EQ(d.replicas[1]->requests_executed(), before);
}

}  // namespace
}  // namespace neo::baselines
