// NeoBFT normal operation (§5.3): single-round-trip commitment with no
// cross-replica coordination.
#include <gtest/gtest.h>

#include "neobft_test_util.hpp"
#include "crypto/sha256.hpp"

namespace neo::neobft {
namespace {

using testutil::DeploymentOptions;
using testutil::NeoDeployment;

TEST(NeoNormal, SingleRequestCommits) {
    NeoDeployment d;
    auto results = d.run_workload(1, 1);
    ASSERT_EQ(results[0].size(), 1u);
    EXPECT_EQ(results[0][0], "op-0-0");  // echo app
    for (auto& rep : d.replicas) {
        EXPECT_EQ(rep->log().size(), 1u);
        EXPECT_EQ(rep->stats().requests_executed, 1u);
    }
    d.expect_prefix_consistent();
}

TEST(NeoNormal, NoCrossReplicaMessagesInCommonCase) {
    NeoDeployment d;
    // Count replica-to-replica packets with a tamper probe.
    std::uint64_t cross_replica = 0;
    auto is_replica = [](NodeId n) { return n >= 1 && n <= 4; };
    d.net.set_tamper([&](NodeId from, NodeId to, Bytes&) {
        if (is_replica(from) && is_replica(to)) ++cross_replica;
        return sim::TamperAction::kDeliver;
    });
    auto results = d.run_workload(2, 20);
    EXPECT_EQ(results[0].size(), 20u);
    EXPECT_EQ(results[1].size(), 20u);
    // 40 entries committed, below the sync boundary (128): the common case
    // exchanged NO replica-to-replica messages and signed nothing.
    EXPECT_EQ(cross_replica, 0u);
    for (auto& rep : d.replicas) {
        EXPECT_EQ(rep->node_crypto().meter().signs, 0u);
    }
}

TEST(NeoNormal, ClosedLoopSequentialResults) {
    NeoDeployment d;
    auto results = d.run_workload(1, 50);
    ASSERT_EQ(results[0].size(), 50u);
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(results[0][static_cast<std::size_t>(i)], "op-0-" + std::to_string(i));
    }
    d.expect_prefix_consistent();
}

TEST(NeoNormal, ManyClientsAllCommit) {
    NeoDeployment d;
    auto results = d.run_workload(8, 25);
    std::size_t total = 0;
    for (const auto& r : results) total += r.size();
    EXPECT_EQ(total, 200u);
    for (auto& rep : d.replicas) EXPECT_EQ(rep->log().size(), 200u);
    d.expect_prefix_consistent();
}

TEST(NeoNormal, AllReplicasExecuteSameOrder) {
    NeoDeployment d;
    d.run_workload(4, 10);
    const Log& ref = d.replicas[0]->log();
    for (auto& rep : d.replicas) {
        ASSERT_EQ(rep->log().size(), ref.size());
        for (std::uint64_t s = 1; s <= ref.size(); ++s) {
            EXPECT_EQ(rep->log().at(s).oc().digest, ref.at(s).oc().digest) << s;
        }
    }
}

TEST(NeoNormal, PkVariantCommits) {
    DeploymentOptions opts;
    opts.variant = aom::AuthVariant::kPublicKey;
    NeoDeployment d(opts);
    auto results = d.run_workload(2, 15);
    EXPECT_EQ(results[0].size(), 15u);
    EXPECT_EQ(results[1].size(), 15u);
    d.expect_prefix_consistent();
}

TEST(NeoNormal, ByzantineNetworkModeCommits) {
    DeploymentOptions opts;
    opts.trust = aom::NetworkTrust::kByzantine;
    NeoDeployment d(opts);
    auto results = d.run_workload(2, 10);
    EXPECT_EQ(results[0].size(), 10u);
    EXPECT_EQ(results[1].size(), 10u);
    d.expect_prefix_consistent();
}

TEST(NeoNormal, ToleratesSilentReplica) {
    // With f=1 and one silent (fail-silent) replica, clients still get
    // 2f+1 = 3 matching replies and commit at full speed.
    NeoDeployment d;
    d.net.set_node_down(d.replicas[3]->id(), true);
    auto results = d.run_workload(2, 20);
    EXPECT_EQ(results[0].size(), 20u);
    EXPECT_EQ(results[1].size(), 20u);
}

TEST(NeoNormal, SevenReplicasF2) {
    DeploymentOptions opts;
    opts.n_replicas = 7;
    NeoDeployment d(opts);
    d.net.set_node_down(d.replicas[5]->id(), true);
    d.net.set_node_down(d.replicas[6]->id(), true);
    auto results = d.run_workload(2, 10);
    EXPECT_EQ(results[0].size(), 10u);
    EXPECT_EQ(results[1].size(), 10u);
    d.expect_prefix_consistent();
}

TEST(NeoNormal, DuplicateSequencedRequestNotReExecuted) {
    // Force a client retry that results in the same request being sequenced
    // twice: drop all replies from all replicas to the client briefly.
    DeploymentOptions opts;
    opts.client.retry_timeout = 3 * sim::kMillisecond;
    NeoDeployment d(opts);
    bool drop_replies = true;
    d.net.set_tamper([&](NodeId from, NodeId to, Bytes&) {
        if (drop_replies && to >= NeoDeployment::kClientBase && from < 100) {
            return sim::TamperAction::kDrop;
        }
        return sim::TamperAction::kDeliver;
    });
    Client& client = d.add_client();
    std::vector<std::string> results;
    client.invoke(to_bytes("only-once"), [&](Bytes r) { results.push_back(to_string(r)); });
    d.sim.run_until(8 * sim::kMillisecond);  // at least one retry fired
    drop_replies = false;
    d.sim.run_until(sim::kSecond);

    ASSERT_EQ(results.size(), 1u);
    EXPECT_GE(client.retries(), 1u);
    for (auto& rep : d.replicas) {
        // The request may occupy several slots but executes exactly once.
        EXPECT_EQ(rep->stats().requests_executed, 1u);
    }
    d.expect_prefix_consistent();
}

TEST(NeoNormal, StateSyncCommitsPrefix) {
    DeploymentOptions opts;
    opts.protocol.sync_interval = 16;
    NeoDeployment d(opts);
    d.run_workload(4, 20);  // 80 entries -> several sync rounds
    for (auto& rep : d.replicas) {
        EXPECT_GE(rep->stats().syncs_completed, 4u);
        EXPECT_GE(rep->sync_point(), 64u);
        auto& echo = dynamic_cast<app::EchoApp&>(rep->app());
        EXPECT_GE(echo.committed(), 64u);
    }
}

TEST(NeoNormal, RepliesCarryMatchingLogHashes) {
    NeoDeployment d;
    d.run_workload(1, 5);
    // All replicas have identical hash chains.
    for (std::uint64_t s = 1; s <= 5; ++s) {
        Digest32 h = d.replicas[0]->log().hash_at(s);
        for (auto& rep : d.replicas) EXPECT_EQ(rep->log().hash_at(s), h);
    }
}

TEST(NeoNormal, InvalidClientSignatureNotExecuted) {
    NeoDeployment d;
    // Craft a request with a bogus signature and push it through aom
    // directly.
    Request req;
    req.client = 999;
    req.request_id = 1;
    req.op = to_bytes("forged");
    req.signature = Bytes(64, 0x66);
    aom::DataPacket pkt;
    pkt.group = NeoDeployment::kGroup;
    pkt.payload = req.serialize();
    pkt.digest = crypto::sha256(pkt.payload);
    d.net.send(999, d.config->current_sequencer(NeoDeployment::kGroup), pkt.serialize());
    d.sim.run_until(sim::kSecond);

    for (auto& rep : d.replicas) {
        // The slot exists (aom ordered it) but nothing executed.
        ASSERT_EQ(rep->log().size(), 1u);
        EXPECT_FALSE(rep->log().at(1).valid_request);
        EXPECT_EQ(rep->stats().requests_executed, 0u);
    }
    d.expect_prefix_consistent();
}

TEST(NeoNormal, ModeledCryptoModeWorks) {
    DeploymentOptions opts;
    opts.crypto_mode = crypto::CryptoMode::kModeled;
    NeoDeployment d(opts);
    auto results = d.run_workload(2, 10);
    EXPECT_EQ(results[0].size(), 10u);
    d.expect_prefix_consistent();
}

class NeoNormalMatrix
    : public ::testing::TestWithParam<std::tuple<aom::AuthVariant, aom::NetworkTrust, int>> {};

TEST_P(NeoNormalMatrix, CommitsAcrossConfigurations) {
    auto [variant, trust, n] = GetParam();
    DeploymentOptions opts;
    opts.variant = variant;
    opts.trust = trust;
    opts.n_replicas = n;
    NeoDeployment d(opts);
    auto results = d.run_workload(2, 8);
    EXPECT_EQ(results[0].size(), 8u);
    EXPECT_EQ(results[1].size(), 8u);
    d.expect_prefix_consistent();
}

std::string matrix_name(
    const ::testing::TestParamInfo<std::tuple<aom::AuthVariant, aom::NetworkTrust, int>>& info) {
    std::string name =
        std::get<0>(info.param) == aom::AuthVariant::kHmacVector ? "Hm" : "Pk";
    name += std::get<1>(info.param) == aom::NetworkTrust::kCrashOnly ? "Crash" : "Byz";
    name += std::to_string(std::get<2>(info.param));
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, NeoNormalMatrix,
    ::testing::Combine(::testing::Values(aom::AuthVariant::kHmacVector,
                                         aom::AuthVariant::kPublicKey),
                       ::testing::Values(aom::NetworkTrust::kCrashOnly,
                                         aom::NetworkTrust::kByzantine),
                       ::testing::Values(4, 7)),
    matrix_name);

}  // namespace
}  // namespace neo::neobft
