#include "baselines/common.hpp"
#include "baselines/minbft.hpp"

#include <gtest/gtest.h>

#include "baselines_test_util.hpp"
#include "crypto/sha256.hpp"

namespace neo::baselines {
namespace {

TEST(BaselineWire, RequestRoundTrip) {
    Request m;
    m.client = 5;
    m.request_id = 9;
    m.op = to_bytes("put k v");
    m.mac = Bytes(8, 0xaa);
    Bytes wire = m.serialize();
    Reader r(BytesView(wire).subspan(1));
    Request q = Request::parse(r);
    EXPECT_EQ(q.client, 5u);
    EXPECT_EQ(q.op, m.op);
    EXPECT_EQ(q.mac, m.mac);
}

TEST(BaselineWire, ReplyRoundTrip) {
    Reply m;
    m.view = 2;
    m.replica = 3;
    m.request_id = 4;
    m.result = to_bytes("ok");
    m.mac = Bytes(8, 0xbb);
    Bytes wire = m.serialize();
    Reader r(BytesView(wire).subspan(1));
    Reply q = Reply::parse(r);
    EXPECT_EQ(q.view, 2u);
    EXPECT_EQ(q.result, m.result);
}

TEST(BaselineWire, BatchRoundTrip) {
    std::vector<Request> batch;
    for (int i = 0; i < 5; ++i) {
        Request req;
        req.client = static_cast<NodeId>(100 + i);
        req.request_id = static_cast<std::uint64_t>(i);
        req.op = to_bytes("op" + std::to_string(i));
        batch.push_back(req);
    }
    MbPrepare m;
    m.batch = batch;
    Bytes wire = m.serialize();
    Reader r(BytesView(wire).subspan(1));
    std::vector<Request> back = MbPrepare::parse(r).batch;
    ASSERT_EQ(back.size(), 5u);
    EXPECT_EQ(back[3].client, 103u);
    EXPECT_EQ(batch_digest(batch), batch_digest(back));
}

TEST(BaselineWire, BatchDigestOrderSensitive) {
    Request a, b;
    a.client = 1;
    a.op = to_bytes("a");
    b.client = 2;
    b.op = to_bytes("b");
    EXPECT_NE(batch_digest({a, b}), batch_digest({b, a}));
}

TEST(Batcher, SealBySize) {
    // Pin the threshold by making min == max: classic fixed-size sealing.
    Batcher b(sim::AdaptiveBatchPolicy{3, 3, sim::kMillisecond});
    for (int i = 0; i < 2; ++i) {
        Request r;
        b.add(r);
        EXPECT_FALSE(b.should_seal_by_size());
    }
    Request r;
    b.add(r);
    EXPECT_TRUE(b.should_seal_by_size());
    auto batch = b.seal();
    EXPECT_EQ(batch.size(), 3u);
    EXPECT_TRUE(b.empty());
}

TEST(Batcher, AdaptiveThresholdTracksLoad) {
    Batcher b(sim::AdaptiveBatchPolicy{1, 8, sim::kMillisecond});
    EXPECT_EQ(b.controller().target(), 1u);

    // Size seals double the threshold up to the cap.
    for (std::size_t expect : {2u, 4u, 8u, 8u}) {
        while (!b.should_seal_by_size()) b.add(Request{});
        b.seal();
        EXPECT_EQ(b.controller().target(), expect);
    }

    // Timer flushes at under half the threshold halve it down to the floor.
    b.add(Request{});
    b.seal();  // 1 < 8/2
    EXPECT_EQ(b.controller().target(), 4u);
    b.add(Request{});
    b.add(Request{});
    b.seal();  // 2 == 4/2: not underfull enough, threshold holds
    EXPECT_EQ(b.controller().target(), 4u);
    b.add(Request{});
    b.seal();  // 1 < 4/2
    EXPECT_EQ(b.controller().target(), 2u);
    EXPECT_EQ(b.controller().seals(), 7u);
    EXPECT_EQ(b.controller().size_seals(), 4u);
    EXPECT_EQ(b.controller().timer_seals(), 3u);
}

TEST(BaseConfig, PrimaryRotationAndHelpers) {
    BaseConfig cfg;
    cfg.replicas = {10, 20, 30, 40};
    cfg.f = 1;
    EXPECT_EQ(cfg.primary(0), 10u);
    EXPECT_EQ(cfg.primary(5), 20u);
    EXPECT_TRUE(cfg.is_replica(30));
    EXPECT_FALSE(cfg.is_replica(31));
    EXPECT_EQ(cfg.others(10).size(), 3u);
}

TEST(Unreplicated, EchoRoundTrip) {
    sim::Simulator sim;
    sim::Network net(sim, 3);
    net.set_default_link(sim::datacenter_link());
    crypto::TrustRoot root(crypto::CryptoMode::kReal, 4);

    UnreplicatedServer server(root.provision(1));
    net.add_node(server, 1);
    UnreplicatedClient client(1, root.provision(400));
    net.add_node(client, 400);

    std::vector<std::string> results;
    testutil::drive(client, 0, 0, 10, results);
    sim.run_until(sim::kSecond);
    ASSERT_EQ(results.size(), 10u);
    EXPECT_EQ(results[7], "op-0-7");
    EXPECT_EQ(server.handled(), 10u);
}

TEST(Unreplicated, BadMacIgnored) {
    sim::Simulator sim;
    sim::Network net(sim, 3);
    net.set_default_link(sim::datacenter_link());
    crypto::TrustRoot root(crypto::CryptoMode::kReal, 4);
    UnreplicatedServer server(root.provision(1));
    net.add_node(server, 1);
    UnreplicatedClient client(1, root.provision(400));
    net.add_node(client, 400);

    net.set_tamper([](NodeId, NodeId to, Bytes& data) {
        if (to == 1 && data.size() > 4) data.back() ^= 1;
        return sim::TamperAction::kDeliver;
    });
    bool done = false;
    client.invoke(to_bytes("x"), [&](Bytes) { done = true; });
    sim.run_until(sim::kSecond);
    EXPECT_FALSE(done);
    EXPECT_EQ(server.handled(), 0u);
}

}  // namespace
}  // namespace neo::baselines
