#include "sim/network.hpp"

#include <gtest/gtest.h>

#include "common/codec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace neo::sim {
namespace {

class RecorderNode : public Node {
  public:
    struct Received {
        NodeId from;
        Bytes data;
        Time at;
    };
    void on_packet(NodeId from, const Packet& pkt) override {
        BytesView data = pkt.view();
        received.push_back({from, Bytes(data.begin(), data.end()), sim().now()});
    }
    std::vector<Received> received;
};

class NetworkTest : public ::testing::Test {
  protected:
    NetworkTest() : net(sim, /*seed=*/1) {
        LinkConfig cfg;
        cfg.latency = 1000;
        cfg.jitter = 0;
        cfg.ns_per_byte = 0.0;
        net.set_default_link(cfg);
        net.add_node(a, 1);
        net.add_node(b, 2);
        net.add_node(c, 3);
    }

    Simulator sim;
    Network net;
    RecorderNode a, b, c;
};

TEST_F(NetworkTest, DeliversWithLinkLatency) {
    net.send(1, 2, to_bytes("hi"));
    sim.run();
    ASSERT_EQ(b.received.size(), 1u);
    EXPECT_EQ(b.received[0].from, 1u);
    EXPECT_EQ(to_string(b.received[0].data), "hi");
    EXPECT_EQ(b.received[0].at, 1000);
}

TEST_F(NetworkTest, SerializationDelayScalesWithSize) {
    LinkConfig cfg = net.default_link();
    cfg.ns_per_byte = 1.0;
    net.set_default_link(cfg);
    net.send(1, 2, Bytes(500, 0));
    sim.run();
    ASSERT_EQ(b.received.size(), 1u);
    EXPECT_EQ(b.received[0].at, 1500);
}

TEST_F(NetworkTest, JitterBoundsDeliveryTime) {
    LinkConfig cfg = net.default_link();
    cfg.jitter = 200;
    net.set_default_link(cfg);
    for (int i = 0; i < 100; ++i) net.send(1, 2, to_bytes("x"));
    sim.run();
    ASSERT_EQ(b.received.size(), 100u);
    for (const auto& r : b.received) {
        EXPECT_GE(r.at, 1000);
        EXPECT_LT(r.at, 1200);
    }
}

TEST_F(NetworkTest, PerLinkOverride) {
    LinkConfig slow;
    slow.latency = 9000;
    slow.jitter = 0;
    slow.ns_per_byte = 0;
    net.set_link(1, 3, slow);
    net.send(1, 2, to_bytes("fast"));
    net.send(1, 3, to_bytes("slow"));
    sim.run();
    ASSERT_EQ(b.received.size(), 1u);
    ASSERT_EQ(c.received.size(), 1u);
    EXPECT_EQ(b.received[0].at, 1000);
    EXPECT_EQ(c.received[0].at, 9000);
}

TEST_F(NetworkTest, DropRateLosesPackets) {
    LinkConfig cfg = net.default_link();
    cfg.drop_rate = 0.5;
    net.set_default_link(cfg);
    for (int i = 0; i < 1000; ++i) net.send(1, 2, to_bytes("x"));
    sim.run();
    EXPECT_GT(b.received.size(), 350u);
    EXPECT_LT(b.received.size(), 650u);
    EXPECT_EQ(net.packets_dropped() + net.packets_delivered(), 1000u);
}

TEST_F(NetworkTest, GlobalDropRateAddsToLinkRate) {
    net.set_global_drop_rate(1.0);
    net.send(1, 2, to_bytes("x"));
    sim.run();
    EXPECT_TRUE(b.received.empty());
    EXPECT_EQ(net.packets_dropped(), 1u);
}

TEST_F(NetworkTest, BlockedLinkDeliversNothing) {
    net.block(1, 2);
    net.send(1, 2, to_bytes("x"));
    net.send(2, 1, to_bytes("y"));  // reverse direction unaffected
    sim.run();
    EXPECT_TRUE(b.received.empty());
    ASSERT_EQ(a.received.size(), 1u);
    net.unblock(1, 2);
    net.send(1, 2, to_bytes("x"));
    sim.run();
    EXPECT_EQ(b.received.size(), 1u);
}

TEST_F(NetworkTest, DownNodeNeitherSendsNorReceives) {
    net.set_node_down(2, true);
    net.send(1, 2, to_bytes("to-down"));
    net.send(2, 1, to_bytes("from-down"));
    sim.run();
    EXPECT_TRUE(b.received.empty());
    EXPECT_TRUE(a.received.empty());

    net.set_node_down(2, false);
    net.send(1, 2, to_bytes("back"));
    sim.run();
    EXPECT_EQ(b.received.size(), 1u);
}

TEST_F(NetworkTest, NodeGoingDownMidFlightDropsDelivery) {
    net.send(1, 2, to_bytes("x"));
    sim.run_until(500);
    net.set_node_down(2, true);
    sim.run();
    EXPECT_TRUE(b.received.empty());
}

TEST_F(NetworkTest, TamperHookCanMutate) {
    net.set_tamper([](NodeId, NodeId, Bytes& data) {
        if (!data.empty()) data[0] ^= 0xff;
        return TamperAction::kDeliver;
    });
    net.send(1, 2, Bytes{0x00, 0x42});
    sim.run();
    ASSERT_EQ(b.received.size(), 1u);
    EXPECT_EQ(b.received[0].data[0], 0xff);
    EXPECT_EQ(b.received[0].data[1], 0x42);
}

TEST_F(NetworkTest, TamperHookCanDrop) {
    net.set_tamper([](NodeId from, NodeId, Bytes&) {
        return from == 1 ? TamperAction::kDrop : TamperAction::kDeliver;
    });
    net.send(1, 2, to_bytes("x"));
    net.send(3, 2, to_bytes("y"));
    sim.run();
    ASSERT_EQ(b.received.size(), 1u);
    EXPECT_EQ(b.received[0].from, 3u);
}

TEST_F(NetworkTest, SendAtDefersDeparture) {
    sim.at(0, [&] { net.send_at(5000, 1, 2, to_bytes("later")); });
    sim.run();
    ASSERT_EQ(b.received.size(), 1u);
    EXPECT_EQ(b.received[0].at, 6000);
}

TEST_F(NetworkTest, CountersTrackTraffic) {
    net.send(1, 2, Bytes(10, 0));
    net.send(1, 3, Bytes(20, 0));
    sim.run();
    EXPECT_EQ(net.packets_sent(), 2u);
    EXPECT_EQ(net.packets_delivered(), 2u);
    EXPECT_EQ(net.bytes_sent(), 30u);
    EXPECT_EQ(net.delivered_to(2), 1u);
    EXPECT_EQ(net.delivered_to(3), 1u);
    net.reset_counters();
    EXPECT_EQ(net.packets_sent(), 0u);
    EXPECT_EQ(net.delivered_to(2), 0u);
}

TEST_F(NetworkTest, DeterministicAcrossRuns) {
    // Two identically seeded networks produce identical delivery schedules.
    Simulator sim2;
    Network net2(sim2, /*seed=*/1);
    LinkConfig cfg;
    cfg.latency = 1000;
    cfg.jitter = 300;
    net2.set_default_link(cfg);
    cfg.ns_per_byte = 0;
    RecorderNode a2, b2;
    net2.add_node(a2, 1);
    net2.add_node(b2, 2);

    LinkConfig cfg1 = cfg;
    net.set_default_link(cfg1);
    for (int i = 0; i < 50; ++i) {
        net.send(1, 2, to_bytes("m"));
        net2.send(1, 2, to_bytes("m"));
    }
    sim.run();
    sim2.run();
    ASSERT_EQ(b.received.size(), b2.received.size());
    for (std::size_t i = 0; i < b.received.size(); ++i) {
        EXPECT_EQ(b.received[i].at, b2.received[i].at);
    }
}

TEST_F(NetworkTest, SendToUnknownNodeCountsDrop) {
    net.send(1, 99, to_bytes("void"));
    sim.run();
    EXPECT_EQ(net.packets_dropped(), 1u);
    EXPECT_EQ(net.dropped_for(obs::DropReason::kNoRoute), 1u);
}

TEST_F(NetworkTest, DropReasonAttribution) {
    // Link loss.
    net.set_global_drop_rate(1.0);
    net.send(1, 2, to_bytes("x"));
    sim.run();
    EXPECT_EQ(net.dropped_for(obs::DropReason::kLinkLoss), 1u);
    net.set_global_drop_rate(0.0);

    // Partition.
    net.block(1, 2);
    net.send(1, 2, to_bytes("x"));
    sim.run();
    EXPECT_EQ(net.dropped_for(obs::DropReason::kPartitioned), 1u);
    net.unblock(1, 2);

    // Down sender, down receiver (at send time the sender check wins; the
    // receiver is only consulted at arrival).
    net.set_node_down(2, true);
    net.send(2, 1, to_bytes("x"));
    net.send(1, 2, to_bytes("x"));
    sim.run();
    EXPECT_EQ(net.dropped_for(obs::DropReason::kSenderDown), 1u);
    EXPECT_EQ(net.dropped_for(obs::DropReason::kReceiverDown), 1u);
    net.set_node_down(2, false);

    // Tamper hook.
    net.set_tamper([](NodeId, NodeId, Bytes&) { return TamperAction::kDrop; });
    net.send(1, 2, to_bytes("x"));
    sim.run();
    EXPECT_EQ(net.dropped_for(obs::DropReason::kTampered), 1u);
    net.set_tamper(nullptr);

    // Every drop is attributed to exactly one reason.
    std::uint64_t by_reason = 0;
    for (std::size_t i = 0; i < static_cast<std::size_t>(obs::DropReason::kCount_); ++i) {
        by_reason += net.dropped_for(static_cast<obs::DropReason>(i));
    }
    EXPECT_EQ(by_reason, net.packets_dropped());
    EXPECT_EQ(net.packets_dropped(), 5u);
    EXPECT_EQ(net.packets_sent(), 5u);
    EXPECT_EQ(net.packets_delivered(), 0u);
}

TEST_F(NetworkTest, ReceiverDownMidFlightAttributedAtArrival) {
    net.send(1, 2, to_bytes("x"));
    sim.run_until(500);
    net.set_node_down(2, true);
    sim.run();
    EXPECT_EQ(net.dropped_for(obs::DropReason::kReceiverDown), 1u);
    EXPECT_EQ(net.packets_delivered(), 0u);
}

TEST_F(NetworkTest, TransitTimeAccumulatesPerDelivery) {
    net.send(1, 2, Bytes(10, 0));
    net.send(1, 3, Bytes(10, 0));
    sim.run();
    // Zero jitter / zero ns_per_byte fixture: each delivery spent exactly
    // the link latency in flight.
    EXPECT_EQ(net.transit_time(), 2000);
    net.reset_counters();
    EXPECT_EQ(net.transit_time(), 0);
}

TEST_F(NetworkTest, RegisterMetricsPublishesCountersAndDropReasons) {
    obs::Registry reg;
    net.register_metrics(reg, "net");

    net.block(1, 2);
    net.send(1, 2, to_bytes("x"));  // dropped: partitioned
    net.send(1, 3, to_bytes("y"));  // delivered
    sim.run();

    auto snap = reg.snapshot();
    EXPECT_EQ(snap.at("net.packets_sent"), 2.0);
    EXPECT_EQ(snap.at("net.packets_delivered"), 1.0);
    EXPECT_EQ(snap.at("net.packets_dropped"), 1.0);
    EXPECT_EQ(snap.at("net.drops.partitioned"), 1.0);
    EXPECT_EQ(snap.at("net.delivered_to.3"), 1.0);
    // Zero-valued drop reasons are omitted from the dump, and so are
    // attached nodes that received nothing.
    EXPECT_FALSE(snap.contains("net.drops.link_loss"));
    EXPECT_FALSE(snap.contains("net.delivered_to.1"));
    EXPECT_FALSE(snap.contains("net.delivered_to.2"));

    // After a reset, deliveries count again from zero. (A registry keeps
    // every value it was ever given, so a fresh one shows what is gone.)
    net.reset_counters();
    net.send(1, 3, to_bytes("z"));
    net.send(3, 1, to_bytes("w"));
    sim.run();
    obs::Registry fresh;
    net.register_metrics(fresh, "net");
    snap = fresh.snapshot();
    EXPECT_EQ(snap.at("net.packets_delivered"), 2.0);
    EXPECT_EQ(snap.at("net.delivered_to.3"), 1.0);
    EXPECT_EQ(snap.at("net.delivered_to.1"), 1.0);
    EXPECT_FALSE(snap.contains("net.delivered_to.2"));
    EXPECT_FALSE(snap.contains("net.drops.partitioned"));
}

TEST_F(NetworkTest, TraceRecordsDropReason) {
    obs::TraceSink sink;
    sim.set_trace(&sink);
    net.set_global_drop_rate(1.0);
    net.send(1, 2, to_bytes("x"));
    sim.run();
    sim.set_trace(nullptr);

    ASSERT_EQ(sink.size(), 1u);
    const obs::TraceEvent& e = sink.events()[0];
    EXPECT_EQ(e.kind, obs::EventKind::kPacketDrop);
    EXPECT_EQ(e.node, 1u);
    EXPECT_STREQ(e.label, obs::drop_reason_name(obs::DropReason::kLinkLoss));
}

}  // namespace
}  // namespace neo::sim
