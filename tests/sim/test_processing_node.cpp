#include "sim/processing_node.hpp"

#include <gtest/gtest.h>

#include "common/codec.hpp"

namespace neo::sim {
namespace {

// Echoes every packet back to its sender; optionally charges extra cost.
class EchoNode : public ProcessingNode {
  public:
    explicit EchoNode(ProcessingConfig cfg = {}) : ProcessingNode(cfg) {}
    Time extra_cost = 0;
    int handled = 0;

    void handle(NodeId from, BytesView data) override {
        ++handled;
        charge(extra_cost);
        send_to(from, Bytes(data.begin(), data.end()));
    }

    using ProcessingNode::invalidate_timers;
    using ProcessingNode::set_meter;
};

class SinkNode : public Node {
  public:
    std::vector<Time> arrivals;
    void on_packet(NodeId, const Packet&) override { arrivals.push_back(sim().now()); }
};

class ProcessingNodeTest : public ::testing::Test {
  protected:
    ProcessingNodeTest() : net(sim, 3) {
        LinkConfig cfg;
        cfg.latency = 1000;
        cfg.jitter = 0;
        cfg.ns_per_byte = 0;
        net.set_default_link(cfg);

        ProcessingConfig pc;
        pc.recv_overhead_ns = 100;
        pc.send_overhead_ns = 50;
        pc.timer_overhead_ns = 10;
        pc.io_ns_per_byte = 0;  // keep the exact-timing assertions size-free
        echo.set_processing_config(pc);
        net.add_node(echo, 1);
        net.add_node(sink, 2);
    }

    Simulator sim;
    Network net;
    EchoNode echo;
    SinkNode sink;
};

TEST_F(ProcessingNodeTest, EchoTiming) {
    // send at 0, arrive at 1000, processing 100 (recv) + 50 (send),
    // reply departs 1150, arrives 2150.
    net.send(2, 1, to_bytes("ping"));
    sim.run();
    ASSERT_EQ(sink.arrivals.size(), 1u);
    EXPECT_EQ(sink.arrivals[0], 2150);
}

TEST_F(ProcessingNodeTest, QueueingDelaysBackToBackMessages) {
    echo.extra_cost = 1000;  // each message takes 1150ns of CPU
    net.send(2, 1, to_bytes("a"));
    net.send(2, 1, to_bytes("b"));
    sim.run();
    ASSERT_EQ(sink.arrivals.size(), 2u);
    // First: arrive 1000, busy until 2150, reply arrives 3150.
    EXPECT_EQ(sink.arrivals[0], 3150);
    // Second: arrives 1000 but waits until 2150, done 3300, arrives 4300.
    EXPECT_EQ(sink.arrivals[1], 4300);
}

TEST_F(ProcessingNodeTest, ThroughputLimitedByServiceTime) {
    echo.extra_cost = 10'000;
    for (int i = 0; i < 100; ++i) net.send(2, 1, to_bytes("x"));
    sim.run();
    EXPECT_EQ(echo.handled, 100);
    // 100 messages x ~10.15us service => last reply no earlier than ~1ms.
    EXPECT_GE(sink.arrivals.back(), 100 * 10'000);
}

TEST_F(ProcessingNodeTest, BusyTimeAccumulates) {
    net.send(2, 1, to_bytes("a"));
    net.send(2, 1, to_bytes("b"));
    sim.run();
    EXPECT_EQ(echo.busy_time(), 2 * (100 + 50));
    EXPECT_EQ(echo.messages_handled(), 2u);
}

TEST_F(ProcessingNodeTest, MeterSyncCostExtendsBusyTime) {
    class MeteredNode : public ProcessingNode {
      public:
        crypto::CostMeter meter;
        MeteredNode() {
            ProcessingConfig pc;
            pc.recv_overhead_ns = 100;
            pc.send_overhead_ns = 0;
            pc.io_ns_per_byte = 0;
            set_processing_config(pc);
            set_meter(&meter);
        }
        void handle(NodeId from, BytesView) override {
            meter.charge(5'000);
            send_to(from, to_bytes("r"));
        }
    };
    MeteredNode metered;
    net.add_node(metered, 4);
    net.send(2, 4, to_bytes("q"));
    sim.run();
    EXPECT_EQ(metered.busy_time(), 5'100);
    ASSERT_EQ(sink.arrivals.size(), 1u);
    EXPECT_EQ(sink.arrivals[0], 1000 + 5'100 + 1000);
}

TEST_F(ProcessingNodeTest, AsyncCostDelaysOutputNotCpu) {
    class AsyncNode : public ProcessingNode {
      public:
        crypto::CostMeter meter;
        AsyncNode() {
            ProcessingConfig pc;
            pc.recv_overhead_ns = 100;
            pc.send_overhead_ns = 0;
            pc.io_ns_per_byte = 0;
            set_processing_config(pc);
            set_meter(&meter);
        }
        void handle(NodeId from, BytesView) override {
            meter.charge_async(10'000);
            send_to(from, to_bytes("r"));
        }
    };
    AsyncNode async_node;
    net.add_node(async_node, 5);
    net.send(2, 5, to_bytes("q"));
    net.send(2, 5, to_bytes("q2"));
    sim.run();
    ASSERT_EQ(sink.arrivals.size(), 2u);
    // First reply: arrive 1000 + 100 sync + 10000 async + 1000 link = 12100.
    EXPECT_EQ(sink.arrivals[0], 12'100);
    // Second message processed right after the first's sync window (CPU free
    // at 1100), NOT after the async completes.
    EXPECT_EQ(sink.arrivals[1], 12'200);
}

TEST_F(ProcessingNodeTest, TimerFiresThroughCostMachinery) {
    std::vector<Time> fired;
    echo.set_timer(700, [&] { fired.push_back(sim.now()); });
    sim.run();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0], 700);
    EXPECT_EQ(echo.busy_time(), 10);  // timer overhead
}

TEST_F(ProcessingNodeTest, CancelledTimerDoesNotFire) {
    bool fired = false;
    auto tid = echo.set_timer(700, [&] { fired = true; });
    echo.cancel_timer(tid);
    sim.run();
    EXPECT_FALSE(fired);
}

TEST_F(ProcessingNodeTest, TimerWaitsBehindBusyCpu) {
    echo.extra_cost = 10'000;
    std::vector<Time> fired;
    net.send(2, 1, to_bytes("work"));  // arrives 1000, busy until 11150
    echo.set_timer(1500, [&] { fired.push_back(sim.now()); });
    sim.run();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0], 11'150);
}

TEST_F(ProcessingNodeTest, TimerOnDownNodeDoesNotFire) {
    bool fired = false;
    echo.set_timer(500, [&] { fired = true; });
    net.set_node_down(1, true);
    sim.run();
    EXPECT_FALSE(fired);
}

TEST_F(ProcessingNodeTest, TimerArmedUntilCallbackStarts) {
    ProcessingNode::TimerId tid = 0;
    bool armed_inside = true;
    tid = echo.set_timer(700, [&] { armed_inside = echo.timer_armed(tid); });
    EXPECT_NE(tid, 0u);
    EXPECT_TRUE(echo.timer_armed(tid));
    sim.run_until(699);
    EXPECT_TRUE(echo.timer_armed(tid));
    sim.run();
    EXPECT_FALSE(armed_inside);
    EXPECT_FALSE(echo.timer_armed(tid));
}

TEST_F(ProcessingNodeTest, CancelWhileFiredTaskWaitsBehindBusyCpu) {
    echo.extra_cost = 10'000;
    bool fired = false;
    net.send(2, 1, to_bytes("work"));  // arrives 1000, busy until 11150
    auto tid = echo.set_timer(1500, [&] { fired = true; });
    sim.run_until(5'000);  // fired at 1500; its task waits for the CPU
    EXPECT_TRUE(echo.timer_armed(tid));
    echo.cancel_timer(tid);
    EXPECT_FALSE(echo.timer_armed(tid));
    sim.run();
    EXPECT_FALSE(fired);
    EXPECT_FALSE(echo.timer_armed(tid));
}

TEST_F(ProcessingNodeTest, TimerDroppedWhileDownIsNotArmedAfterRecovery) {
    bool fired = false;
    auto tid = echo.set_timer(500, [&] { fired = true; });
    net.set_node_down(1, true);
    sim.run_until(1'000);
    net.set_node_down(1, false);
    EXPECT_FALSE(echo.timer_armed(tid));
    sim.run();
    EXPECT_FALSE(fired);
}

TEST_F(ProcessingNodeTest, InvalidatedTimerAndIdZeroAreNotArmed) {
    EXPECT_FALSE(echo.timer_armed(0));
    bool fired = false;
    auto before = echo.set_timer(500, [&] { fired = true; });
    echo.invalidate_timers();
    EXPECT_FALSE(echo.timer_armed(before));
    auto after = echo.set_timer(500, [] {});
    EXPECT_TRUE(echo.timer_armed(after));
    sim.run();
    EXPECT_FALSE(fired);
    EXPECT_FALSE(echo.timer_armed(before));
}

TEST_F(ProcessingNodeTest, SendOutsideTaskGoesImmediately) {
    class InitSender : public ProcessingNode {
      public:
        void handle(NodeId, BytesView) override {}
        void poke(NodeId to) { send_to(to, to_bytes("init")); }
    };
    InitSender init;
    net.add_node(init, 7);
    sim.at(100, [&] { init.poke(2); });
    sim.run();
    ASSERT_EQ(sink.arrivals.size(), 1u);
    EXPECT_EQ(sink.arrivals[0], 1100);
}

TEST_F(ProcessingNodeTest, BroadcastCountsPerDestinationSendCost) {
    class Broadcaster : public ProcessingNode {
      public:
        Broadcaster() {
            ProcessingConfig pc;
            pc.recv_overhead_ns = 100;
            pc.send_overhead_ns = 50;
            pc.io_ns_per_byte = 0;
            set_processing_config(pc);
        }
        void handle(NodeId, BytesView) override { broadcast({2, 8, 9}, to_bytes("b")); }
    };
    Broadcaster bc;
    SinkNode s8, s9;
    net.add_node(bc, 6);
    net.add_node(s8, 8);
    net.add_node(s9, 9);
    net.send(2, 6, to_bytes("go"));
    sim.run();
    // 100 recv + 3x50 send = 250 busy.
    EXPECT_EQ(bc.busy_time(), 250);
    EXPECT_EQ(sink.arrivals.size(), 1u);
    EXPECT_EQ(s8.arrivals.size(), 1u);
    EXPECT_EQ(s9.arrivals.size(), 1u);
}

}  // namespace
}  // namespace neo::sim
