// Parallel-engine determinism: the conservative PDES drain must realise the
// exact event order of the serial engine — same node state, same network
// counters, same trace bytes — for any partition count. The workload here is
// a token ring with random jitter, drops and a Byzantine tamper hook, so
// every per-sender RNG stream and every mailbox path is exercised. Runs
// under the `tsan` label: it is the densest cross-partition traffic the
// suite generates.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace neo::sim {
namespace {

// Forwards a token around the ring until its hop budget (bytes 0-1, little
// endian) runs out; folds (arrival time, sender, payload) into a checksum
// only this node touches.
class RingNode : public Node {
  public:
    void configure(Network* net, NodeId next) {
        net_ = net;
        next_ = next;
    }

    void on_packet(NodeId from, const Packet& pkt) override {
        BytesView data = pkt.view();
        ++received;
        checksum = checksum * 1099511628211ull + static_cast<std::uint64_t>(sim().now());
        checksum = checksum * 1099511628211ull + from;
        for (std::uint8_t b : data) checksum = checksum * 1099511628211ull + b;
        if (data.size() < 2) return;
        const unsigned hops = data[0] | (data[1] << 8);
        if (hops == 0) return;
        Bytes fwd(data.begin(), data.end());
        fwd[0] = static_cast<std::uint8_t>((hops - 1) & 0xff);
        fwd[1] = static_cast<std::uint8_t>((hops - 1) >> 8);
        net_->send(id(), next_, Packet{std::move(fwd)});
    }

    std::uint64_t received = 0;
    std::uint64_t checksum = 1469598103934665603ull;

  private:
    Network* net_ = nullptr;
    NodeId next_ = 0;
};

struct Scenario {
    unsigned threads = 1;
    int ring = 7;  // deliberately not a multiple of the partition counts
    unsigned hops = 200;  // per token
    double drop_rate = 0.0;
    bool tamper = false;
    Time latency = 2 * kMicrosecond;
    Time jitter = 1 * kMicrosecond;
    std::uint64_t seed = 42;
    Time horizon = 20 * kMillisecond;
    Time step = 0;  // 0 = one run_until; else advance in increments
};

struct Fingerprint {
    std::vector<std::uint64_t> received;
    std::vector<std::uint64_t> checksums;
    std::uint64_t packets_sent = 0;
    std::uint64_t packets_delivered = 0;
    std::uint64_t packets_dropped = 0;
    std::uint64_t executed = 0;
    std::string trace;

    friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

// Host-side: where the parallel engine ran its windows. Never part of a
// Fingerprint, since it depends on measured host speed.
struct WindowCounts {
    std::uint64_t inline_windows = 0;
    std::uint64_t worker_windows = 0;
};

Fingerprint run_ring(const Scenario& sc, WindowCounts* windows = nullptr) {
    Simulator sim(sc.threads);
    obs::TraceSink sink;
    sim.set_trace(&sink);
    Network net(sim, sc.seed);
    LinkConfig link;
    link.latency = sc.latency;
    link.jitter = sc.jitter;
    net.set_default_link(link);
    net.set_global_drop_rate(sc.drop_rate);
    if (sc.tamper) {
        // Deterministic Byzantine hook: corrupt the tail byte of every
        // fifth packet (never bytes 0-1, which carry the hop budget).
        net.set_tamper([](NodeId from, NodeId to, Bytes& data) {
            if ((from + to + data.size()) % 5 == 0 && data.size() > 1) {
                data.back() ^= 0x5a;
            }
            return TamperAction::kDeliver;
        });
    }

    std::vector<RingNode> nodes(static_cast<std::size_t>(sc.ring));
    for (int i = 0; i < sc.ring; ++i) {
        net.add_node(nodes[static_cast<std::size_t>(i)], static_cast<NodeId>(i));
    }
    for (int i = 0; i < sc.ring; ++i) {
        nodes[static_cast<std::size_t>(i)].configure(&net,
                                                     static_cast<NodeId>((i + 1) % sc.ring));
    }
    // Several concurrent tokens per node: bytes 0-1 are the hop budget, the
    // rest is ballast the tamper hook can chew on.
    for (int i = 0; i < sc.ring; ++i) {
        for (int k = 0; k < 4; ++k) {
            Bytes token(16, static_cast<std::uint8_t>(i * 16 + k));
            token[0] = static_cast<std::uint8_t>(sc.hops & 0xff);
            token[1] = static_cast<std::uint8_t>(sc.hops >> 8);
            net.send(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % sc.ring),
                     Packet{std::move(token)});
        }
    }

    if (sc.step > 0) {
        for (Time t = sc.step; t <= sc.horizon; t += sc.step) sim.run_until(t);
    }
    sim.run_until(sc.horizon);

    Fingerprint fp;
    for (const auto& n : nodes) {
        fp.received.push_back(n.received);
        fp.checksums.push_back(n.checksum);
    }
    fp.packets_sent = net.packets_sent();
    fp.packets_delivered = net.packets_delivered();
    fp.packets_dropped = net.packets_dropped();
    fp.executed = sim.executed_events();
    if (windows != nullptr) *windows = {sim.inline_windows(), sim.worker_windows()};
    std::ostringstream os;
    sink.write_jsonl(os);
    fp.trace = os.str();
    return fp;
}

Scenario base() { return Scenario{}; }

TEST(PdesEngine, CleanRingIdenticalAcrossThreadCounts) {
    Scenario sc = base();
    Fingerprint serial = run_ring(sc);
    ASSERT_GT(serial.packets_delivered, 0u);
    ASSERT_FALSE(serial.trace.empty());
    for (unsigned threads : {2u, 3u, 8u}) {
        sc.threads = threads;
        EXPECT_EQ(serial, run_ring(sc)) << "threads=" << threads;
    }
}

TEST(PdesEngine, DropsAndTamperIdenticalAcrossThreadCounts) {
    Scenario sc = base();
    sc.drop_rate = 0.02;
    sc.tamper = true;
    sc.seed = 1234;
    Fingerprint serial = run_ring(sc);
    ASSERT_GT(serial.packets_dropped, 0u);
    for (unsigned threads : {2u, 8u}) {
        sc.threads = threads;
        EXPECT_EQ(serial, run_ring(sc)) << "threads=" << threads;
    }
}

TEST(PdesEngine, IncrementalRunUntilMatchesOneShot) {
    // Chopping virtual time into odd-sized slices parks events in the
    // carry-parity mailboxes across run_limit calls; results must not move.
    Scenario sc = base();
    sc.drop_rate = 0.01;
    sc.threads = 4;
    Fingerprint oneshot = run_ring(sc);
    sc.step = 777 * kMicrosecond;  // not window-aligned
    EXPECT_EQ(oneshot, run_ring(sc));
    sc.threads = 1;
    EXPECT_EQ(oneshot, run_ring(sc));
}

TEST(PdesEngine, LongRunUsesBothWindowModesAndMatchesSerial) {
    // Thousands of windows: the engine measures both window modes and keeps
    // re-probing the one not in favour, so a long multi-partition run
    // executes inline and worker windows whatever the host's speed.
    Scenario sc = base();
    sc.hops = 4000;
    WindowCounts windows;
    Fingerprint serial = run_ring(sc, &windows);
    EXPECT_EQ(windows.inline_windows + windows.worker_windows, 0u);
    sc.threads = 4;
    EXPECT_EQ(serial, run_ring(sc, &windows));
    EXPECT_GT(windows.inline_windows, 0u);
    EXPECT_GT(windows.worker_windows, 0u);
}

TEST(PdesEngine, SlicedRunUntilAcrossModeSwitchesMatchesOneShot) {
    // Odd slices end windows early and park events in the carry-parity
    // mailboxes between run_until calls, while the window mode keeps
    // switching between epochs: the result must match a one-shot run.
    Scenario sc = base();
    sc.hops = 4000;
    sc.tamper = true;
    sc.threads = 4;
    Fingerprint oneshot = run_ring(sc);
    sc.step = 333 * kMicrosecond;
    WindowCounts windows;
    EXPECT_EQ(oneshot, run_ring(sc, &windows));
    EXPECT_GT(windows.inline_windows, 0u);
    EXPECT_GT(windows.worker_windows, 0u);
    sc.threads = 1;
    EXPECT_EQ(oneshot, run_ring(sc));
}

TEST(PdesEngine, ZeroLookaheadFallsBackToSerialEngine) {
    // Zero-latency links give the conservative engine no lookahead; a
    // multi-partition simulator must quietly run the serial drain and still
    // match Simulator(1) exactly.
    Scenario sc = base();
    sc.latency = 0;
    sc.jitter = 0;
    Fingerprint serial = run_ring(sc);
    sc.threads = 8;
    EXPECT_EQ(serial, run_ring(sc));
}

TEST(PdesEngine, DifferentSeedsDiverge) {
    // The identity checks above are not vacuous: seeds steer jitter/drops.
    Scenario a = base();
    a.drop_rate = 0.02;
    Scenario b = a;
    b.seed = a.seed + 1;
    EXPECT_NE(run_ring(a), run_ring(b));
}

TEST(PdesEngine, GlobalEventsSeeQuiescedPartitions) {
    // at_global runs with every worker parked between windows: it must
    // observe all node events with t <= its own time, on any engine.
    for (unsigned threads : {1u, 4u}) {
        Simulator sim(threads);
        sim.set_lookahead(10);
        std::uint64_t before_mid = 0;
        // One event per virtual-time tick on each of 4 lanes for 100 ticks.
        for (NodeId n = 0; n < 4; ++n) {
            for (Time t = 1; t <= 100; ++t) sim.at_node(t, n, [] {});
        }
        sim.at_global(50, [&] { before_mid = sim.executed_events(); });
        sim.run();
        // All 4 * 50 node events at t <= 50 ran before the global (the
        // count includes the observing global itself).
        EXPECT_EQ(before_mid, 201u) << "threads=" << threads;
        EXPECT_EQ(sim.executed_events(), 401u) << "threads=" << threads;
    }
}

TEST(PdesEngine, NodeScheduledGlobalsRunAndReconfigure) {
    // A node event may hand cross-cutting work to a global (>= lookahead
    // ahead); the global runs between windows and may touch any partition's
    // state — here a shared counter no node event could safely own.
    for (unsigned threads : {1u, 4u}) {
        Simulator sim(threads);
        sim.set_lookahead(10);
        std::uint64_t shared = 0;
        for (NodeId n = 0; n < 4; ++n) {
            sim.at_node(5, n, [&sim, &shared] {
                sim.at_global(sim.now() + 10, [&shared] { ++shared; });
            });
        }
        sim.run();
        EXPECT_EQ(shared, 4u) << "threads=" << threads;
    }
}

}  // namespace
}  // namespace neo::sim
