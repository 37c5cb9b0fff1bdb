// Randomized PDES stress: 200 generated scenarios sweeping every protocol
// family (NeoBFT HM/PK/BN, PBFT, Zyzzyva, HotStuff, MinBFT), topology
// sizes, packet drops, Byzantine tampering and sequencer failover — each
// scenario executed on the serial engine and with 2 and 8 partitions. The
// contract under test is the PDES tentpole: the trace byte stream and the
// full metrics snapshot (every protocol/network counter) must be identical
// for every thread count.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "harness/harness.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace neo::bench {
namespace {

struct Scenario {
    int proto;  // 0..2 neobft hm/pk/bn, 3 pbft, 4 zyzzyva, 5 hotstuff, 6 minbft
    int n_replicas;
    int n_clients;
    double drop_rate;
    bool tamper;    // Byzantine-network scenarios only
    bool failover;  // NeoBFT scenarios only
    std::uint64_t seed;
};

/// Scenario generator: a pure function of the index, so every thread-count
/// run rebuilds the exact same case and the sweep is reproducible from a
/// failing test name alone.
Scenario make_scenario(int index) {
    StreamRng rng(0x57e55, static_cast<std::uint64_t>(index));
    Scenario sc;
    sc.proto = static_cast<int>(rng.uniform(7));
    sc.n_replicas = sc.proto < 3 ? static_cast<int>(4 + 3 * rng.uniform(3))  // 4, 7, 10
                                 : static_cast<int>(4 + 3 * rng.uniform(2));
    sc.n_clients = static_cast<int>(2 + rng.uniform(3));
    const double rates[] = {0.0, 0.001, 0.01};
    sc.drop_rate = rates[rng.uniform(3)];
    sc.tamper = sc.proto == 2 && rng.chance(0.5);
    sc.failover = sc.proto < 3 && rng.chance(0.25);
    sc.seed = 7'000 + static_cast<std::uint64_t>(index);
    return sc;
}

std::unique_ptr<Deployment> build(const Scenario& sc, unsigned threads) {
    if (sc.proto < 3) {
        NeoParams p;
        p.n_replicas = sc.n_replicas;
        p.n_clients = sc.n_clients;
        p.seed = sc.seed;
        p.sim_threads = threads;
        p.drop_rate = sc.drop_rate;
        p.variant = sc.proto == 0   ? NeoVariant::kHm
                    : sc.proto == 1 ? NeoVariant::kPk
                                    : NeoVariant::kBn;
        if (sc.drop_rate > 0) p.receiver.gap_timeout = 200 * sim::kMicrosecond;
        return make_neobft(p);
    }
    CommonParams base;
    base.n_replicas = sc.n_replicas;
    base.n_clients = sc.n_clients;
    base.seed = sc.seed;
    base.sim_threads = threads;
    base.drop_rate = sc.drop_rate;
    switch (sc.proto) {
        case 3: return make_pbft(base);
        case 4: {
            ZyzzyvaParams p;
            static_cast<CommonParams&>(p) = base;
            return make_zyzzyva(p);
        }
        case 5: return make_hotstuff(base);
        default: return make_minbft(base);
    }
}

struct Outcome {
    std::string trace;
    std::string metrics;
    std::uint64_t completed = 0;
    std::uint64_t worker_windows = 0;  // host-side: which engine path ran
};

Outcome run_scenario(const Scenario& sc, unsigned threads) {
    auto d = build(sc, threads);
    obs::TraceSink sink;
    d->simulator().set_trace(&sink);
    obs::Registry reg;
    d->register_obs(reg, "run", &sink);

    if (sc.tamper) {
        // Deterministic corruption of a sparse pseudo-random packet subset.
        d->network().set_tamper([](NodeId from, NodeId to, Bytes& data) {
            std::uint64_t h = (from * 31 + to) * 1099511628211ull + data.size();
            if (h % 97 == 0 && !data.empty()) data.back() ^= 0xa5;
            return sim::TamperAction::kDeliver;
        });
    }
    if (sc.failover) {
        // Mid-measurement sequencer kill, injected as a global event so it
        // lands between windows on every engine.
        d->simulator().at_global(2 * sim::kMillisecond,
                                 [dep = d.get()] { dep->inject_sequencer_failure(); });
    }

    Measured m = run_closed_loop(*d, echo_ops(64), 1 * sim::kMillisecond, 3 * sim::kMillisecond);

    Outcome out;
    out.completed = m.completed;
    out.worker_windows = d->simulator().worker_windows();
    std::ostringstream ts;
    sink.write_jsonl(ts);
    out.trace = ts.str();
    std::ostringstream ms;
    reg.write_json(ms);
    // Fold the driver's measurements in with the counters.
    for (const auto& [k, v] : measured_metrics(m)) ms << k << "=" << v << "\n";
    out.metrics = ms.str();
    return out;
}

class PdesStress : public ::testing::TestWithParam<int> {};

TEST_P(PdesStress, TraceAndMetricsIdenticalAcrossThreadCounts) {
    const Scenario sc = make_scenario(GetParam());
    Outcome serial = run_scenario(sc, 1);
    ASSERT_FALSE(serial.trace.empty());
    for (unsigned threads : {2u, 8u}) {
        Outcome parallel = run_scenario(sc, threads);
        EXPECT_EQ(serial.trace, parallel.trace)
            << "proto=" << sc.proto << " threads=" << threads;
        EXPECT_EQ(serial.metrics, parallel.metrics)
            << "proto=" << sc.proto << " threads=" << threads;
        EXPECT_EQ(serial.completed, parallel.completed);
        // The comparison must cover the threaded path, not only windows
        // the engine chose to run inline.
        EXPECT_GT(parallel.worker_windows, 0u) << "threads=" << threads;
    }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, PdesStress, ::testing::Range(0, 200));

}  // namespace
}  // namespace neo::bench
