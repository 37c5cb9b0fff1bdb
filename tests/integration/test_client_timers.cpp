// Client and replica timers under the harness deployments: every client's
// retry timer recovers a lost request, Zyzzyva's fast-path timer stays one
// per request under load, and a baseline primary re-arms its batch-flush
// timer after a fail-silent window swallowed the last one.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>

#include "harness/harness.hpp"
#include "obs/trace.hpp"

namespace neo::bench {
namespace {

// At 128 clients most Zyzzyva requests queue past the 400 us fast-path
// timeout and take the slow path. Each request arms one fast_path timer, so
// fires cannot outnumber requests; a timer that re-arms itself until the
// slow path resolves (and outlives its request) would.
TEST(ZyzzyvaTimers, FastPathFiresStayWithinRequests) {
    ZyzzyvaParams p;
    p.n_clients = 128;
    p.seed = 42;
    auto d = make_zyzzyva(p);
    obs::TraceSink sink;
    sink.set_kind_mask(obs::kind_bit(obs::EventKind::kTimerFire) | obs::kSpanKindMask);
    d->simulator().set_trace(&sink);
    Measured m = run_closed_loop(*d, echo_ops(64), sim::kMillisecond, 10 * sim::kMillisecond);
    d->simulator().set_trace(nullptr);

    std::size_t fires = 0;
    std::size_t requests = 0;
    for (const obs::TraceEvent& e : sink.events()) {
        if (e.kind == obs::EventKind::kTimerFire && std::string_view(e.label) == "fast_path") {
            ++fires;
        } else if (e.kind == obs::EventKind::kSpanBegin && std::string_view(e.label) == "request") {
            ++requests;
        }
    }
    ASSERT_GT(m.completed, 0u);
    ASSERT_GT(fires, 0u) << "no request took the slow path";
    EXPECT_LE(fires, requests);
}

struct LostRequest {
    const char* name;
    /// Leading packets of the client that the network drops: its first
    /// request, and for "2" also the first retry's copy to the primary
    /// (backups ignore requests they have not executed).
    int drops;
    sim::Time retry_timeout;
};

void PrintTo(const LostRequest& r, std::ostream* os) { *os << r.name; }

std::unique_ptr<Deployment> build(const std::string& name, const CommonParams& c) {
    if (name == "neo_hm") {
        NeoParams p;
        static_cast<CommonParams&>(p) = c;
        return make_neobft(p);
    }
    if (name == "zyzzyva") {
        ZyzzyvaParams p;
        static_cast<CommonParams&>(p) = c;
        return make_zyzzyva(p);
    }
    if (name == "pbft") return make_pbft(c);
    if (name == "minbft") return make_minbft(c);
    return make_unreplicated(c);
}

class ClientRetry : public ::testing::TestWithParam<LostRequest> {};

// Each retry re-sends the request, so losing the first `drops` copies delays
// completion by `drops` retry timeouts and never stalls the client.
TEST_P(ClientRetry, RecoversLostRequest) {
    const LostRequest& row = GetParam();
    CommonParams c;
    c.n_clients = 1;
    c.seed = 3;
    auto d = build(row.name, c);
    constexpr NodeId kClient = 1'000;  // the harness numbers clients from 1000
    auto left = std::make_shared<int>(row.drops);
    d->network().set_tamper([left](NodeId from, NodeId, Bytes&) {
        if (from != kClient || *left == 0) return sim::TamperAction::kDeliver;
        --*left;
        return sim::TamperAction::kDrop;
    });

    sim::Time done_at = -1;
    d->invoke(0, to_bytes("lost-once"), [&](Bytes) { done_at = d->simulator().now(); });
    d->simulator().run_until(sim::kSecond);

    const sim::Time due = row.drops * row.retry_timeout;
    ASSERT_GE(done_at, 0) << row.name << " never completed";
    EXPECT_GE(done_at, due);
    EXPECT_LT(done_at, due + sim::kMillisecond);
}

INSTANTIATE_TEST_SUITE_P(
    Clients, ClientRetry,
    ::testing::Values(LostRequest{"neo_hm", 1, 10 * sim::kMillisecond},
                      LostRequest{"pbft", 2, 20 * sim::kMillisecond},
                      LostRequest{"zyzzyva", 2, 20 * sim::kMillisecond},
                      LostRequest{"unreplicated", 1, 20 * sim::kMillisecond}),
    [](const ::testing::TestParamInfo<LostRequest>& info) { return std::string(info.param.name); });

class LeaderOutage : public ::testing::TestWithParam<const char*> {};

// The primary is down for 1 ms across a batch_flush deadline, so the node
// drops that timer. Its batcher must see the timer as gone and arm a new
// one; otherwise every later batch waits for client retries to fill it and
// a 120 ms window completes a handful of requests.
TEST_P(LeaderOutage, BatchTimerResumesAfterFailSilentWindow) {
    CommonParams c;
    c.n_clients = 4;
    c.seed = 42;
    auto d = build(GetParam(), c);
    const NodeId primary = d->replica_ids().front();
    sim::Network& net = d->network();
    d->simulator().at_global(50'040 * sim::kMicrosecond,
                             [&net, primary] { net.set_node_down(primary, true); });
    d->simulator().at_global(51'040 * sim::kMicrosecond,
                             [&net, primary] { net.set_node_down(primary, false); });
    Measured m = run_closed_loop(*d, echo_ops(64), 80 * sim::kMillisecond,
                                 120 * sim::kMillisecond);
    EXPECT_GT(m.completed, 1'000u);
}

// HotStuff is left out: it sends each proposal and vote once, so a slot whose
// messages fell in the outage never commits, whatever its batch timer does.
INSTANTIATE_TEST_SUITE_P(Baselines, LeaderOutage, ::testing::Values("pbft", "zyzzyva", "minbft"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                             return std::string(info.param);
                         });

}  // namespace
}  // namespace neo::bench
