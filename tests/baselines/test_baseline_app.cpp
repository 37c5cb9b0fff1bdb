// Baseline replicas (PBFT, Zyzzyva, HotStuff, MinBFT) run app::StateMachine
// like NeoBFT, installed through CommonParams::app_factory: every replica
// executes each op exactly once, the simulator charges the app's own
// execute_cost_ns, and commit_prefix keeps pace with execution so a
// stateful app's undo history never piles up.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/state_machine.hpp"
#include "harness/harness.hpp"

namespace neo::bench {
namespace {

/// Per-replica record of what the replica asked of its app.
struct AppLog {
    std::map<std::string, int> executions;  // op -> times executed
    std::uint64_t lagging_executes = 0;     // executes with uncommitted history
    std::uint64_t executed = 0;
    std::uint64_t committed = 0;
};

/// Echo app that records every execute and commit into an AppLog.
class CountingApp : public app::EchoApp {
  public:
    CountingApp(AppLog* log, std::int64_t cost_ns) : log_(log), cost_ns_(cost_ns) {}

    Bytes execute(BytesView op) override {
        if (committed() != executed()) ++log_->lagging_executes;
        ++log_->executions[to_string(Bytes(op.begin(), op.end()))];
        Bytes out = EchoApp::execute(op);
        log_->executed = executed();
        return out;
    }
    void commit_prefix(std::uint64_t n) override {
        EchoApp::commit_prefix(n);
        log_->committed = n;
    }
    std::int64_t execute_cost_ns(BytesView) const override { return cost_ns_; }

  private:
    AppLog* log_;
    std::int64_t cost_ns_;
};

struct AppRun {
    std::unique_ptr<Deployment> d;
    std::vector<std::unique_ptr<AppLog>> logs;  // one per replica
    int ops = 0;
};

/// Builds `proto` with counting apps and drives `clients` closed-loop
/// clients through `per_client` unique ops each, then lets stragglers
/// drain.
AppRun drive(const std::string& proto, int clients, int per_client, std::int64_t cost_ns) {
    AppRun r;
    CommonParams p;
    p.n_clients = clients;
    p.seed = 31;
    p.app_factory = [&r, cost_ns] {
        r.logs.push_back(std::make_unique<AppLog>());
        return std::make_unique<CountingApp>(r.logs.back().get(), cost_ns);
    };
    if (proto == "pbft") r.d = make_pbft(p);
    if (proto == "zyzzyva") r.d = make_zyzzyva(ZyzzyvaParams{p});
    if (proto == "hotstuff") r.d = make_hotstuff(p);
    if (proto == "minbft") r.d = make_minbft(p);

    Deployment& d = *r.d;
    auto issue = std::make_shared<std::function<void(int, int)>>();
    *issue = [&d, issue, per_client](int c, int k) {
        if (k == per_client) return;
        d.invoke(c, to_bytes("op-" + std::to_string(c) + "-" + std::to_string(k)),
                 [issue, c, k](Bytes) { (*issue)(c, k + 1); });
    };
    for (int c = 0; c < clients; ++c) (*issue)(c, 0);
    d.simulator().run_until(d.simulator().now() + 200 * sim::kMillisecond);
    *issue = nullptr;  // break the closure's reference to itself
    r.ops = clients * per_client;
    return r;
}

class BaselineApp : public ::testing::TestWithParam<std::string> {};

TEST_P(BaselineApp, EveryReplicaExecutesEachOpOnceAndCommitsIt) {
    AppRun r = drive(GetParam(), 4, 25, 300);
    ASSERT_EQ(r.logs.size(), r.d->replica_ids().size());
    for (const auto& log : r.logs) {
        EXPECT_EQ(log->executions.size(), static_cast<std::size_t>(r.ops));
        for (const auto& [op, n] : log->executions) EXPECT_EQ(n, 1) << op;
        EXPECT_EQ(log->executed, static_cast<std::uint64_t>(r.ops));
        EXPECT_EQ(log->committed, log->executed);
        EXPECT_EQ(log->lagging_executes, 0u);
    }
}

TEST_P(BaselineApp, ChargesTheAppExecutionCost) {
    // One client, one request in flight: every batch holds one request, so
    // the message pattern is the same at any execution cost and the CPU
    // time difference is exactly the app's charge on every replica.
    constexpr std::int64_t kCost = 10'000;
    AppRun cheap = drive(GetParam(), 1, 20, 0);
    AppRun dear = drive(GetParam(), 1, 20, kCost);
    const auto executions = static_cast<sim::Time>(dear.ops * dear.logs.size());
    EXPECT_EQ(dear.d->network().total_cpu_busy() - cheap.d->network().total_cpu_busy(),
              kCost * executions);
}

INSTANTIATE_TEST_SUITE_P(AllBaselines, BaselineApp,
                         ::testing::Values("pbft", "zyzzyva", "hotstuff", "minbft"));

}  // namespace
}  // namespace neo::bench
