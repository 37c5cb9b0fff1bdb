// Full-stack integration: NeoBFT replicating the B-Tree key-value store
// under a YCSB-style workload, including speculative rollback of KV state.
#include <gtest/gtest.h>

#include "../neobft/neobft_test_util.hpp"
#include "apps/kvstore.hpp"
#include "apps/ycsb.hpp"

namespace neo::neobft {
namespace {

using testutil::DeploymentOptions;
using testutil::NeoDeployment;

DeploymentOptions kv_opts(const app::YcsbWorkload& workload) {
    DeploymentOptions opts;
    opts.protocol.sync_interval = 32;
    opts.app_factory = [&workload] {
        auto sm = std::make_unique<app::KvStateMachine>();
        workload.load_into(*sm);
        return sm;
    };
    return opts;
}

app::YcsbConfig small_dataset(std::uint64_t records = 100, std::size_t field = 16) {
    app::YcsbConfig cfg;
    cfg.record_count = records;
    cfg.field_length = field;
    return cfg;
}

void run_kv_stream(app::YcsbWorkload& workload, Client& client, int total,
                   std::vector<app::KvResult>& results) {
    // The chain holds itself weakly and its in-flight callback strongly, so
    // it is freed once the stream stops.
    auto issue = std::make_shared<std::function<void()>>();
    std::weak_ptr<std::function<void()>> self = issue;
    auto remaining = std::make_shared<int>(total);
    *issue = [&workload, &client, self, remaining, &results]() {
        if ((*remaining)-- <= 0) return;
        app::KvOp op = workload.next_op();
        client.invoke(op.serialize(), [loop = self.lock(), &results](Bytes res) {
            auto parsed = app::KvResult::parse(res);
            ASSERT_TRUE(parsed.has_value());
            results.push_back(*parsed);
            (*loop)();
        });
    };
    (*issue)();
}

TEST(KvReplication, KvOpsCommitAndReplicasAgree) {
    app::YcsbWorkload workload(small_dataset(), 17);
    NeoDeployment d(kv_opts(workload));
    Client& client = d.add_client();

    app::YcsbWorkload opgen(small_dataset(), 23);
    std::vector<app::KvResult> results;
    run_kv_stream(opgen, client, 60, results);
    d.sim.run_until(10 * sim::kSecond);

    ASSERT_EQ(results.size(), 60u);
    for (const auto& r : results) EXPECT_EQ(r.status, app::KvStatus::kOk);

    // All replicas hold identical stores with valid B-Tree structure.
    auto& ref = dynamic_cast<app::KvStateMachine&>(d.replicas[0]->app());
    for (auto& rep : d.replicas) {
        auto& sm = dynamic_cast<app::KvStateMachine&>(rep->app());
        EXPECT_EQ(sm.store().size(), ref.store().size());
        EXPECT_TRUE(sm.store().check_invariants());
    }
    auto& other = dynamic_cast<app::KvStateMachine&>(d.replicas[3]->app());
    ref.store().for_each([&](const Bytes& key, const Bytes& value) {
        const Bytes* v = other.store().get(key);
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, value);
    });
    d.expect_prefix_consistent();
}

TEST(KvReplication, ReadsObservePriorWrites) {
    app::YcsbWorkload workload(small_dataset(), 31);
    NeoDeployment d(kv_opts(workload));
    Client& client = d.add_client();

    app::KvOp put;
    put.type = app::KvOpType::kPut;
    put.key = to_bytes("balance");
    put.value = to_bytes("42");
    app::KvOp get;
    get.type = app::KvOpType::kGet;
    get.key = to_bytes("balance");

    std::vector<app::KvResult> results;
    client.invoke(put.serialize(), [&](Bytes res) {
        results.push_back(*app::KvResult::parse(res));
        client.invoke(get.serialize(), [&](Bytes res2) {
            results.push_back(*app::KvResult::parse(res2));
        });
    });
    d.sim.run_until(sim::kSecond);

    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].status, app::KvStatus::kOk);
    EXPECT_EQ(results[1].status, app::KvStatus::kOk);
    EXPECT_EQ(results[1].value, to_bytes("42"));
}

TEST(KvReplication, KvStateSurvivesRollback) {
    // Replica 2 speculatively executes a PUT that the rest commit as a
    // no-op: its B-Tree must be rolled back to match.
    app::YcsbWorkload workload(small_dataset(), 41);
    DeploymentOptions opts = kv_opts(workload);
    opts.receiver.gap_timeout = 500 * sim::kMicrosecond;
    NeoDeployment d(opts);

    bool drop_switch = true;
    d.net.set_tamper([&](NodeId from, NodeId to, Bytes& data) {
        if (drop_switch && from >= NeoDeployment::kSwitchBase &&
            (to == 1 || to == 3 || to == 4)) {
            return sim::TamperAction::kDrop;
        }
        if (from == 2 && !data.empty() &&
            (data[0] == static_cast<std::uint8_t>(MsgKind::kGapRecv) ||
             data[0] == static_cast<std::uint8_t>(MsgKind::kQueryReply))) {
            return sim::TamperAction::kDrop;
        }
        return sim::TamperAction::kDeliver;
    });

    Client& client = d.add_client();
    app::KvOp put;
    put.type = app::KvOpType::kPut;
    put.key = to_bytes("spec-key");
    put.value = to_bytes("spec-value");
    int done = 0;
    client.invoke(put.serialize(), [&](Bytes) { ++done; });

    d.sim.run_until(10 * sim::kMillisecond);
    drop_switch = false;
    d.sim.run_until(5 * sim::kSecond);

    EXPECT_EQ(done, 1);  // client retry eventually committed the op
    // Slot 1 is a no-op everywhere; the op landed in a later slot, so every
    // store agrees (and replica 2 performed a rollback in between).
    EXPECT_GE(d.replicas[1]->stats().rollbacks, 1u);
    auto& ref = dynamic_cast<app::KvStateMachine&>(d.replicas[0]->app());
    for (auto& rep : d.replicas) {
        auto& sm = dynamic_cast<app::KvStateMachine&>(rep->app());
        const Bytes* v = sm.store().get(to_bytes("spec-key"));
        ASSERT_NE(v, nullptr) << "replica " << rep->id();
        EXPECT_EQ(*v, to_bytes("spec-value"));
        EXPECT_EQ(sm.store().size(), ref.store().size());
    }
    d.expect_prefix_consistent();
}

TEST(KvReplication, FailoverPreservesKvState) {
    app::YcsbWorkload workload(small_dataset(), 51);
    DeploymentOptions opts = kv_opts(workload);
    opts.n_switches = 2;
    opts.protocol.view_change_timeout = 5 * sim::kMillisecond;
    opts.protocol.request_aom_timeout = 8 * sim::kMillisecond;
    opts.client.retry_timeout = 4 * sim::kMillisecond;
    NeoDeployment d(opts);
    Client& client = d.add_client();

    app::YcsbWorkload opgen(small_dataset(), 53);
    std::vector<app::KvResult> results;
    run_kv_stream(opgen, client, 20, results);
    d.sim.run_until(10 * sim::kSecond);
    ASSERT_EQ(results.size(), 20u);

    // Kill the sequencer mid-deployment; write through the new epoch.
    d.switches[0]->set_stall(true);
    app::KvOp put;
    put.type = app::KvOpType::kPut;
    put.key = to_bytes("post-failover");
    put.value = to_bytes("alive");
    bool done = false;
    client.invoke(put.serialize(), [&](Bytes) { done = true; });
    d.sim.run_until(d.sim.now() + 5 * sim::kSecond);

    EXPECT_TRUE(done);
    for (auto& rep : d.replicas) {
        EXPECT_EQ(rep->view().epoch, 2u);
        auto& sm = dynamic_cast<app::KvStateMachine&>(rep->app());
        const Bytes* v = sm.store().get(to_bytes("post-failover"));
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, to_bytes("alive"));
    }
    d.expect_prefix_consistent();
}

}  // namespace
}  // namespace neo::neobft
