// Figure 10: maximum throughput of the replicated B-Tree key-value store
// under YCSB workload A (100K records, 128-byte fields) for every protocol.
#include <cstdio>
#include <memory>

#include "apps/kvstore.hpp"
#include "apps/ycsb.hpp"
#include "harness/runner.hpp"

using namespace neo;
using namespace neo::bench;

namespace {

constexpr int kClients = 64;

app::YcsbConfig ycsb_config(bool quick) {
    app::YcsbConfig cfg;
    cfg.record_count = quick ? 10'000 : 100'000;
    cfg.field_length = 128;
    return cfg;
}

// Per-replica state machine, one preloaded copy per replica (a shared
// template would break undo independence), for every protocol.
std::function<std::unique_ptr<app::StateMachine>()> kv_app_factory(
    const std::shared_ptr<app::YcsbWorkload>& workload) {
    return [workload] {
        auto sm = std::make_unique<app::KvStateMachine>();
        workload->load_into(*sm);
        return sm;
    };
}

OpGen ycsb_ops(const std::shared_ptr<app::YcsbWorkload>& base_cfg) {
    // One generator stream per client, deterministic. Generators are built
    // eagerly so the callback only ever touches its own client's entry —
    // clients on different simulator partitions run concurrently, and a
    // lazily-populated shared map would race.
    auto gens = std::make_shared<std::vector<std::shared_ptr<app::YcsbWorkload>>>();
    auto cfg = base_cfg->config();
    gens->reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        gens->push_back(std::make_shared<app::YcsbWorkload>(
            cfg, 1000 + static_cast<std::uint64_t>(c)));
    }
    return [gens](int client, std::uint64_t) {
        return (*gens)[static_cast<std::size_t>(client)]->next_op().serialize();
    };
}

struct Protocol {
    std::string name;
    std::string label;
    // Built inside the job: the workload template is per-run (load_into is
    // called from the deployment's constructor on the worker thread).
    std::function<std::unique_ptr<Deployment>(const std::shared_ptr<app::YcsbWorkload>& workload,
                                              const RunCtx& ctx)>
        make;
    bool trace_candidate = false;
};

/// Row parameters: every replica runs the preloaded KV store.
template <typename P>
P kv_params(const std::shared_ptr<app::YcsbWorkload>& workload, const RunCtx& ctx) {
    P p;
    p.n_clients = kClients;
    p.seed = ctx.seed();
    p.sim_threads = ctx.sim_threads();
    p.app_factory = kv_app_factory(workload);
    return p;
}

std::vector<Protocol> protocols() {
    using Workload = std::shared_ptr<app::YcsbWorkload>;
    auto neo = [](NeoVariant variant) {
        return [variant](const Workload& workload, const RunCtx& ctx) {
            auto p = kv_params<NeoParams>(workload, ctx);
            p.variant = variant;
            return make_neobft(p);
        };
    };
    return {
        {"Unreplicated", "unreplicated",
         [](const Workload&, const RunCtx& ctx) {
             CommonParams p;
             p.n_clients = kClients;
             p.seed = ctx.seed();
             p.sim_threads = ctx.sim_threads();
             // The unreplicated server echoes; it runs no state machine, so
             // the row is the echo service rate as an upper bound
             // (documented in EXPERIMENTS.md).
             return make_unreplicated(p);
         }},
        {"Neo-HM", "neo_hm", neo(NeoVariant::kHm), true},
        {"Neo-PK", "neo_pk", neo(NeoVariant::kPk)},
        {"Neo-BN", "neo_bn", neo(NeoVariant::kBn)},
        {"Zyzzyva", "zyzzyva",
         [](const Workload& workload, const RunCtx& ctx) {
             return make_zyzzyva(kv_params<ZyzzyvaParams>(workload, ctx));
         }},
        {"Zyzzyva-F", "zyzzyva_f",
         [](const Workload& workload, const RunCtx& ctx) {
             auto p = kv_params<ZyzzyvaParams>(workload, ctx);
             p.faulty_replica = true;
             return make_zyzzyva(p);
         }},
        {"PBFT", "pbft",
         [](const Workload& workload, const RunCtx& ctx) {
             return make_pbft(kv_params<CommonParams>(workload, ctx));
         }},
        {"HotStuff", "hotstuff",
         [](const Workload& workload, const RunCtx& ctx) {
             auto p = kv_params<CommonParams>(workload, ctx);
             p.batch_max = 32;
             return make_hotstuff(p);
         }},
        {"MinBFT", "minbft",
         [](const Workload& workload, const RunCtx& ctx) {
             return make_minbft(kv_params<CommonParams>(workload, ctx));
         }},
    };
}

}  // namespace

int main(int argc, char** argv) {
    BenchMain bm(argc, argv, "fig10_ycsb");
    std::printf("=== Figure 10: YCSB-A over the replicated B-Tree KV store ===\n");
    std::printf("%dK records, 128-byte fields, 50/50 read-update, zipfian\n\n",
                bm.quick() ? 10 : 100);

    const sim::Time warmup = bm.quick() ? 10 * sim::kMillisecond : 30 * sim::kMillisecond;
    const sim::Time measure = bm.quick() ? 40 * sim::kMillisecond : 120 * sim::kMillisecond;

    const std::vector<Protocol> protos = protocols();
    std::vector<BenchPointSpec> points;
    for (const Protocol& proto : protos) {
        points.push_back({
            proto.label,
            {{"clients", static_cast<double>(kClients)}},
            [&proto, &bm, warmup, measure](RunCtx& ctx) {
                auto workload =
                    std::make_shared<app::YcsbWorkload>(ycsb_config(bm.quick()), 17);
                auto d = proto.make(workload, ctx);
                auto obs = ctx.attach(*d);
                Measured m = run_closed_loop(*d, ycsb_ops(workload), warmup, measure);
                return std::map<std::string, double>{{"tput_ops", m.throughput_ops},
                                                     {"p50_us", m.p50_us},
                                                     {"p99_us", m.p99_us}};
            },
            proto.trace_candidate,
        });
    }
    std::vector<PointResult> results = bm.run(points);

    for (std::size_t i = 0; i < protos.size(); ++i) {
        std::printf("  %-28s %10.0f txns/s   (p50 %.1fus)\n", protos[i].name.c_str(),
                    results[i].mean("tput_ops"), results[i].mean("p50_us"));
    }

    std::printf("\npaper anchor: NeoBFT above all baselines; batching efficiency drops\n");
    std::printf("for the baselines with the larger KV requests\n");
    return 0;
}
