// Replicated key-value store demo (the paper's §6.5 application): a B-Tree
// KV store behind NeoBFT, loaded with a YCSB dataset and driven by a mixed
// read/update workload.
//
//   ./build/examples/kvstore_demo
#include <cstdio>

#include "aom/config_service.hpp"
#include "apps/kvstore.hpp"
#include "apps/ycsb.hpp"
#include "neobft/client.hpp"
#include "neobft/replica.hpp"

using namespace neo;

int main() {
    std::printf("NeoBFT replicated KV store: 10K records, YCSB-A style workload\n\n");

    sim::Simulator sim;
    sim::Network net(sim, 1);
    net.set_default_link(sim::datacenter_link());
    crypto::TrustRoot root(crypto::CryptoMode::kReal, 2);
    aom::AomKeyService keys(3);

    neobft::Config cfg;
    cfg.replicas = {1, 2, 3, 4};
    cfg.f = 1;
    cfg.group = 7;
    cfg.config_service = 100;

    aom::GroupConfig group;
    group.group = 7;
    group.variant = aom::AuthVariant::kPublicKey;  // signature-authenticated ordering
    group.f = 1;
    group.receivers = cfg.replicas;

    aom::SequencerSwitch sequencer({}, root.provision(200), &keys);
    net.add_node(sequencer, 200);
    aom::ConfigService config({&sequencer});
    net.add_node(config, 100);
    config.register_group(group);

    app::YcsbConfig ycfg;
    ycfg.record_count = 10'000;
    ycfg.field_length = 64;
    app::YcsbWorkload dataset(ycfg, 11);

    std::vector<std::unique_ptr<neobft::Replica>> replicas;
    for (NodeId rid : cfg.replicas) {
        auto sm = std::make_unique<app::KvStateMachine>();
        dataset.load_into(*sm);
        auto rep = std::make_unique<neobft::Replica>(cfg, root.provision(rid), &keys,
                                                     std::move(sm));
        net.add_node(*rep, rid);
        rep->bootstrap(group, config.current_sequencer(7));
        replicas.push_back(std::move(rep));
    }

    neobft::Client client(cfg, root.provision(400), &config);
    net.add_node(client, 400);

    // Drive 200 YCSB ops, then read one key back explicitly.
    app::YcsbWorkload ops(ycfg, 12);
    int remaining = 200;
    int reads = 0, writes = 0;
    std::function<void()> issue = [&] {
        if (remaining-- <= 0) return;
        app::KvOp op = ops.next_op();
        (op.type == app::KvOpType::kGet ? reads : writes)++;
        client.invoke(op.serialize(), [&](Bytes) { issue(); });
    };
    issue();
    sim.run_until(sim.now() + 2 * sim::kSecond);
    std::printf("committed 200 ops (%d reads, %d updates) through the protocol\n", reads, writes);

    app::KvOp put;
    put.type = app::KvOpType::kPut;
    put.key = to_bytes("demo-key");
    put.value = to_bytes("replicated-value");
    client.invoke(put.serialize(), [&](Bytes) {
        app::KvOp get;
        get.type = app::KvOpType::kGet;
        get.key = to_bytes("demo-key");
        client.invoke(get.serialize(), [&](Bytes res) {
            auto r = app::KvResult::parse(res);
            std::printf("GET demo-key -> \"%s\"\n", to_string(r->value).c_str());
        });
    });
    sim.run_until(sim.now() + 2 * sim::kSecond);

    std::printf("\nreplica stores after the run:\n");
    for (auto& rep : replicas) {
        auto& sm = dynamic_cast<app::KvStateMachine&>(rep->app());
        std::printf("  replica %u: %zu records, B-Tree invariants %s\n", rep->id(),
                    sm.store().size(), sm.store().check_invariants() ? "OK" : "VIOLATED");
    }
    return 0;
}
