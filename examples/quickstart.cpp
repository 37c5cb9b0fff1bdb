// Quickstart: stand up a 4-replica NeoBFT group over a simulated data-center
// network, issue a few operations, and inspect the replicated log.
//
//   cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "aom/config_service.hpp"
#include "apps/state_machine.hpp"
#include "neobft/client.hpp"
#include "neobft/replica.hpp"

using namespace neo;

int main() {
    std::printf("NeoBFT quickstart: 4 replicas (f=1), HMAC-vector aom, echo app\n\n");

    // 1. The simulated data-center: event loop + network fabric.
    sim::Simulator sim;
    sim::Network net(sim, /*seed=*/1);
    net.set_default_link(sim::datacenter_link());

    // 2. Credentials: the trust root provisions signing keys and pairwise
    //    MACs; the aom key service provisions switch<->receiver HMAC keys.
    crypto::TrustRoot root(crypto::CryptoMode::kReal, /*seed=*/2);
    aom::AomKeyService keys(/*seed=*/3);

    // 3. Protocol + group configuration.
    neobft::Config cfg;
    cfg.replicas = {1, 2, 3, 4};
    cfg.f = 1;
    cfg.group = 7;
    cfg.config_service = 100;

    aom::GroupConfig group;
    group.group = 7;
    group.variant = aom::AuthVariant::kHmacVector;  // or kPublicKey
    group.trust = aom::NetworkTrust::kCrashOnly;    // or kByzantine
    group.f = 1;
    group.receivers = cfg.replicas;

    // 4. The in-network sequencer and its configuration service.
    aom::SequencerSwitch sequencer({}, root.provision(200), &keys);
    net.add_node(sequencer, 200);
    aom::ConfigService config({&sequencer});
    net.add_node(config, 100);
    config.register_group(group);

    // 5. Replicas: each hosts the aom receiver library + the state machine.
    std::vector<std::unique_ptr<neobft::Replica>> replicas;
    for (NodeId rid : cfg.replicas) {
        auto rep = std::make_unique<neobft::Replica>(cfg, root.provision(rid), &keys,
                                                     std::make_unique<app::EchoApp>());
        net.add_node(*rep, rid);
        rep->bootstrap(group, config.current_sequencer(7));
        replicas.push_back(std::move(rep));
    }

    // 6. A client: multicasts signed requests through aom, collects 2f+1
    //    matching replies.
    neobft::Client client(cfg, root.provision(400), &config);
    net.add_node(client, 400);

    // 7. Issue three operations, closed-loop.
    std::vector<std::string> ops = {"hello", "byzantine", "world"};
    std::size_t next = 0;
    std::function<void()> issue = [&] {
        if (next >= ops.size()) return;
        std::string op = ops[next++];
        sim::Time start = sim.now();
        client.invoke(to_bytes(op), [&, op, start](Bytes result) {
            std::printf("  committed \"%s\" -> \"%s\"  (%.1f us, single round trip)\n",
                        op.c_str(), to_string(result).c_str(), sim::to_us(sim.now() - start));
            issue();
        });
    };
    issue();
    sim.run_until(sim.now() + 2 * sim::kSecond);

    // 8. Inspect the replicated state.
    std::printf("\nreplica logs:\n");
    for (auto& rep : replicas) {
        std::printf("  replica %u: %llu entries, view <%llu,%llu>, log hash %02x%02x...\n",
                    rep->id(), static_cast<unsigned long long>(rep->log().size()),
                    static_cast<unsigned long long>(rep->view().epoch),
                    static_cast<unsigned long long>(rep->view().leader),
                    rep->log().hash_at(rep->log().size())[0],
                    rep->log().hash_at(rep->log().size())[1]);
    }
    std::printf("\nno replica-to-replica messages were needed: ordering came from aom.\n");
    return 0;
}
