// Sequencer failover demo (§4.2, §5.5, §6.4): the sequencer switch dies
// mid-run; replicas detect it, run an epoch-changing view change, the
// configuration service installs the standby switch, and traffic resumes.
//
//   ./build/examples/failover_demo
#include <cstdio>

#include "aom/config_service.hpp"
#include "apps/state_machine.hpp"
#include "neobft/client.hpp"
#include "neobft/replica.hpp"

using namespace neo;

int main() {
    std::printf("NeoBFT sequencer failover demo\n\n");

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
    cfg.view_change_timeout = 5 * sim::kMillisecond;
    cfg.request_aom_timeout = 8 * sim::kMillisecond;

    aom::GroupConfig group;
    group.group = 7;
    group.variant = aom::AuthVariant::kHmacVector;
    group.f = 1;
    group.receivers = cfg.replicas;

    // Two switches: primary + standby.
    aom::SequencerSwitch primary({}, root.provision(200), &keys);
    aom::SequencerSwitch standby({}, root.provision(201), &keys);
    net.add_node(primary, 200);
    net.add_node(standby, 201);
    aom::ConfigService config({&primary, &standby});
    net.add_node(config, 100);
    config.register_group(group);

    std::vector<std::unique_ptr<neobft::Replica>> replicas;
    for (NodeId rid : cfg.replicas) {
        auto rep = std::make_unique<neobft::Replica>(cfg, root.provision(rid), &keys,
                                                     std::make_unique<app::EchoApp>());
        net.add_node(*rep, rid);
        rep->bootstrap(group, config.current_sequencer(7));
        replicas.push_back(std::move(rep));
    }

    neobft::Client::Options copts;
    copts.retry_timeout = 4 * sim::kMillisecond;
    neobft::Client client(cfg, root.provision(400), &config, copts);
    net.add_node(client, 400);

    // Phase 1: normal traffic through the primary switch.
    int committed = 0;
    std::function<void()> issue = [&] {
        client.invoke(to_bytes("op-" + std::to_string(committed)), [&](Bytes) {
            ++committed;
            if (committed < 5) issue();
        });
    };
    issue();
    sim.run_until(sim.now() + 2 * sim::kSecond);
    std::printf("phase 1: %d ops committed via switch %u (epoch %llu)\n", committed,
                config.current_sequencer(7),
                static_cast<unsigned long long>(config.current_epoch(7)));

    // Phase 2: kill the primary. The next request stalls; the client's
    // unicast retry makes the replicas suspect the sequencer (§5.5), they
    // agree on the end of epoch 1, and ask the config service to fail over.
    primary.set_stall(true);
    std::printf("\nphase 2: primary switch killed at t=%.1f ms\n", sim::to_ms(sim.now()));

    sim::Time fail_time = sim.now();
    bool recovered = false;
    client.invoke(to_bytes("post-failure"), [&](Bytes) {
        recovered = true;
        std::printf("  \"post-failure\" committed %.1f ms after the failure\n",
                    sim::to_ms(sim.now() - fail_time));
    });
    sim.run_until(sim.now() + 2 * sim::kSecond);

    std::printf("\nphase 3: state after failover\n");
    std::printf("  failovers performed by config service: %llu\n",
                static_cast<unsigned long long>(config.failovers_performed()));
    std::printf("  group now routed to switch %u, epoch %llu\n", config.current_sequencer(7),
                static_cast<unsigned long long>(config.current_epoch(7)));
    for (auto& rep : replicas) {
        std::printf("  replica %u: epoch %llu, %llu log entries, %llu view changes\n", rep->id(),
                    static_cast<unsigned long long>(rep->view().epoch),
                    static_cast<unsigned long long>(rep->log().size()),
                    static_cast<unsigned long long>(rep->stats().view_changes_started));
    }
    std::printf("\n%s\n", recovered ? "failover succeeded: the system resumed without any "
                                      "committed operation lost"
                                    : "ERROR: system did not recover");
    return recovered ? 0 : 1;
}
