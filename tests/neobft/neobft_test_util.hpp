// Full NeoBFT deployment fixture for tests: N replicas, sequencer switch
// pool, configuration service, and closed-loop clients.
#pragma once

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "aom/config_service.hpp"
#include "neobft/client.hpp"
#include "neobft/replica.hpp"

namespace neo::neobft::testutil {

struct DeploymentOptions {
    int n_replicas = 4;
    aom::AuthVariant variant = aom::AuthVariant::kHmacVector;
    aom::NetworkTrust trust = aom::NetworkTrust::kCrashOnly;
    crypto::CryptoMode crypto_mode = crypto::CryptoMode::kReal;
    int n_switches = 1;
    aom::SequencerConfig sequencer{};
    aom::ReceiverOptions receiver{};
    Config protocol{};  // replicas/f/group/config_service filled in by the fixture
    ClientOptions client{};
    std::uint64_t seed = 12345;
    /// Replica state machine factory (defaults to the echo app).
    std::function<std::unique_ptr<app::StateMachine>()> app_factory =
        [] { return std::make_unique<app::EchoApp>(); };
};

class NeoDeployment {
  public:
    static constexpr GroupId kGroup = 7;
    static constexpr NodeId kConfigId = 100;
    static constexpr NodeId kSwitchBase = 200;
    static constexpr NodeId kClientBase = 400;
    static constexpr NodeId kReplicaBase = 1;

    explicit NeoDeployment(DeploymentOptions opts = {})
        : opts_(opts), net(sim, opts.seed), root(opts.crypto_mode, opts.seed + 1),
          keys(opts.seed + 2) {
        net.set_default_link(sim::datacenter_link());

        int f = (opts.n_replicas - 1) / 3;
        cfg = opts.protocol;
        cfg.f = f;
        cfg.group = kGroup;
        cfg.config_service = kConfigId;
        for (int i = 0; i < opts.n_replicas; ++i) {
            cfg.replicas.push_back(kReplicaBase + static_cast<NodeId>(i));
        }

        group.group = kGroup;
        group.variant = opts.variant;
        group.trust = opts.trust;
        group.f = f;
        group.receivers = cfg.replicas;

        for (int s = 0; s < opts.n_switches; ++s) {
            NodeId sid = kSwitchBase + static_cast<NodeId>(s);
            auto sw = std::make_unique<aom::SequencerSwitch>(opts.sequencer,
                                                             root.provision(sid), &keys);
            net.add_node(*sw, sid);
            switches.push_back(std::move(sw));
        }
        std::vector<aom::SequencerSwitch*> pool;
        for (auto& sw : switches) pool.push_back(sw.get());
        config = std::make_unique<aom::ConfigService>(pool);
        net.add_node(*config, kConfigId);
        config->register_group(group);

        for (int i = 0; i < opts.n_replicas; ++i) {
            NodeId rid = kReplicaBase + static_cast<NodeId>(i);
            auto rep = std::make_unique<Replica>(cfg, root.provision(rid), &keys,
                                                 opts.app_factory(), opts.receiver);
            net.add_node(*rep, rid);
            rep->bootstrap(group, config->current_sequencer(kGroup));
            replicas.push_back(std::move(rep));
        }
    }

    Client& add_client() {
        NodeId cid = kClientBase + static_cast<NodeId>(clients.size());
        auto client = std::make_unique<Client>(cfg, root.provision(cid), config.get(),
                                               opts_.client);
        net.add_node(*client, cid);
        clients.push_back(std::move(client));
        return *clients.back();
    }

    /// Closed-loop driver: each client issues `ops_per_client` operations
    /// back-to-back; returns the results in completion order per client.
    std::vector<std::vector<std::string>> run_workload(int n_clients, int ops_per_client,
                                                       sim::Time deadline = 10 * sim::kSecond) {
        std::vector<std::vector<std::string>> results(static_cast<std::size_t>(n_clients));
        for (int c = 0; c < n_clients; ++c) {
            Client& client = add_client();
            issue(client, c, 0, ops_per_client, results[static_cast<std::size_t>(c)]);
        }
        sim.run_until(deadline);
        return results;
    }

    /// Checks that every pair of replica logs agrees on every slot both have.
    void expect_prefix_consistent() const {
        for (std::size_t a = 0; a < replicas.size(); ++a) {
            for (std::size_t b = a + 1; b < replicas.size(); ++b) {
                const Log& la = replicas[a]->log();
                const Log& lb = replicas[b]->log();
                std::uint64_t common = std::min(la.size(), lb.size());
                for (std::uint64_t s = 1; s <= common; ++s) {
                    ASSERT_EQ(la.at(s).noop(), lb.at(s).noop())
                        << "slot " << s << " replicas " << a << "," << b;
                    if (!la.at(s).noop()) {
                        ASSERT_EQ(la.at(s).oc().digest, lb.at(s).oc().digest)
                            << "slot " << s << " replicas " << a << "," << b;
                    }
                    ASSERT_EQ(la.hash_at(s), lb.hash_at(s)) << "slot " << s;
                }
            }
        }
    }

    DeploymentOptions opts_;
    sim::Simulator sim;
    sim::Network net;
    crypto::TrustRoot root;
    aom::AomKeyService keys;
    Config cfg;
    aom::GroupConfig group;
    std::vector<std::unique_ptr<aom::SequencerSwitch>> switches;
    std::unique_ptr<aom::ConfigService> config;
    std::vector<std::unique_ptr<Replica>> replicas;
    std::vector<std::unique_ptr<Client>> clients;

  private:
    void issue(Client& client, int c, int i, int total, std::vector<std::string>& out) {
        if (i >= total) return;
        std::string op = "op-" + std::to_string(c) + "-" + std::to_string(i);
        client.invoke(to_bytes(op), [this, &client, c, i, total, &out](Bytes result) {
            out.push_back(to_string(result));
            issue(client, c, i + 1, total, out);
        });
    }
};

}  // namespace neo::neobft::testutil
