// Shared helpers for baseline protocol tests.
#pragma once

#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/hotstuff.hpp"
#include "baselines/minbft.hpp"
#include "baselines/pbft.hpp"
#include "baselines/zyzzyva.hpp"

namespace neo::baselines::testutil {

constexpr NodeId kReplicaBase = 1;
constexpr NodeId kClientBase = 400;
/// Attestation seed of every MinBFT replica's USIG.
constexpr std::uint64_t kUsigSeed = 55;

/// One protocol's replica group on datacenter links with real crypto:
/// replicas 1..n and clients from kClientBase up. MinBFT runs n = 2f+1
/// replicas, the other protocols n = 3f+1. Zyzzyva's clients are
/// ZyzzyvaClients; the others accept f+1 matching replies.
template <typename ReplicaT>
struct Deployment {
    static constexpr bool kMinbft = std::is_same_v<ReplicaT, MinbftReplica>;
    static constexpr int kDefaultReplicas = kMinbft ? 3 : 4;
    using Client =
        std::conditional_t<std::is_same_v<ReplicaT, ZyzzyvaReplica>, ZyzzyvaClient, QuorumClient>;

    explicit Deployment(int n = kDefaultReplicas, BaseConfig base = {})
        : net(sim, 77), root(crypto::CryptoMode::kReal, 5), cfg(std::move(base)) {
        net.set_default_link(sim::datacenter_link());
        cfg.f = kMinbft ? (n - 1) / 2 : (n - 1) / 3;
        for (int i = 0; i < n; ++i) cfg.replicas.push_back(kReplicaBase + static_cast<NodeId>(i));
        for (NodeId rid : cfg.replicas) {
            std::unique_ptr<ReplicaT> rep;
            if constexpr (kMinbft) {
                rep = std::make_unique<ReplicaT>(cfg, root.provision(rid), kUsigSeed);
            } else {
                rep = std::make_unique<ReplicaT>(cfg, root.provision(rid));
            }
            net.add_node(*rep, rid);
            replicas.push_back(std::move(rep));
        }
    }

    Client& add_client() {
        NodeId cid = kClientBase + static_cast<NodeId>(clients.size());
        auto c = std::make_unique<Client>(cfg, root.provision(cid));
        net.add_node(*c, cid);
        clients.push_back(std::move(c));
        return *clients.back();
    }

    sim::Simulator sim;
    sim::Network net;
    crypto::TrustRoot root;
    BaseConfig cfg;
    std::vector<std::unique_ptr<ReplicaT>> replicas;
    std::vector<std::unique_ptr<Client>> clients;
};

/// Drives `client` through `total` sequential ops, storing echo results.
template <typename ClientT>
void drive(ClientT& client, int c, int i, int total, std::vector<std::string>& out) {
    if (i >= total) return;
    std::string op = "op-" + std::to_string(c) + "-" + std::to_string(i);
    client.invoke(to_bytes(op), [&client, c, i, total, &out](Bytes result) {
        out.push_back(to_string(result));
        drive(client, c, i + 1, total, out);
    });
}

}  // namespace neo::baselines::testutil
