// Shared fixture pieces for aom tests: a host node embedding the receiver
// library, a sender client, and a full single-group deployment.
#pragma once

#include <memory>
#include <vector>

#include "aom/config_service.hpp"
#include "aom/receiver.hpp"
#include "aom/sender.hpp"
#include "aom/sequencer.hpp"
#include "crypto/identity.hpp"
#include "sim/costs.hpp"
#include "sim/processing_node.hpp"

namespace neo::aom::testutil {

/// Application endpoint hosting an AomReceiver; records deliveries.
class HostNode : public sim::ProcessingNode {
  public:
    explicit HostNode(std::unique_ptr<crypto::NodeCrypto> crypto) : crypto_(std::move(crypto)) {
        set_meter(&crypto_->meter());
    }

    void init_receiver(const GroupConfig& group, const AomKeyService* keys,
                       ReceiverOptions opts = {}) {
        receiver_ = std::make_unique<AomReceiver>(group, *this, crypto_.get(), keys, opts);
        receiver_->set_deliver([this](Delivery d) { deliveries.push_back(std::move(d)); });
    }

    AomReceiver& receiver() { return *receiver_; }
    crypto::NodeCrypto& crypto() { return *crypto_; }

    std::vector<Delivery> deliveries;

  protected:
    void handle(NodeId from, BytesView data) override {
        if (receiver_ && is_aom_packet(data)) receiver_->on_packet(from, data);
    }

  private:
    std::unique_ptr<crypto::NodeCrypto> crypto_;
    std::unique_ptr<AomReceiver> receiver_;
};

/// Client that pushes payloads into an aom group.
class SenderNode : public sim::ProcessingNode {
  public:
    explicit SenderNode(std::unique_ptr<crypto::NodeCrypto> crypto) : crypto_(std::move(crypto)) {
        set_meter(&crypto_->meter());
    }

    void init_sender(GroupId group, const SequencerDirectory* dir) {
        sender_ = std::make_unique<AomSender>(group, crypto_.get(), dir);
    }

    void send_payload(Bytes payload) {
        net().send(id(), sender_->route(), sender_->make_packet(payload));
    }

    AomSender& aom() { return *sender_; }

  protected:
    void handle(NodeId, BytesView) override {}

  private:
    std::unique_ptr<crypto::NodeCrypto> crypto_;
    std::unique_ptr<AomSender> sender_;
};

/// A complete single-group deployment: R receivers, `n_switches` switches,
/// a config service, and one sender.
struct Deployment {
    static constexpr GroupId kGroup = 7;
    static constexpr NodeId kConfigId = 100;
    static constexpr NodeId kSwitchBase = 200;
    static constexpr NodeId kSenderId = 300;
    static constexpr NodeId kReceiverBase = 1;

    Deployment(int receivers, AuthVariant variant, NetworkTrust trust = NetworkTrust::kCrashOnly,
               int f = 1, crypto::CryptoMode mode = crypto::CryptoMode::kReal,
               int n_switches = 1, SequencerConfig seq_cfg = {},
               ReceiverOptions recv_opts = {})
        : net(sim, /*seed=*/99), root(mode, /*seed=*/42), keys(/*seed=*/43) {
        net.set_default_link(sim::datacenter_link());

        GroupConfig group;
        group.group = kGroup;
        group.variant = variant;
        group.trust = trust;
        group.f = f;
        for (int i = 0; i < receivers; ++i) group.receivers.push_back(kReceiverBase + static_cast<NodeId>(i));

        for (int s = 0; s < n_switches; ++s) {
            auto sw = std::make_unique<SequencerSwitch>(seq_cfg, root.provision(kSwitchBase + static_cast<NodeId>(s)),
                                                        &keys);
            net.add_node(*sw, kSwitchBase + static_cast<NodeId>(s));
            switches.push_back(std::move(sw));
        }

        std::vector<SequencerSwitch*> pool;
        for (auto& sw : switches) pool.push_back(sw.get());
        config = std::make_unique<ConfigService>(pool);
        net.add_node(*config, kConfigId);
        config->register_group(group);

        for (int i = 0; i < receivers; ++i) {
            auto host = std::make_unique<HostNode>(root.provision(kReceiverBase + static_cast<NodeId>(i)));
            net.add_node(*host, kReceiverBase + static_cast<NodeId>(i));
            host->init_receiver(group, &keys, recv_opts);
            host->receiver().start_epoch(1, config->current_sequencer(kGroup));
            hosts.push_back(std::move(host));
        }

        sender = std::make_unique<SenderNode>(root.provision(kSenderId));
        net.add_node(*sender, kSenderId);
        sender->init_sender(kGroup, config.get());
    }

    sim::Simulator sim;
    sim::Network net;
    crypto::TrustRoot root;
    AomKeyService keys;
    std::vector<std::unique_ptr<SequencerSwitch>> switches;
    std::unique_ptr<ConfigService> config;
    std::vector<std::unique_ptr<HostNode>> hosts;
    std::unique_ptr<SenderNode> sender;
};

}  // namespace neo::aom::testutil
