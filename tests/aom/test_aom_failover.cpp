// Sequencer failover through the configuration service (§4.2, §6.4).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "aom_test_util.hpp"
#include "crypto/siphash.hpp"

namespace neo::aom {
namespace {

using testutil::Deployment;

Deployment make_two_switch() {
    return Deployment(4, AuthVariant::kHmacVector, NetworkTrust::kCrashOnly, 1,
                      crypto::CryptoMode::kReal, /*n_switches=*/2);
}

void request_failover(Deployment& d, int host_idx, EpochNum next_epoch) {
    FailoverRequest req;
    req.sender = Deployment::kReceiverBase + static_cast<NodeId>(host_idx);
    req.group = Deployment::kGroup;
    req.next_epoch = next_epoch;
    d.net.send(req.sender, Deployment::kConfigId, req.serialize());
}

TEST(AomFailover, QuorumOfRequestsTriggersFailover) {
    Deployment d = make_two_switch();
    EXPECT_EQ(d.config->current_sequencer(Deployment::kGroup), d.switches[0]->id());

    request_failover(d, 0, 2);
    request_failover(d, 1, 2);  // f+1 = 2 distinct requesters
    d.sim.run();

    EXPECT_EQ(d.config->failovers_performed(), 1u);
    EXPECT_EQ(d.config->current_sequencer(Deployment::kGroup), d.switches[1]->id());
    EXPECT_EQ(d.config->current_epoch(Deployment::kGroup), 2u);
    EXPECT_TRUE(d.switches[1]->serves_group(Deployment::kGroup));
    EXPECT_FALSE(d.switches[0]->serves_group(Deployment::kGroup));
}

TEST(AomFailover, SingleRequestInsufficient) {
    Deployment d = make_two_switch();
    request_failover(d, 0, 2);
    d.sim.run();
    EXPECT_EQ(d.config->failovers_performed(), 0u);
    EXPECT_EQ(d.config->current_epoch(Deployment::kGroup), 1u);
}

TEST(AomFailover, DuplicateRequestsFromSameNodeInsufficient) {
    Deployment d = make_two_switch();
    request_failover(d, 0, 2);
    request_failover(d, 0, 2);
    request_failover(d, 0, 2);
    d.sim.run();
    EXPECT_EQ(d.config->failovers_performed(), 0u);
}

TEST(AomFailover, NonMemberRequestsIgnored) {
    Deployment d = make_two_switch();
    FailoverRequest req;
    req.sender = Deployment::kSenderId;  // not a receiver
    req.group = Deployment::kGroup;
    req.next_epoch = 2;
    d.net.send(Deployment::kSenderId, Deployment::kConfigId, req.serialize());
    request_failover(d, 0, 2);
    d.sim.run();
    EXPECT_EQ(d.config->failovers_performed(), 0u);
}

TEST(AomFailover, SpoofedSenderIgnored) {
    Deployment d = make_two_switch();
    FailoverRequest req;
    req.sender = Deployment::kReceiverBase + 1;  // claims to be host 1
    req.group = Deployment::kGroup;
    req.next_epoch = 2;
    // ...but actually sent from host 0's address.
    d.net.send(Deployment::kReceiverBase, Deployment::kConfigId, req.serialize());
    request_failover(d, 0, 2);
    d.sim.run();
    EXPECT_EQ(d.config->failovers_performed(), 0u);
}

TEST(AomFailover, StaleEpochRequestsIgnored) {
    Deployment d = make_two_switch();
    request_failover(d, 0, 1);  // current epoch, not next
    request_failover(d, 1, 1);
    d.sim.run();
    EXPECT_EQ(d.config->failovers_performed(), 0u);
}

TEST(AomFailover, AnnouncementReachesReceivers) {
    Deployment d = make_two_switch();
    std::vector<std::pair<EpochNum, NodeId>> announcements;
    d.hosts[2]->receiver().set_on_new_epoch(
        [&](EpochNum e, NodeId s) { announcements.emplace_back(e, s); });
    request_failover(d, 0, 2);
    request_failover(d, 1, 2);
    d.sim.run();
    ASSERT_EQ(announcements.size(), 1u);
    EXPECT_EQ(announcements[0].first, 2u);
    EXPECT_EQ(announcements[0].second, d.switches[1]->id());
    EXPECT_EQ(d.hosts[2]->receiver().announced_sequencer(2), d.switches[1]->id());
}

TEST(AomFailover, TrafficFlowsAfterFailover) {
    Deployment d = make_two_switch();
    d.sender->send_payload(to_bytes("before"));
    d.sim.run();

    d.switches[0]->set_stall(true);
    request_failover(d, 0, 2);
    request_failover(d, 1, 2);
    d.sim.run();

    // Receivers activate the announced epoch (the protocol layer does this
    // after its view change; here we do it directly).
    for (auto& host : d.hosts) {
        host->receiver().start_epoch(2, *host->receiver().announced_sequencer(2));
    }
    d.sender->send_payload(to_bytes("after"));
    d.sim.run();

    for (auto& host : d.hosts) {
        ASSERT_EQ(host->deliveries.size(), 2u);
        EXPECT_EQ(to_string(host->deliveries[1].payload), "after");
        EXPECT_EQ(host->deliveries[1].epoch, 2u);
        EXPECT_EQ(host->deliveries[1].seq, 1u);  // sequence restarts per epoch
    }
}

// Receivers hold their aom-hm key across packets and derive it again when
// the epoch's sequencer changes; the new switch takes its keys when the
// group is installed. Traffic must flow through two failovers, switch
// 0 -> 1 -> 0, and a MAC under the deposed switch's key must not pass.
TEST(AomFailover, HmKeysFollowTheSwitch) {
    Deployment d = make_two_switch();
    auto send = [&](EpochNum epoch) {
        d.sender->send_payload(to_bytes("epoch " + std::to_string(epoch)));
        d.sim.run();
    };
    auto fail_over = [&](EpochNum epoch) {
        d.config->force_failover(Deployment::kGroup);
        d.sim.run();
        for (auto& host : d.hosts) {
            host->receiver().start_epoch(epoch, *host->receiver().announced_sequencer(epoch));
        }
    };
    send(1);
    fail_over(2);
    ASSERT_EQ(d.config->current_sequencer(Deployment::kGroup), d.switches[1]->id());
    send(2);
    fail_over(3);
    ASSERT_EQ(d.config->current_sequencer(Deployment::kGroup), d.switches[0]->id());
    send(3);
    for (auto& host : d.hosts) {
        ASSERT_EQ(host->deliveries.size(), 3u);
        for (EpochNum e = 1; e <= 3; ++e) {
            EXPECT_EQ(host->deliveries[e - 1].epoch, e);
            EXPECT_EQ(to_string(host->deliveries[e - 1].payload), "epoch " + std::to_string(e));
        }
    }

    // Epoch 3's next sequence number, MACed under switch 1's keys.
    HmPacket forged;
    forged.group = Deployment::kGroup;
    forged.epoch = 3;
    forged.seq = 2;
    forged.payload = to_bytes("forged");
    forged.digest = d.hosts[0]->crypto().hash(forged.payload);
    const Bytes input = auth_input(forged.group, forged.epoch, forged.seq, forged.digest);
    for (NodeId r : d.config->group_config(Deployment::kGroup).receivers) {
        forged.macs.push_back(crypto::halfsiphash24(d.keys.hm_key(d.switches[1]->id(), r), input));
    }
    const sim::Packet wire(forged.serialize());
    std::vector<std::uint64_t> rejected;
    for (auto& host : d.hosts) {
        rejected.push_back(host->receiver().rejected_packets());
        d.net.send(d.switches[1]->id(), host->id(), wire);
    }
    d.sim.run();
    for (std::size_t i = 0; i < d.hosts.size(); ++i) {
        EXPECT_EQ(d.hosts[i]->receiver().rejected_packets(), rejected[i] + 1);
        EXPECT_EQ(d.hosts[i]->deliveries.size(), 3u);
    }
}

TEST(AomFailover, ReconfigurationDelayApplies) {
    Deployment d = make_two_switch();
    request_failover(d, 0, 2);
    request_failover(d, 1, 2);
    // Default reconfig delay is 50 ms; at 10 ms nothing has changed yet.
    d.sim.run_until(10 * sim::kMillisecond);
    EXPECT_EQ(d.config->current_epoch(Deployment::kGroup), 1u);
    d.sim.run();
    EXPECT_EQ(d.config->current_epoch(Deployment::kGroup), 2u);
}

TEST(AomFailover, ForceFailoverCyclesThroughPool) {
    Deployment d = make_two_switch();
    d.config->force_failover(Deployment::kGroup);
    d.sim.run();
    EXPECT_EQ(d.config->current_sequencer(Deployment::kGroup), d.switches[1]->id());
    d.config->force_failover(Deployment::kGroup);
    d.sim.run();
    EXPECT_EQ(d.config->current_sequencer(Deployment::kGroup), d.switches[0]->id());
    EXPECT_EQ(d.config->current_epoch(Deployment::kGroup), 3u);
}

TEST(AomFailover, RouteLookupFollowsFailover) {
    Deployment d = make_two_switch();
    EXPECT_EQ(d.sender->aom().route(), d.switches[0]->id());
    d.config->force_failover(Deployment::kGroup);
    d.sim.run();
    EXPECT_EQ(d.sender->aom().route(), d.switches[1]->id());
}

}  // namespace
}  // namespace neo::aom
