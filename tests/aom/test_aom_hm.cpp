// End-to-end tests of the HMAC-vector aom variant (§4.3).
#include <gtest/gtest.h>

#include "aom_test_util.hpp"
#include "crypto/sha256.hpp"

namespace neo::aom {
namespace {

using testutil::Deployment;

TEST(AomHm, SingleMessageDeliveredToAllReceivers) {
    Deployment d(4, AuthVariant::kHmacVector);
    d.sender->send_payload(to_bytes("hello"));
    d.sim.run();
    for (auto& host : d.hosts) {
        ASSERT_EQ(host->deliveries.size(), 1u);
        const Delivery& del = host->deliveries[0];
        EXPECT_EQ(del.kind, Delivery::Kind::kMessage);
        EXPECT_EQ(del.seq, 1u);
        EXPECT_EQ(del.epoch, 1u);
        EXPECT_EQ(to_string(del.payload), "hello");
    }
}

TEST(AomHm, MessagesDeliveredInSequenceOrderEverywhere) {
    Deployment d(4, AuthVariant::kHmacVector);
    // Space sends beyond the link jitter so switch arrival order (and thus
    // the assigned sequence) matches send order.
    for (int i = 0; i < 50; ++i) {
        d.sim.at(i * 5 * sim::kMicrosecond, [&d, i] {
            d.sender->send_payload(to_bytes("msg-" + std::to_string(i)));
        });
    }
    d.sim.run();
    for (auto& host : d.hosts) {
        ASSERT_EQ(host->deliveries.size(), 50u);
        for (std::size_t i = 0; i < 50; ++i) {
            EXPECT_EQ(host->deliveries[i].seq, i + 1);
            EXPECT_EQ(to_string(host->deliveries[i].payload), "msg-" + std::to_string(i));
        }
    }
}

TEST(AomHm, OrderingPropertyUnderConcurrentSenders) {
    Deployment d(4, AuthVariant::kHmacVector);
    // Second sender racing the first: all receivers must still see the SAME
    // order (whatever the switch assigned).
    testutil::SenderNode sender2(d.root.provision(301));
    d.net.add_node(sender2, 301);
    sender2.init_sender(Deployment::kGroup, d.config.get());

    for (int i = 0; i < 20; ++i) {
        d.sender->send_payload(to_bytes("a" + std::to_string(i)));
        sender2.send_payload(to_bytes("b" + std::to_string(i)));
    }
    d.sim.run();
    ASSERT_EQ(d.hosts[0]->deliveries.size(), 40u);
    for (auto& host : d.hosts) {
        ASSERT_EQ(host->deliveries.size(), 40u);
        for (std::size_t i = 0; i < 40; ++i) {
            EXPECT_EQ(host->deliveries[i].payload, d.hosts[0]->deliveries[i].payload);
            EXPECT_EQ(host->deliveries[i].seq, d.hosts[0]->deliveries[i].seq);
        }
    }
}

TEST(AomHm, CertificateVerifiesLocally) {
    Deployment d(4, AuthVariant::kHmacVector);
    d.sender->send_payload(to_bytes("certified"));
    d.sim.run();
    const OrderingCert& cert = d.hosts[2]->deliveries.at(0).cert;
    EXPECT_EQ(cert.macs.size(), 4u);
    EXPECT_TRUE(verify_cert(cert, d.hosts[2]->receiver().verify_context()));
}

TEST(AomHm, CertificateIsTransferable) {
    // A certificate delivered at receiver 0 must verify at receiver 3
    // (each checks its own MAC-vector entry) — §3.2 transferable auth.
    Deployment d(4, AuthVariant::kHmacVector);
    d.sender->send_payload(to_bytes("transfer me"));
    d.sim.run();
    OrderingCert cert = d.hosts[0]->deliveries.at(0).cert;
    Bytes wire = cert.serialize();
    OrderingCert reparsed = wire::decode<OrderingCert>(wire);
    for (auto& host : d.hosts) {
        EXPECT_TRUE(verify_cert(reparsed, host->receiver().verify_context()));
    }
}

TEST(AomHm, TamperedCertificateRejected) {
    Deployment d(4, AuthVariant::kHmacVector);
    d.sender->send_payload(to_bytes("payload"));
    d.sim.run();
    OrderingCert cert = d.hosts[0]->deliveries.at(0).cert;

    OrderingCert bad_seq = cert;
    bad_seq.seq += 1;
    EXPECT_FALSE(verify_cert(bad_seq, d.hosts[1]->receiver().verify_context()));

    OrderingCert bad_payload = cert;
    bad_payload.payload = to_bytes("forged!");
    EXPECT_FALSE(verify_cert(bad_payload, d.hosts[1]->receiver().verify_context()));

    OrderingCert bad_mac = cert;
    bad_mac.macs[1] ^= 1;
    EXPECT_FALSE(verify_cert(bad_mac, d.hosts[1]->receiver().verify_context()));

    OrderingCert bad_epoch = cert;
    bad_epoch.epoch = 99;  // unknown epoch -> no sequencer -> reject
    EXPECT_FALSE(verify_cert(bad_epoch, d.hosts[1]->receiver().verify_context()));
}

TEST(AomHm, InFlightTamperingDetected) {
    Deployment d(4, AuthVariant::kHmacVector);
    // Flip payload bytes on everything the switch sends to receiver 0.
    d.net.set_tamper([](NodeId from, NodeId to, Bytes& data) {
        if (from == Deployment::kSwitchBase && to == Deployment::kReceiverBase &&
            data.size() > 60) {
            data.back() ^= 0xff;
        }
        return sim::TamperAction::kDeliver;
    });
    d.sender->send_payload(to_bytes("integrity"));
    d.sim.run_until(80 * sim::kMicrosecond);
    // Receiver 0 must not deliver a corrupted message...
    for (const auto& del : d.hosts[0]->deliveries) {
        if (del.kind == Delivery::Kind::kMessage) {
            EXPECT_EQ(to_string(del.payload), "integrity");
        }
    }
    // ...while untampered receivers deliver normally.
    ASSERT_EQ(d.hosts[1]->deliveries.size(), 1u);
    EXPECT_EQ(to_string(d.hosts[1]->deliveries[0].payload), "integrity");
}

TEST(AomHm, LargerGroupUsesSubgroupPackets) {
    Deployment d(10, AuthVariant::kHmacVector);  // 3 subgroups
    d.sender->send_payload(to_bytes("wide"));
    d.sim.run();
    for (auto& host : d.hosts) {
        ASSERT_EQ(host->deliveries.size(), 1u);
        // Full vector assembled from 3 subgroup packets.
        EXPECT_EQ(host->deliveries[0].cert.macs.size(), 10u);
        EXPECT_TRUE(verify_cert(host->deliveries[0].cert, host->receiver().verify_context()));
    }
    // Each receiver got 3 packets for the one message.
    EXPECT_EQ(d.net.delivered_to(Deployment::kReceiverBase), 3u);
}

TEST(AomHm, SixtyFourReceiversSupported) {
    Deployment d(64, AuthVariant::kHmacVector);
    d.sender->send_payload(to_bytes("max"));
    d.sim.run();
    for (auto& host : d.hosts) {
        ASSERT_EQ(host->deliveries.size(), 1u);
        EXPECT_EQ(host->deliveries[0].cert.macs.size(), 64u);
    }
    EXPECT_EQ(d.net.delivered_to(Deployment::kReceiverBase), 16u);  // 16 subgroups
}

TEST(AomHm, DropNotificationOnGap) {
    Deployment d(4, AuthVariant::kHmacVector);
    // Drop everything the switch sends to receiver 0 for the first message.
    bool drop_active = true;
    d.net.set_tamper([&drop_active](NodeId from, NodeId to, Bytes&) {
        if (drop_active && from == Deployment::kSwitchBase && to == Deployment::kReceiverBase) {
            return sim::TamperAction::kDrop;
        }
        return sim::TamperAction::kDeliver;
    });
    d.sender->send_payload(to_bytes("lost"));
    d.sim.run_until(10 * sim::kMicrosecond);
    drop_active = false;
    d.sender->send_payload(to_bytes("second"));
    d.sim.run();

    // Receiver 0: drop-notification for seq 1, then message 2.
    ASSERT_EQ(d.hosts[0]->deliveries.size(), 2u);
    EXPECT_EQ(d.hosts[0]->deliveries[0].kind, Delivery::Kind::kDropNotification);
    EXPECT_EQ(d.hosts[0]->deliveries[0].seq, 1u);
    EXPECT_EQ(d.hosts[0]->deliveries[1].kind, Delivery::Kind::kMessage);
    EXPECT_EQ(to_string(d.hosts[0]->deliveries[1].payload), "second");
    // Receiver 1 got both messages.
    ASSERT_EQ(d.hosts[1]->deliveries.size(), 2u);
    EXPECT_EQ(d.hosts[1]->deliveries[0].kind, Delivery::Kind::kMessage);
}

TEST(AomHm, NoDropNotificationWithoutLaterTraffic) {
    // A hole can only be detected relative to later packets; with none, the
    // receiver must stay quiet (unreliability property, not false drops).
    Deployment d(4, AuthVariant::kHmacVector);
    d.net.set_tamper([](NodeId from, NodeId, Bytes&) {
        return from == Deployment::kSwitchBase ? sim::TamperAction::kDrop
                                               : sim::TamperAction::kDeliver;
    });
    d.sender->send_payload(to_bytes("vanishes"));
    d.sim.run_until(sim::kSecond);
    EXPECT_TRUE(d.hosts[0]->deliveries.empty());
}

TEST(AomHm, ReorderedSubgroupPacketsStillAssemble) {
    // Heavy jitter reorders the three subgroup packets; assembly must cope.
    Deployment d(12, AuthVariant::kHmacVector);
    sim::LinkConfig jittery = d.net.default_link();
    jittery.jitter = 30 * sim::kMicrosecond;
    d.net.set_default_link(jittery);
    for (int i = 0; i < 10; ++i) d.sender->send_payload(to_bytes("m" + std::to_string(i)));
    d.sim.run();
    for (auto& host : d.hosts) {
        std::size_t messages = 0;
        SeqNum prev = 0;
        for (const auto& del : host->deliveries) {
            if (del.kind == Delivery::Kind::kMessage) {
                ++messages;
                EXPECT_GT(del.seq, prev);
                prev = del.seq;
            }
        }
        EXPECT_EQ(messages + (host->deliveries.size() - messages), host->deliveries.size());
        EXPECT_GE(messages, 8u);  // a few may time out into drops under jitter
    }
}

TEST(AomHm, UnknownGroupPacketsIgnoredBySwitch) {
    Deployment d(4, AuthVariant::kHmacVector);
    DataPacket pkt;
    pkt.group = 999;  // not registered
    pkt.digest = crypto::sha256(to_bytes("x"));
    pkt.payload = to_bytes("x");
    d.net.send(Deployment::kSenderId, Deployment::kSwitchBase, pkt.serialize());
    d.sim.run();
    for (auto& host : d.hosts) EXPECT_TRUE(host->deliveries.empty());
}

TEST(AomHm, MalformedPacketToSwitchIgnored) {
    Deployment d(4, AuthVariant::kHmacVector);
    Bytes garbage{static_cast<std::uint8_t>(Wire::kData), 0x01, 0x02};
    d.net.send(Deployment::kSenderId, Deployment::kSwitchBase, garbage);
    d.sender->send_payload(to_bytes("after-garbage"));
    d.sim.run();
    ASSERT_EQ(d.hosts[0]->deliveries.size(), 1u);
    EXPECT_EQ(d.hosts[0]->deliveries[0].seq, 1u);  // garbage consumed no seq
}

TEST(AomHm, SwitchLatencyReflectsPipelinePasses) {
    // Group of 4 (1 subgroup) vs 64 (16 subgroups): the bigger group's
    // switch service time is ~16x, showing up as added delivery latency
    // under load and lower max throughput (Fig 6's decay).
    Deployment small(4, AuthVariant::kHmacVector);
    for (int i = 0; i < 200; ++i) small.sender->send_payload(to_bytes("s"));
    small.sim.run();
    Deployment big(64, AuthVariant::kHmacVector);
    for (int i = 0; i < 200; ++i) big.sender->send_payload(to_bytes("b"));
    big.sim.run();
    // All 200 delivered in both; the big group simply takes longer.
    EXPECT_EQ(small.hosts[0]->deliveries.size(), 200u);
    EXPECT_EQ(big.hosts[0]->deliveries.size(), 200u);
    EXPECT_EQ(small.switches[0]->packets_sequenced(), 200u);
    EXPECT_EQ(big.switches[0]->packets_sequenced(), 200u);
}

TEST(AomHm, StalledSwitchDeliversNothing) {
    Deployment d(4, AuthVariant::kHmacVector);
    d.switches[0]->set_stall(true);
    d.sender->send_payload(to_bytes("black hole"));
    d.sim.run_until(sim::kSecond);
    for (auto& host : d.hosts) EXPECT_TRUE(host->deliveries.empty());
}

}  // namespace
}  // namespace neo::aom
