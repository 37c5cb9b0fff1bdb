// End-to-end tests of the public-key aom variant with hash chaining (§4.4).
#include <gtest/gtest.h>

#include "aom_test_util.hpp"
#include "crypto/sha256.hpp"

namespace neo::aom {
namespace {

using testutil::Deployment;

TEST(AomPk, SingleMessageDelivered) {
    Deployment d(4, AuthVariant::kPublicKey);
    d.sender->send_payload(to_bytes("pk hello"));
    d.sim.run();
    for (auto& host : d.hosts) {
        ASSERT_EQ(host->deliveries.size(), 1u);
        EXPECT_EQ(to_string(host->deliveries[0].payload), "pk hello");
        EXPECT_EQ(host->deliveries[0].seq, 1u);
    }
    EXPECT_EQ(d.switches[0]->signatures_generated(), 1u);
}

TEST(AomPk, StreamDeliveredInOrder) {
    Deployment d(4, AuthVariant::kPublicKey);
    // Space sends beyond the link jitter so switch arrival order (and thus
    // the assigned sequence) matches send order.
    for (int i = 0; i < 100; ++i) {
        d.sim.at(i * 5 * sim::kMicrosecond, [&d, i] {
            d.sender->send_payload(to_bytes("m" + std::to_string(i)));
        });
    }
    d.sim.run();
    for (auto& host : d.hosts) {
        ASSERT_EQ(host->deliveries.size(), 100u);
        for (std::size_t i = 0; i < 100; ++i) {
            EXPECT_EQ(host->deliveries[i].seq, i + 1);
            EXPECT_EQ(to_string(host->deliveries[i].payload), "m" + std::to_string(i));
        }
    }
}

TEST(AomPk, OnePacketPerReceiverRegardlessOfGroupSize) {
    // PK performance is group-size agnostic (§4.4): one packet per receiver.
    Deployment d(12, AuthVariant::kPublicKey);
    d.sender->send_payload(to_bytes("x"));
    d.sim.run();
    EXPECT_EQ(d.net.delivered_to(Deployment::kReceiverBase), 1u);
}

TEST(AomPk, CertificateVerifiesAndTransfers) {
    Deployment d(4, AuthVariant::kPublicKey);
    d.sender->send_payload(to_bytes("cert"));
    d.sim.run();
    OrderingCert cert = d.hosts[0]->deliveries.at(0).cert;
    ASSERT_FALSE(cert.chain.empty());
    ASSERT_FALSE(cert.signature.empty());
    for (auto& host : d.hosts) {
        EXPECT_TRUE(verify_cert(cert, host->receiver().verify_context()));
    }
}

TEST(AomPk, TamperedCertificateRejected) {
    Deployment d(4, AuthVariant::kPublicKey);
    d.sender->send_payload(to_bytes("sealed"));
    d.sim.run();
    OrderingCert cert = d.hosts[0]->deliveries.at(0).cert;

    OrderingCert bad_payload = cert;
    bad_payload.payload = to_bytes("forged");
    EXPECT_FALSE(verify_cert(bad_payload, d.hosts[1]->receiver().verify_context()));

    OrderingCert bad_sig = cert;
    bad_sig.signature[3] ^= 1;
    EXPECT_FALSE(verify_cert(bad_sig, d.hosts[1]->receiver().verify_context()));

    OrderingCert bad_chain = cert;
    bad_chain.chain[0].prev_chain[0] ^= 1;
    EXPECT_FALSE(verify_cert(bad_chain, d.hosts[1]->receiver().verify_context()));

    OrderingCert empty_chain = cert;
    empty_chain.chain.clear();
    EXPECT_FALSE(verify_cert(empty_chain, d.hosts[1]->receiver().verify_context()));
}

// Force skipped signatures by draining the precompute stock, then check the
// hash-chain batch delivery (§4.4's signing-ratio controller).
SequencerConfig scarce_signer() {
    SequencerConfig cfg;
    cfg.precompute.table_capacity = 4;
    cfg.precompute.low_water_mark = 2;
    cfg.precompute.refill_per_sec = 50'000.0;  // 1 entry per 20us
    return cfg;
}

TEST(AomPk, UnsignedRunDeliveredViaChainOnNextSignature) {
    Deployment d(4, AuthVariant::kPublicKey, NetworkTrust::kCrashOnly, 1,
                 crypto::CryptoMode::kReal, 1, scarce_signer());
    // Burst of messages: the first few consume the stock, the rest ride the
    // hash chain until the stock refills.
    for (int i = 0; i < 30; ++i) d.sender->send_payload(to_bytes("b" + std::to_string(i)));
    d.sim.run();
    EXPECT_GT(d.switches[0]->signatures_skipped(), 0u);
    EXPECT_GT(d.switches[0]->signatures_generated(), 0u);
    for (auto& host : d.hosts) {
        std::size_t messages = 0;
        for (const auto& del : host->deliveries) {
            if (del.kind == Delivery::Kind::kMessage) {
                ++messages;
                EXPECT_TRUE(verify_cert(del.cert, host->receiver().verify_context()))
                    << "seq " << del.seq;
            }
        }
        EXPECT_EQ(messages, 30u);
    }
}

TEST(AomPk, UnsignedCertificatesCarryChainToSignature) {
    Deployment d(4, AuthVariant::kPublicKey, NetworkTrust::kCrashOnly, 1,
                 crypto::CryptoMode::kReal, 1, scarce_signer());
    for (int i = 0; i < 30; ++i) d.sender->send_payload(to_bytes("c" + std::to_string(i)));
    d.sim.run();
    bool saw_multilink = false;
    for (const auto& del : d.hosts[0]->deliveries) {
        if (del.cert.chain.size() > 1) {
            saw_multilink = true;
            // Chain must start at the message's own seq and be consecutive.
            EXPECT_EQ(del.cert.chain.front().seq, del.seq);
            // And must still verify everywhere after reserialisation.
            OrderingCert reparsed = wire::decode<OrderingCert>(del.cert.serialize());
            EXPECT_TRUE(verify_cert(reparsed, d.hosts[3]->receiver().verify_context()));
        }
    }
    EXPECT_TRUE(saw_multilink);
}

TEST(AomPk, IdleCheckpointRetroSignsChainHead) {
    SequencerConfig cfg = scarce_signer();
    cfg.checkpoint_idle_ns = 50 * sim::kMicrosecond;
    Deployment d(4, AuthVariant::kPublicKey, NetworkTrust::kCrashOnly, 1,
                 crypto::CryptoMode::kReal, 1, cfg);
    // Exhaust stock, then stop sending: the tail of the burst is unsigned
    // and must be released by an idle checkpoint rather than stall forever.
    for (int i = 0; i < 10; ++i) d.sender->send_payload(to_bytes("t" + std::to_string(i)));
    d.sim.run();
    for (auto& host : d.hosts) {
        std::size_t messages = 0;
        for (const auto& del : host->deliveries) {
            if (del.kind == Delivery::Kind::kMessage) ++messages;
        }
        EXPECT_EQ(messages, 10u) << "burst tail stalled without checkpoint";
    }
}

TEST(AomPk, ForgedUnsignedPacketNeverDelivered) {
    Deployment d(4, AuthVariant::kPublicKey);
    // Inject a fake "sequenced" packet claiming seq 1 before the real one.
    PkPacket fake;
    fake.group = Deployment::kGroup;
    fake.epoch = 1;
    fake.seq = 1;
    fake.payload = to_bytes("evil");
    fake.digest = crypto::sha256(fake.payload);
    fake.prev_chain = chain_genesis(Deployment::kGroup, 1);
    d.net.send(Deployment::kSenderId, Deployment::kReceiverBase, fake.serialize());
    d.sim.run_until(5 * sim::kMicrosecond);
    d.sender->send_payload(to_bytes("honest"));
    d.sim.run();

    // The receiver that saw the forgery: the signed honest packet replaces
    // the fake (signature wins), so "evil" must never be delivered.
    for (const auto& del : d.hosts[0]->deliveries) {
        if (del.kind == Delivery::Kind::kMessage) {
            EXPECT_NE(to_string(del.payload), "evil");
        }
    }
    bool delivered_honest = false;
    for (const auto& del : d.hosts[0]->deliveries) {
        if (del.kind == Delivery::Kind::kMessage && to_string(del.payload) == "honest") {
            delivered_honest = true;
        }
    }
    EXPECT_TRUE(delivered_honest);
}

TEST(AomPk, ForgedSignatureRejected) {
    Deployment d(4, AuthVariant::kPublicKey);
    PkPacket fake;
    fake.group = Deployment::kGroup;
    fake.epoch = 1;
    fake.seq = 1;
    fake.payload = to_bytes("evil");
    fake.digest = crypto::sha256(fake.payload);
    fake.prev_chain = chain_genesis(Deployment::kGroup, 1);
    fake.signature = Bytes(64, 0x42);
    d.net.send(Deployment::kSenderId, Deployment::kReceiverBase, fake.serialize());
    d.sim.run_until(sim::kMillisecond);
    EXPECT_TRUE(d.hosts[0]->deliveries.empty());
    EXPECT_GE(d.hosts[0]->receiver().rejected_packets(), 1u);
}

TEST(AomPk, DropNotificationOnGap) {
    Deployment d(4, AuthVariant::kPublicKey);
    bool drop_active = true;
    d.net.set_tamper([&drop_active](NodeId from, NodeId to, Bytes&) {
        if (drop_active && from == Deployment::kSwitchBase && to == Deployment::kReceiverBase) {
            return sim::TamperAction::kDrop;
        }
        return sim::TamperAction::kDeliver;
    });
    d.sender->send_payload(to_bytes("gone"));
    d.sim.run_until(10 * sim::kMicrosecond);
    drop_active = false;
    d.sender->send_payload(to_bytes("kept"));
    d.sim.run();

    ASSERT_EQ(d.hosts[0]->deliveries.size(), 2u);
    EXPECT_EQ(d.hosts[0]->deliveries[0].kind, Delivery::Kind::kDropNotification);
    EXPECT_EQ(d.hosts[0]->deliveries[0].seq, 1u);
    EXPECT_EQ(to_string(d.hosts[0]->deliveries[1].payload), "kept");
}

TEST(AomPk, LateArrivalAfterGapAuthenticationViaStoredChain) {
    // Packet 1 is delayed (not dropped); packet 2's signature authenticates
    // C_1 via its prev field; when packet 1 finally arrives it must
    // authenticate against the stored chain value and deliver if the gap
    // timer has not fired yet.
    Deployment d(4, AuthVariant::kPublicKey, NetworkTrust::kCrashOnly, 1,
                 crypto::CryptoMode::kReal, 1, SequencerConfig{},
                 ReceiverOptions{.gap_timeout = 10 * sim::kMillisecond});
    // Heavy jitter on the switch->receiver0 link reorders packets; signed
    // later packets then authenticate earlier unsigned ones retroactively
    // through the stored chain values.
    sim::LinkConfig jittery = d.net.default_link();
    jittery.jitter = 200 * sim::kMicrosecond;
    d.net.set_link(Deployment::kSwitchBase, Deployment::kReceiverBase, jittery);
    for (int i = 0; i < 20; ++i) d.sender->send_payload(to_bytes("j" + std::to_string(i)));
    d.sim.run();
    std::size_t messages = 0;
    SeqNum prev = 0;
    for (const auto& del : d.hosts[0]->deliveries) {
        if (del.kind == Delivery::Kind::kMessage) {
            ++messages;
            EXPECT_GT(del.seq, prev);
            prev = del.seq;
        }
    }
    EXPECT_EQ(messages, 20u);  // long gap timeout: all eventually delivered in order
}

TEST(AomPk, OldEpochPacketsIgnoredAfterEpochSwitch) {
    Deployment d(4, AuthVariant::kPublicKey, NetworkTrust::kCrashOnly, 1,
                 crypto::CryptoMode::kReal, 2);
    d.sender->send_payload(to_bytes("epoch1"));
    d.sim.run();
    ASSERT_EQ(d.hosts[0]->deliveries.size(), 1u);

    // Move everyone to epoch 2 on switch 2.
    for (auto& host : d.hosts) host->receiver().start_epoch(2, d.switches[1]->id());
    d.switches[1]->install_group(d.config->group_config(Deployment::kGroup), 2);

    // Old switch still emits epoch-1 packets: ignored.
    d.sender->send_payload(to_bytes("stale"));
    d.sim.run();
    EXPECT_EQ(d.hosts[0]->deliveries.size(), 1u);

    // Traffic through the new switch delivers with seq restarting at 1.
    DataPacket pkt;
    pkt.group = Deployment::kGroup;
    pkt.payload = to_bytes("epoch2");
    pkt.digest = crypto::sha256(pkt.payload);
    d.net.send(Deployment::kSenderId, d.switches[1]->id(), pkt.serialize());
    d.sim.run();
    ASSERT_EQ(d.hosts[0]->deliveries.size(), 2u);
    EXPECT_EQ(d.hosts[0]->deliveries[1].epoch, 2u);
    EXPECT_EQ(d.hosts[0]->deliveries[1].seq, 1u);
}

}  // namespace
}  // namespace neo::aom
