// Log hash chain + quorum-certificate validation.
#include "neobft/log.hpp"

#include <gtest/gtest.h>

#include "crypto/sha256.hpp"

namespace neo::neobft {
namespace {

LogEntry request_entry(std::string_view payload) {
    aom::OrderingCert oc;
    oc.payload = to_bytes(payload);
    oc.digest = crypto::sha256(oc.payload);
    LogEntry e;
    e.cert = std::move(oc);
    return e;
}

LogEntry noop_entry(std::uint64_t slot = 0) {
    GapCertificate cert;
    cert.slot = slot;
    LogEntry e;
    e.cert = cert;
    return e;
}

TEST(NeoLog, AppendExtendsChain) {
    Log log;
    EXPECT_EQ(log.size(), 0u);
    EXPECT_EQ(log.hash_at(0), Digest32{});
    log.append(request_entry("a"));
    log.append(request_entry("b"));
    EXPECT_EQ(log.size(), 2u);
    EXPECT_NE(log.hash_at(1), log.hash_at(2));
    EXPECT_NE(log.hash_at(1), Digest32{});
}

TEST(NeoLog, ChainIsDeterministic) {
    Log a, b;
    for (int i = 0; i < 5; ++i) {
        a.append(request_entry("op" + std::to_string(i)));
        b.append(request_entry("op" + std::to_string(i)));
    }
    for (std::uint64_t s = 1; s <= 5; ++s) EXPECT_EQ(a.hash_at(s), b.hash_at(s));
}

TEST(NeoLog, ChainDependsOnContentAndOrder) {
    Log a, b;
    a.append(request_entry("x"));
    a.append(request_entry("y"));
    b.append(request_entry("y"));
    b.append(request_entry("x"));
    EXPECT_NE(a.hash_at(2), b.hash_at(2));
}

TEST(NeoLog, NoOpChangesChain) {
    Log a, b;
    a.append(request_entry("x"));
    b.append(noop_entry());
    EXPECT_NE(a.hash_at(1), b.hash_at(1));
}

TEST(NeoLog, ReplaceRechainsSuffix) {
    Log log;
    log.append(request_entry("a"));
    log.append(request_entry("b"));
    log.append(request_entry("c"));
    Digest32 old3 = log.hash_at(3);
    log.replace(2, noop_entry());
    EXPECT_TRUE(log.at(2).noop());
    EXPECT_NE(log.hash_at(3), old3);
    // Slot 1 untouched.
    Log fresh;
    fresh.append(request_entry("a"));
    EXPECT_EQ(log.hash_at(1), fresh.hash_at(1));
}

TEST(NeoLog, TruncateRemovesTail) {
    Log log;
    for (int i = 0; i < 5; ++i) log.append(request_entry(std::to_string(i)));
    log.truncate_to(2);
    EXPECT_EQ(log.size(), 2u);
    EXPECT_TRUE(log.has(2));
    EXPECT_FALSE(log.has(3));
}

TEST(NeoLog, GcPrefixDropsEntriesButKeepsTheChain) {
    Log log, full;
    for (int i = 0; i < 8; ++i) {
        log.append(request_entry("op" + std::to_string(i)));
        full.append(request_entry("op" + std::to_string(i)));
    }
    log.gc_prefix(5);
    EXPECT_EQ(log.base(), 5u);
    EXPECT_EQ(log.size(), 8u);  // slot numbers stay absolute
    EXPECT_FALSE(log.has(5));
    EXPECT_TRUE(log.has(6));
    // The chain anchor survives: hashes of retained slots (and the base
    // itself) match an un-GC'd log with the same history.
    for (std::uint64_t s = 5; s <= 8; ++s) EXPECT_EQ(log.hash_at(s), full.hash_at(s));
    // Appending after GC continues the same chain.
    log.append(request_entry("tail"));
    full.append(request_entry("tail"));
    EXPECT_EQ(log.hash_at(9), full.hash_at(9));
}

TEST(NeoLog, GcPrefixIsIdempotentAndMonotonic) {
    Log log;
    for (int i = 0; i < 6; ++i) log.append(request_entry(std::to_string(i)));
    log.gc_prefix(4);
    Digest32 anchor = log.hash_at(4);
    log.gc_prefix(4);  // same slot: no-op
    log.gc_prefix(2);  // below base: no-op
    EXPECT_EQ(log.base(), 4u);
    EXPECT_EQ(log.hash_at(4), anchor);
    log.gc_prefix(6);  // advance further
    EXPECT_EQ(log.base(), 6u);
    EXPECT_EQ(log.size(), 6u);
}

TEST(NeoLog, ResetBaseInstallsAFetchedCheckpoint) {
    // A recovering replica that fetched checkpoint state at slot 100
    // restarts its log there with the certified cumulative hash.
    Log donor;
    for (int i = 0; i < 10; ++i) donor.append(request_entry(std::to_string(i)));
    Digest32 anchor = donor.hash_at(10);

    Log log;
    log.append(request_entry("stale"));
    log.reset_base(10, anchor);
    EXPECT_EQ(log.base(), 10u);
    EXPECT_EQ(log.size(), 10u);
    EXPECT_EQ(log.hash_at(10), anchor);
    // The chain continues identically on both replicas from here.
    donor.append(request_entry("next"));
    log.append(request_entry("next"));
    EXPECT_EQ(log.hash_at(11), donor.hash_at(11));
}

TEST(NeoLog, TruncateRespectsTheGcBase) {
    Log log;
    for (int i = 0; i < 8; ++i) log.append(request_entry(std::to_string(i)));
    log.gc_prefix(4);
    log.truncate_to(6);  // tail rollback above the base is fine
    EXPECT_EQ(log.size(), 6u);
    EXPECT_EQ(log.base(), 4u);
    log.truncate_to(4);  // down to exactly the base: empty retained window
    EXPECT_EQ(log.size(), 4u);
    EXPECT_FALSE(log.has(4));
}

TEST(NeoLog, WireEntryRoundTrips) {
    Log log;
    log.append(request_entry("payload"));
    log.append(noop_entry(2));
    EXPECT_FALSE(log.wire_entry(1).noop);
    EXPECT_EQ(log.wire_entry(1).oc.digest, log.at(1).oc().digest);
    EXPECT_TRUE(log.wire_entry(2).noop);
    EXPECT_EQ(log.wire_entry(2).gap_cert.slot, 2u);
}

class CertValidation : public ::testing::Test {
  protected:
    CertValidation() : root(crypto::CryptoMode::kReal, 7) {
        cfg.replicas = {1, 2, 3, 4};
        cfg.f = 1;
        for (NodeId r : cfg.replicas) nodes[r] = root.provision(r);
        verifier = root.provision(99);
    }

    GapCertificate make_gap_cert(std::uint64_t slot, bool recv, std::vector<NodeId> signers) {
        GapCertificate cert;
        cert.view = {1, 0};
        cert.slot = slot;
        cert.recv = recv;
        for (NodeId r : signers) {
            GapCommit c;
            c.view = cert.view;
            c.replica = r;
            c.slot = slot;
            c.recv = recv;
            cert.commits.push_back({r, nodes[r]->sign(c.signed_body())});
        }
        return cert;
    }

    crypto::TrustRoot root;
    Config cfg;
    std::map<NodeId, std::unique_ptr<crypto::NodeCrypto>> nodes;
    std::unique_ptr<crypto::NodeCrypto> verifier;
};

TEST_F(CertValidation, ValidGapCertAccepted) {
    auto cert = make_gap_cert(5, false, {1, 2, 3});
    EXPECT_TRUE(verify_gap_certificate(cert, cfg, *verifier));
}

TEST_F(CertValidation, UndersizedGapCertRejected) {
    auto cert = make_gap_cert(5, false, {1, 2});
    EXPECT_FALSE(verify_gap_certificate(cert, cfg, *verifier));
}

TEST_F(CertValidation, DuplicateSignersRejected) {
    auto cert = make_gap_cert(5, false, {1, 2, 3});
    cert.commits[2] = cert.commits[0];  // 1,2,1
    EXPECT_FALSE(verify_gap_certificate(cert, cfg, *verifier));
}

TEST_F(CertValidation, NonMemberSignerIgnored) {
    auto cert = make_gap_cert(5, false, {1, 2, 3});
    cert.commits[2].replica = 77;
    EXPECT_FALSE(verify_gap_certificate(cert, cfg, *verifier));
}

TEST_F(CertValidation, WrongSlotSignatureRejected) {
    auto cert = make_gap_cert(5, false, {1, 2, 3});
    cert.slot = 6;  // signatures cover slot 5
    EXPECT_FALSE(verify_gap_certificate(cert, cfg, *verifier));
}

TEST_F(CertValidation, FlippedDecisionRejected) {
    auto cert = make_gap_cert(5, false, {1, 2, 3});
    cert.recv = true;
    EXPECT_FALSE(verify_gap_certificate(cert, cfg, *verifier));
}

TEST_F(CertValidation, EpochCert) {
    EpochCertificate cert;
    cert.epoch = 2;
    cert.slot = 40;
    for (NodeId r : {1u, 2u, 3u}) {
        EpochStart e;
        e.epoch = 2;
        e.replica = r;
        e.slot = 40;
        cert.sigs.push_back({r, nodes[r]->sign(e.signed_body())});
    }
    EXPECT_TRUE(verify_epoch_certificate(cert, cfg, *verifier));
    cert.slot = 41;
    EXPECT_FALSE(verify_epoch_certificate(cert, cfg, *verifier));
}

TEST_F(CertValidation, SyncCert) {
    SyncCertificate cert;
    cert.view = {1, 0};
    cert.slot = 128;
    cert.log_hash = crypto::sha256("prefix");
    for (NodeId r : {2u, 3u, 4u}) {
        SyncMsg m;
        m.view = cert.view;
        m.replica = r;
        m.slot = cert.slot;
        m.log_hash = cert.log_hash;
        cert.sigs.push_back({r, nodes[r]->sign(m.signed_body())});
    }
    EXPECT_TRUE(verify_sync_certificate(cert, cfg, *verifier));
    cert.log_hash = crypto::sha256("other");
    EXPECT_FALSE(verify_sync_certificate(cert, cfg, *verifier));
}

TEST_F(CertValidation, SyncCertCoversTheAppHash) {
    // Regression: verification used to rebuild the signed body with a zero
    // app_hash, rejecting every certificate taken with checkpointing
    // enabled — which wedged crash recovery (on_ckpt_meta dropped all
    // offers) and view changes carrying checkpoint certs.
    SyncCertificate cert;
    cert.view = {1, 0};
    cert.slot = 128;
    cert.log_hash = crypto::sha256("prefix");
    cert.app_hash = crypto::sha256("snapshot-root");
    for (NodeId r : {2u, 3u, 4u}) {
        SyncMsg m;
        m.view = cert.view;
        m.replica = r;
        m.slot = cert.slot;
        m.log_hash = cert.log_hash;
        m.app_hash = cert.app_hash;
        cert.sigs.push_back({r, nodes[r]->sign(m.signed_body())});
    }
    EXPECT_TRUE(verify_sync_certificate(cert, cfg, *verifier));
    // And the root is bound: a substituted snapshot root must not verify.
    cert.app_hash = crypto::sha256("evil-root");
    EXPECT_FALSE(verify_sync_certificate(cert, cfg, *verifier));
}

TEST(NeoConfig, LeaderRotation) {
    Config cfg;
    cfg.replicas = {10, 20, 30, 40};
    cfg.f = 1;
    EXPECT_EQ(cfg.leader_of({1, 0}), 10u);
    EXPECT_EQ(cfg.leader_of({1, 1}), 20u);
    EXPECT_EQ(cfg.leader_of({1, 4}), 10u);
    EXPECT_EQ(cfg.leader_of({2, 1}), 20u);
    EXPECT_EQ(cfg.quorum(), 3u);
    EXPECT_EQ(cfg.others(20), (std::vector<NodeId>{10, 30, 40}));
}

}  // namespace
}  // namespace neo::neobft
