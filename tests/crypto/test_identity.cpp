#include "crypto/identity.hpp"

#include <gtest/gtest.h>

namespace neo::crypto {
namespace {

class IdentityTest : public ::testing::TestWithParam<CryptoMode> {
  protected:
    TrustRoot root{GetParam(), /*seed=*/7};
};

TEST_P(IdentityTest, SignVerify) {
    auto alice = root.provision(1);
    auto bob = root.provision(2);
    Bytes msg = to_bytes("request payload");
    Bytes sig = alice->sign(msg);
    EXPECT_EQ(sig.size(), kSignatureSize);
    EXPECT_TRUE(bob->verify(1, msg, sig));
}

TEST_P(IdentityTest, WrongSignerRejected) {
    auto alice = root.provision(1);
    auto bob = root.provision(2);
    Bytes msg = to_bytes("payload");
    Bytes sig = alice->sign(msg);
    EXPECT_FALSE(bob->verify(2, msg, sig));
}

TEST_P(IdentityTest, TamperedMessageRejected) {
    auto alice = root.provision(1);
    auto bob = root.provision(2);
    Bytes msg = to_bytes("payload");
    Bytes sig = alice->sign(msg);
    Bytes tampered = msg;
    tampered[0] ^= 1;
    EXPECT_FALSE(bob->verify(1, tampered, sig));
}

TEST_P(IdentityTest, TamperedSignatureRejected) {
    auto alice = root.provision(1);
    auto bob = root.provision(2);
    Bytes msg = to_bytes("payload");
    Bytes sig = alice->sign(msg);
    sig[5] ^= 0x10;
    EXPECT_FALSE(bob->verify(1, msg, sig));
}

TEST_P(IdentityTest, TruncatedSignatureRejected) {
    auto alice = root.provision(1);
    auto bob = root.provision(2);
    Bytes sig = alice->sign(to_bytes("m"));
    sig.pop_back();
    EXPECT_FALSE(bob->verify(1, to_bytes("m"), sig));
}

TEST_P(IdentityTest, PairwiseMacs) {
    auto alice = root.provision(1);
    auto bob = root.provision(2);
    Bytes msg = to_bytes("prepare digest");
    Bytes tag = alice->mac_for(2, msg);
    EXPECT_EQ(tag.size(), kMacSize);
    EXPECT_TRUE(bob->check_mac_from(1, msg, tag));
    EXPECT_TRUE(bob->check_mac_from(1, msg, tag));  // cached key

    // Peer ids from decoded messages can be anything, including ids far past
    // any node's key table; they still get the right pairwise key.
    auto far = root.provision(kInvalidNode);
    EXPECT_TRUE(alice->check_mac_from(kInvalidNode, msg, far->mac_for(1, msg)));
    EXPECT_TRUE(far->check_mac_from(1, msg, alice->mac_for(kInvalidNode, msg)));
}

TEST_P(IdentityTest, MacWrongPeerRejected) {
    auto alice = root.provision(1);
    auto bob = root.provision(2);
    auto carol = root.provision(3);
    Bytes msg = to_bytes("x");
    Bytes tag = alice->mac_for(2, msg);
    // Carol shares a different key with Alice.
    EXPECT_FALSE(carol->check_mac_from(1, msg, tag));
}

TEST_P(IdentityTest, MacTamperRejected) {
    auto alice = root.provision(1);
    auto bob = root.provision(2);
    Bytes msg = to_bytes("x");
    Bytes tag = alice->mac_for(2, msg);
    tag[0] ^= 1;
    EXPECT_FALSE(bob->check_mac_from(1, msg, tag));
}

TEST_P(IdentityTest, CostMeterAccumulates) {
    auto alice = root.provision(1);
    const auto& costs = root.costs();
    EXPECT_EQ(alice->meter().drain(), 0);
    EXPECT_EQ(alice->meter().drain_async(), 0);
    (void)alice->sign(to_bytes("m"));
    EXPECT_EQ(alice->meter().drain(), costs.ecdsa_dispatch_ns);
    EXPECT_EQ(alice->meter().drain_async(), costs.ecdsa_sign_ns);
    EXPECT_EQ(alice->meter().signs, 1u);
    (void)alice->mac_for(2, to_bytes("m"));
    (void)alice->mac_for(2, to_bytes("m2"));
    EXPECT_EQ(alice->meter().drain(), 2 * costs.mac_ns);
    EXPECT_EQ(alice->meter().macs, 2u);
}

TEST_P(IdentityTest, HashChargesSizeDependentCost) {
    auto alice = root.provision(1);
    const auto& costs = root.costs();
    (void)alice->hash(Bytes(100, 0));
    EXPECT_EQ(alice->meter().drain(), costs.hash_base_ns + 100 * costs.hash_per_byte_ns);
}

TEST_P(IdentityTest, UnmeteredVerifyMatchesMetered) {
    auto alice = root.provision(1);
    Bytes msg = to_bytes("m");
    Bytes sig = alice->sign(msg);
    EXPECT_TRUE(root.verify_unmetered(1, msg, sig));
    EXPECT_FALSE(root.verify_unmetered(2, msg, sig));
}

TEST_P(IdentityTest, DeterministicAcrossRoots) {
    TrustRoot root2{GetParam(), /*seed=*/7};
    auto a1 = root.provision(1);
    auto a2 = root2.provision(1);
    Bytes msg = to_bytes("m");
    EXPECT_EQ(a1->sign(msg), a2->sign(msg));
}

TEST_P(IdentityTest, DifferentSeedsDifferentKeys) {
    TrustRoot other{GetParam(), /*seed=*/8};
    auto a1 = root.provision(1);
    auto a2 = other.provision(1);
    Bytes msg = to_bytes("m");
    EXPECT_NE(a1->sign(msg), a2->sign(msg));
}

INSTANTIATE_TEST_SUITE_P(Modes, IdentityTest,
                         ::testing::Values(CryptoMode::kReal, CryptoMode::kModeled),
                         [](const auto& info) {
                             return info.param == CryptoMode::kReal ? "Real" : "Modeled";
                         });

TEST(IdentityReal, PublicKeyLookup) {
    TrustRoot root{CryptoMode::kReal, 3};
    auto alice = root.provision(9);
    const EcdsaPublicKey& pk = root.public_key(9);
    EXPECT_TRUE(pk.q.on_curve());
    EXPECT_FALSE(pk.q.infinity);
}

TEST(IdentityModes, RealAndModeledSignaturesDiffer) {
    TrustRoot real{CryptoMode::kReal, 5};
    TrustRoot modeled{CryptoMode::kModeled, 5};
    auto ar = real.provision(1);
    auto am = modeled.provision(1);
    EXPECT_NE(ar->sign(to_bytes("m")), am->sign(to_bytes("m")));
}

// ---------- host-side fast paths must not change virtual charging ----------

struct Charge {
    std::int64_t sync, async;
    std::uint64_t verifies;
    friend bool operator==(const Charge&, const Charge&) = default;
};

Charge drain(NodeCrypto& c) {
    Charge ch{c.meter().drain(), c.meter().drain_async(), c.meter().verifies};
    c.meter().reset_counters();
    return ch;
}

TEST(IdentityBatch, BatchAndMemoPathsChargeIdenticalVirtualCost) {
    // Three host paths resolve the same verify_batch call: cold batch
    // verification, and memo hits on the same node and on a fresh node.
    // The virtual CostMeter charge must be identical on all of them —
    // host optimisations are invisible to the simulation.
    TrustRoot root{CryptoMode::kReal, 17};
    auto signer = root.provision(1);
    std::vector<NodeCrypto::BatchItem> items;
    std::vector<Bytes> sigs;
    for (int i = 0; i < 6; ++i) {
        Bytes msg = to_bytes("batched message " + std::to_string(i));
        sigs.push_back(signer->sign(msg));
        items.push_back({1, msg, BytesView()});
    }
    for (int i = 0; i < 6; ++i) items[static_cast<std::size_t>(i)].sig = sigs[static_cast<std::size_t>(i)];

    auto verify_all = [&](NodeCrypto& c) {
        std::vector<bool> out = c.verify_batch(items);
        for (bool ok : out) EXPECT_TRUE(ok);
        return drain(c);
    };

    auto cold = root.provision(2);
    Charge batch_cold = verify_all(*cold);      // batch path, all misses
    Charge memo_warm = verify_all(*cold);       // same node: memo hits
    auto shared_warm_node = root.provision(3);  // fresh node: memo hits too
    Charge shared_warm = verify_all(*shared_warm_node);

    const auto& costs = root.costs();
    EXPECT_EQ(batch_cold.sync, costs.ecdsa_dispatch_ns);
    EXPECT_EQ(batch_cold.async, 6 * costs.ecdsa_verify_ns);
    EXPECT_EQ(batch_cold.verifies, 6u);
    EXPECT_EQ(memo_warm, batch_cold);
    EXPECT_EQ(shared_warm, batch_cold);

    // And the host counters prove the paths actually differed.
    EXPECT_EQ(cold->batch_stats().batches, 1u);
    EXPECT_EQ(cold->batch_stats().fast_path_batches, 1u);
    EXPECT_EQ(shared_warm_node->batch_stats().batches, 0u);  // memo short-circuit
    EXPECT_EQ(root.memo_stats().hits, 12u);
}

TEST(IdentityBatch, ForgedSignatureIsolatedThroughNodeCrypto) {
    TrustRoot root{CryptoMode::kReal, 18};
    auto signer = root.provision(1);
    auto other = root.provision(2);
    auto verifier = root.provision(3);

    std::vector<Bytes> msgs;
    std::vector<Bytes> sigs;
    for (int i = 0; i < 5; ++i) {
        msgs.push_back(to_bytes("confirm " + std::to_string(i)));
        sigs.push_back(signer->sign(msgs.back()));
    }
    sigs[3] = other->sign(msgs[3]);  // forged: wrong key for claimed signer

    std::vector<NodeCrypto::BatchItem> items;
    for (int i = 0; i < 5; ++i) {
        items.push_back({1, msgs[static_cast<std::size_t>(i)], sigs[static_cast<std::size_t>(i)]});
    }
    std::vector<bool> out = verifier->verify_batch(items);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i != 3) << i;
    EXPECT_EQ(verifier->batch_stats().bisect_batches, 1u);
    EXPECT_EQ(verifier->batch_stats().leaf_rechecks, 1u);
    EXPECT_EQ(verifier->meter().verifies, 5u);  // virtual count unaffected
}

}  // namespace
}  // namespace neo::crypto
