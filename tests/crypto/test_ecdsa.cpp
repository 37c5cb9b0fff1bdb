#include <gtest/gtest.h>

#include "common/hex.hpp"
#include "common/rng.hpp"
#include "crypto/secp256k1.hpp"
#include "crypto/sha256.hpp"

namespace neo::crypto {
namespace {

struct KeyPair {
    EcdsaPrivateKey priv;
    EcdsaPublicKey pub;
};

KeyPair make_keys(std::uint64_t seed) {
    Rng rng(seed);
    EcdsaPrivateKey priv = EcdsaPrivateKey::from_seed(rng.bytes(32));
    return {priv, ecdsa_derive_public(priv)};
}

TEST(Ecdsa, SignVerifyRoundTrip) {
    KeyPair kp = make_keys(1);
    Digest32 h = sha256("commit request 42");
    EcdsaSignature sig = ecdsa_sign(kp.priv, h);
    EXPECT_TRUE(ecdsa_verify(kp.pub, h, sig));
}

TEST(Ecdsa, Deterministic) {
    KeyPair kp = make_keys(2);
    Digest32 h = sha256("message");
    EXPECT_EQ(ecdsa_sign(kp.priv, h), ecdsa_sign(kp.priv, h));
}

TEST(Ecdsa, DifferentMessagesDifferentSignatures) {
    KeyPair kp = make_keys(3);
    EXPECT_NE(ecdsa_sign(kp.priv, sha256("a")), ecdsa_sign(kp.priv, sha256("b")));
}

TEST(Ecdsa, WrongMessageRejected) {
    KeyPair kp = make_keys(4);
    EcdsaSignature sig = ecdsa_sign(kp.priv, sha256("real"));
    EXPECT_FALSE(ecdsa_verify(kp.pub, sha256("forged"), sig));
}

TEST(Ecdsa, WrongKeyRejected) {
    KeyPair signer = make_keys(5);
    KeyPair other = make_keys(6);
    Digest32 h = sha256("msg");
    EcdsaSignature sig = ecdsa_sign(signer.priv, h);
    EXPECT_FALSE(ecdsa_verify(other.pub, h, sig));
}

TEST(Ecdsa, TamperedSignatureComponentsRejected) {
    KeyPair kp = make_keys(7);
    Digest32 h = sha256("msg");
    EcdsaSignature sig = ecdsa_sign(kp.priv, h);

    EcdsaSignature bad_r = sig;
    bad_r.r = sig.r.add(Scalar::one());
    EXPECT_FALSE(ecdsa_verify(kp.pub, h, bad_r));

    EcdsaSignature bad_s = sig;
    bad_s.s = sig.s.add(Scalar::one());
    EXPECT_FALSE(ecdsa_verify(kp.pub, h, bad_s));
}

TEST(Ecdsa, SerializeParseRoundTrip) {
    KeyPair kp = make_keys(8);
    EcdsaSignature sig = ecdsa_sign(kp.priv, sha256("x"));
    Bytes wire = sig.serialize();
    EXPECT_EQ(wire.size(), 64u);
    auto parsed = EcdsaSignature::parse(wire);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, sig);
}

TEST(Ecdsa, ParseRejectsZeroComponents) {
    Bytes zeros(64, 0);
    EXPECT_FALSE(EcdsaSignature::parse(zeros).has_value());
}

TEST(Ecdsa, ParseRejectsOutOfRange) {
    Bytes wire(64, 0xff);  // r = s = 2^256-1 >= n
    EXPECT_FALSE(EcdsaSignature::parse(wire).has_value());
}

TEST(Ecdsa, ParseRejectsBadLength) {
    EXPECT_FALSE(EcdsaSignature::parse(Bytes(63, 1)).has_value());
}

TEST(Ecdsa, ZeroedSignatureRejectedByVerify) {
    KeyPair kp = make_keys(9);
    EcdsaSignature zero{Scalar::zero(), Scalar::zero()};
    EXPECT_FALSE(ecdsa_verify(kp.pub, sha256("m"), zero));
}

TEST(Ecdsa, PublicKeySerializeParse) {
    KeyPair kp = make_keys(10);
    auto parsed = EcdsaPublicKey::parse(kp.pub.serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->q, kp.pub.q);
}

TEST(Ecdsa, ParsePublicKeyRejectsOffCurve) {
    KeyPair kp = make_keys(11);
    Bytes b = kp.pub.serialize();
    b[10] ^= 0x40;
    EXPECT_FALSE(EcdsaPublicKey::parse(b).has_value());
}

TEST(Ecdsa, ManyKeysRoundTrip) {
    // Broad sweep: each keypair signs and verifies; cross-verification fails.
    std::vector<KeyPair> keys;
    for (std::uint64_t i = 0; i < 8; ++i) keys.push_back(make_keys(100 + i));
    Digest32 h = sha256("sweep");
    for (std::size_t i = 0; i < keys.size(); ++i) {
        EcdsaSignature sig = ecdsa_sign(keys[i].priv, h);
        for (std::size_t j = 0; j < keys.size(); ++j) {
            EXPECT_EQ(ecdsa_verify(keys[j].pub, h, sig), i == j) << i << "," << j;
        }
    }
}

TEST(Ecdsa, PrivateKeyFromSeedNeverZero) {
    EcdsaPrivateKey k = EcdsaPrivateKey::from_seed(Bytes(32, 0));
    EXPECT_FALSE(k.d.is_zero());
}

// Pins the exact bytes of derived public keys and signatures. Round-trip
// tests cannot see a change of nonce derivation or arithmetic that still
// yields a valid signature; this one can. The values were produced by the
// implementation at commit 2dffb6a (Fermat inverses, fully reduced field).
TEST(Ecdsa, PinnedKeyAndSignatureBytes) {
    struct Case {
        const char* seed;
        const char* digest;
        const char* pub;
        const char* sig;
    };
    const Case cases[] = {
        // All-zero seed: from_seed maps it to d = 1, so the public key is G.
        {"0000000000000000000000000000000000000000000000000000000000000000",
         "7f4a491a13ff7c5e4abfcc9a4af067417ec8b25f6b039ffa979d0983c60d004f",
         "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"
         "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8",
         "c7b4d4bdbd1a1a681422aed0979687cd1a2d18a9481e347c7696866064f5058d"
         "a6e59ca117d6de82318b6dc7e3fcd53da759d78c75105e5e9985b03f3bfd8937"},
        // Seed and digest above n: both are reduced mod n.
        {"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
         "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
         "9166c289b9f905e55f9e3df9f69d7f356b4a22095f894f4715714aa4b56606af"
         "f181eb966be4acb5cff9e16b66d809be94e214f06c93fd091099af98499255e7",
         "490d2b2d1bec2f5afe506c145e73714795b6055cef3b3a4ddebac2d2ac41bdef"
         "991d2f17762bde6009844441b13f7deae1eb7f7f0e9f530c101db52c32ed0754"},
        {"890201f2579c637d9ce3dbaf91184182f2e47b077a66a53039d436152afec494",
         "43364b095a1f40aef6ab67614fb129d66f1b03f0673fe8d83d7b38514edd1aa5",
         "a0e5f03c95796b1b5fce40149f9eff19f811c799c15859923c3b27769a5ac6ef"
         "49dbce264f192cba9e4bb87a06d00d29239b8480916f83efc2b0e503e18fd39b",
         "f78f1ba0de618703ed15281892f9ddd8a77126b22b160a48aa18737522c21d39"
         "253d026712fa6e2e3f34f4eca573f4f7fa5e89a2d2e6c4ad96c1686e38a2ffb2"},
        // All-zero digest: z = 0.
        {"7fd4c11a65fa20cd3da4ce7ed6d3fa55578c9e37f4268855c61a377201ca7fbe",
         "0000000000000000000000000000000000000000000000000000000000000000",
         "c7674703313518a49366d602b0622386ad579916d172ea091bea509793f16a24"
         "9557fdcc13189ec065557c336b2ccdd60dad690e18bc2d7732aa6c29b767f834",
         "df0b8b1dc660e89e2c047fd517e13c9b6d8d4bf5a6ada87cf78398c1b0a13cbd"
         "3b620659de890826aed9a6d506d7b7a6caafd5da1cdc5a56772226e12cc7faa9"},
    };
    for (const Case& c : cases) {
        EcdsaPrivateKey priv = EcdsaPrivateKey::from_seed(from_hex_strict(c.seed));
        EcdsaPublicKey pub = ecdsa_derive_public(priv);
        Bytes digest = from_hex_strict(c.digest);
        Digest32 h;
        std::copy(digest.begin(), digest.end(), h.begin());
        EcdsaSignature sig = ecdsa_sign(priv, h);
        EXPECT_EQ(to_hex(pub.serialize()), c.pub) << c.seed;
        EXPECT_EQ(to_hex(sig.serialize()), c.sig) << c.seed;
        EXPECT_TRUE(ecdsa_verify(pub, h, sig)) << c.seed;
    }
}

class EcdsaSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EcdsaSeedSweep, RoundTripAcrossSeeds) {
    KeyPair kp = make_keys(GetParam());
    Digest32 h = sha256("parameterized");
    EcdsaSignature sig = ecdsa_sign(kp.priv, h);
    EXPECT_TRUE(ecdsa_verify(kp.pub, h, sig));
    h[0] ^= 1;
    EXPECT_FALSE(ecdsa_verify(kp.pub, h, sig));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EcdsaSeedSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u, 55u, 89u));

}  // namespace
}  // namespace neo::crypto
