#include "crypto/secp256k1.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "common/hex.hpp"
#include "common/rng.hpp"

namespace neo::crypto {
namespace {

Fe fe_from_hex(std::string_view h) {
    auto f = Fe::from_be_bytes_checked(from_hex_strict(h));
    EXPECT_TRUE(f.has_value());
    return *f;
}

U256 u256_from_hex(std::string_view h) { return U256::from_be_bytes(from_hex_strict(h)); }

std::string hex32(const Digest32& d) { return to_hex(BytesView(d.data(), d.size())); }

const U256 kP = field_prime_u256();
const U256 kN = scalar_order_u256();

U256 minus(U256 x, std::uint64_t k) {
    x.v[0] -= k;  // the low limbs of p and n exceed every k used here
    return x;
}

U256 pow2(int bit) {
    U256 x;
    x.v[static_cast<std::size_t>(bit / 64)] = std::uint64_t{1} << (bit % 64);
    return x;
}

// x^e by square-and-multiply (Fe or Scalar).
template <class T>
T pow_u256(const T& x, const U256& e) {
    T r = T::one();
    for (int i = 255; i >= 0; --i) {
        r = r.sqr();
        if (e.bit(i)) r = r.mul(x);
    }
    return r;
}

// x / 3 for x divisible by 3 (long division over the limbs).
U256 div3(U256 x) {
    unsigned __int128 rem = 0;
    for (int i = 3; i >= 0; --i) {
        unsigned __int128 cur = (rem << 64) | x.v[static_cast<std::size_t>(i)];
        x.v[static_cast<std::size_t>(i)] = static_cast<std::uint64_t>(cur / 3);
        rem = cur % 3;
    }
    EXPECT_EQ(rem, 0u);
    return x;
}

// ---------- U256 ----------

TEST(U256, BeBytesRoundTrip) {
    Bytes b = from_hex_strict("0102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20");
    U256 x = U256::from_be_bytes(b);
    Digest32 back = x.to_be_bytes();
    EXPECT_TRUE(std::equal(b.begin(), b.end(), back.begin()));
}

TEST(U256, LimbLayout) {
    U256 x = u256_from_hex("0000000000000004000000000000000300000000000000020000000000000001");
    EXPECT_EQ(x.v[0], 1u);
    EXPECT_EQ(x.v[1], 2u);
    EXPECT_EQ(x.v[2], 3u);
    EXPECT_EQ(x.v[3], 4u);
}

TEST(U256, Compare) {
    U256 a = u256_from_hex("0000000000000000000000000000000000000000000000000000000000000001");
    U256 b = u256_from_hex("0000000000000000000000000000000100000000000000000000000000000000");
    EXPECT_EQ(u256_cmp(a, b), -1);
    EXPECT_EQ(u256_cmp(b, a), 1);
    EXPECT_EQ(u256_cmp(a, a), 0);
}

TEST(U256, BitAccess) {
    U256 x = u256_from_hex("8000000000000000000000000000000000000000000000000000000000000001");
    EXPECT_TRUE(x.bit(0));
    EXPECT_FALSE(x.bit(1));
    EXPECT_TRUE(x.bit(255));
}

// ---------- Field ----------

TEST(Field, AddSubInverse) {
    Rng rng(1);
    for (int i = 0; i < 50; ++i) {
        Fe a = Fe::from_u256(U256::from_be_bytes(rng.bytes(32)));
        Fe b = Fe::from_u256(U256::from_be_bytes(rng.bytes(32)));
        EXPECT_EQ(a.add(b).sub(b), a);
        EXPECT_EQ(a.sub(b).add(b), a);
    }
}

TEST(Field, AddCommutative) {
    Rng rng(2);
    for (int i = 0; i < 50; ++i) {
        Fe a = Fe::from_u256(U256::from_be_bytes(rng.bytes(32)));
        Fe b = Fe::from_u256(U256::from_be_bytes(rng.bytes(32)));
        EXPECT_EQ(a.add(b), b.add(a));
    }
}

TEST(Field, MulCommutativeAssociative) {
    Rng rng(3);
    for (int i = 0; i < 30; ++i) {
        Fe a = Fe::from_u256(U256::from_be_bytes(rng.bytes(32)));
        Fe b = Fe::from_u256(U256::from_be_bytes(rng.bytes(32)));
        Fe c = Fe::from_u256(U256::from_be_bytes(rng.bytes(32)));
        EXPECT_EQ(a.mul(b), b.mul(a));
        EXPECT_EQ(a.mul(b).mul(c), a.mul(b.mul(c)));
    }
}

TEST(Field, Distributive) {
    Rng rng(4);
    for (int i = 0; i < 30; ++i) {
        Fe a = Fe::from_u256(U256::from_be_bytes(rng.bytes(32)));
        Fe b = Fe::from_u256(U256::from_be_bytes(rng.bytes(32)));
        Fe c = Fe::from_u256(U256::from_be_bytes(rng.bytes(32)));
        EXPECT_EQ(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
    }
}

TEST(Field, MulIdentityAndZero) {
    Fe a = fe_from_hex("00000000000000000000000000000000000000000000000000000000deadbeef");
    EXPECT_EQ(a.mul(Fe::one()), a);
    EXPECT_TRUE(a.mul(Fe::zero()).is_zero());
}

TEST(Field, Inverse) {
    Rng rng(5);
    for (int i = 0; i < 20; ++i) {
        Fe a = Fe::from_u256(U256::from_be_bytes(rng.bytes(32)));
        if (a.is_zero()) continue;
        EXPECT_EQ(a.mul(a.inverse()), Fe::one());
    }
}

TEST(Field, NegateAddsToZero) {
    Rng rng(6);
    for (int i = 0; i < 20; ++i) {
        Fe a = Fe::from_u256(U256::from_be_bytes(rng.bytes(32)));
        EXPECT_TRUE(a.add(a.negate()).is_zero());
    }
    EXPECT_TRUE(Fe::zero().negate().is_zero());
}

// p-1 squared: (-1)^2 = 1.
TEST(Field, PMinusOneSquared) {
    Fe neg1 = Fe::one().negate();
    EXPECT_EQ(neg1.sqr(), Fe::one());
}

TEST(Field, KnownProduct) {
    // 2 * (p+1)/2 = 1 mod p  <=>  inverse(2) = (p+1)/2.
    Fe two = Fe::from_u64(2);
    Fe inv2 = two.inverse();
    EXPECT_EQ(two.mul(inv2), Fe::one());
    // (p+1)/2 = 7fffffff ffffffff ffffffff ffffffff ffffffff ffffffff ffffffff 7ffffe18
    Fe expect = fe_from_hex("7fffffffffffffffffffffffffffffffffffffffffffffffffffffff7ffffe18");
    EXPECT_EQ(inv2, expect);
}

TEST(Field, RejectsValueAboveP) {
    // p itself must be rejected by the checked parser.
    auto f = Fe::from_be_bytes_checked(
        from_hex_strict("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f"));
    EXPECT_FALSE(f.has_value());
    auto ok = Fe::from_be_bytes_checked(
        from_hex_strict("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2e"));
    EXPECT_TRUE(ok.has_value());
}

TEST(Field, FromU256ReducesModP) {
    // p + 5 reduces to 5.
    U256 p_plus5 = u256_from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc34");
    EXPECT_EQ(Fe::from_u256(p_plus5), Fe::from_u64(5));
}

TEST(Field, BatchInverseMatchesIndividual) {
    Rng rng(7);
    std::vector<Fe> elems;
    for (int i = 0; i < 17; ++i) {
        Fe a = Fe::from_u256(U256::from_be_bytes(rng.bytes(32)));
        if (a.is_zero()) a = Fe::one();
        elems.push_back(a);
    }
    std::vector<Fe> batch = elems;
    fe_batch_inverse(batch.data(), batch.size());
    for (std::size_t i = 0; i < elems.size(); ++i) {
        EXPECT_EQ(batch[i], elems[i].inverse()) << i;
    }
}

// Results that land on p or 0 (or, stored weakly, in [p, 2^256)) must read
// back canonical through every observer.
TEST(Field, EdgeResultsReadCanonical) {
    Fe pm1 = Fe::from_u256(minus(kP, 1));
    Fe x = fe_from_hex("00000000000000000000000000000000000000000000000000000000deadbeef");
    U256 all_ones;
    all_ones.v = {~0ull, ~0ull, ~0ull, ~0ull};
    struct Case {
        const char* name;
        Fe value;
        U256 expect;
    };
    const Case cases[] = {
        {"(p-1)+1", pm1.add(Fe::one()), U256{}},
        {"x-x", x.sub(x), U256{}},
        {"(p-1)-(p-1)", pm1.sub(pm1), U256{}},
        {"0*x", Fe::zero().mul(x), U256{}},
        {"(p-1)^2", pm1.sqr(), U256{{1, 0, 0, 0}}},
        {"(p-1)*(p-1)", pm1.mul(pm1), U256{{1, 0, 0, 0}}},
        {"(p-1)+(p-1)", pm1.add(pm1), minus(kP, 2)},
        {"-(p-1)", pm1.negate(), U256{{1, 0, 0, 0}}},
        {"from_u256(2^256-1)", Fe::from_u256(all_ones), U256{{0x1000003D0ull, 0, 0, 0}}},
        {"from_u256(p)", Fe::from_u256(kP), U256{}},
        // Carries ripple into bit 256: the stored value is 2^256 + C - 1.
        {"(2^256-1)-(p-1)", Fe::from_u256(all_ones).sub(pm1), U256{{0x1000003D1ull, 0, 0, 0}}},
        {"(p-1)+(2^256-1)+(2^256-1)", pm1.add(Fe::from_u256(all_ones)).add(Fe::from_u256(all_ones)),
         U256{{0x20000079Full, 0, 0, 0}}},
    };
    for (const Case& c : cases) {
        Fe canonical = Fe::from_u256(c.expect);
        EXPECT_EQ(c.value.raw(), c.expect) << c.name;
        EXPECT_EQ(c.value.to_be_bytes(), c.expect.to_be_bytes()) << c.name;
        EXPECT_EQ(c.value.is_zero(), c.expect.is_zero()) << c.name;
        EXPECT_EQ(c.value, canonical) << c.name;
        EXPECT_EQ(c.value.add(Fe::one()).sub(Fe::one()), canonical) << c.name;
    }
}

// The inverses equal the values the Fermat ladder and the binary GCD
// produced before the addition chains replaced the ladder.
TEST(Field, InversePinnedValues) {
    const std::pair<U256, const char*> cases[] = {
        {U256{{1, 0, 0, 0}}, "0000000000000000000000000000000000000000000000000000000000000001"},
        {U256{{2, 0, 0, 0}}, "7fffffffffffffffffffffffffffffffffffffffffffffffffffffff7ffffe18"},
        {minus(kP, 1), "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2e"},
        {pow2(255), "937a320a2aa70733388d85852be56ec3796447fdb84940b3b070123b10d03625"},
    };
    for (const auto& [x, expect] : cases) {
        Fe f = Fe::from_u256(x);
        EXPECT_EQ(hex32(f.inverse().to_be_bytes()), expect);
        EXPECT_EQ(hex32(f.inverse_vartime().to_be_bytes()), expect);
    }
}

// ---------- Scalar ----------

TEST(Scalar, AddWrapsModN) {
    // (n-1) + 2 = 1 mod n.
    Scalar n_minus1 = *Scalar::from_be_bytes_checked(
        from_hex_strict("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364140"));
    EXPECT_EQ(n_minus1.add(Scalar::from_u64(2)), Scalar::one());
}

TEST(Scalar, MulInverse) {
    Rng rng(8);
    for (int i = 0; i < 20; ++i) {
        Scalar a = Scalar::from_be_bytes_reduce(rng.bytes(32));
        if (a.is_zero()) continue;
        EXPECT_EQ(a.mul(a.inverse()), Scalar::one());
    }
}

TEST(Scalar, MulCommutative) {
    Rng rng(9);
    for (int i = 0; i < 20; ++i) {
        Scalar a = Scalar::from_be_bytes_reduce(rng.bytes(32));
        Scalar b = Scalar::from_be_bytes_reduce(rng.bytes(32));
        EXPECT_EQ(a.mul(b), b.mul(a));
    }
}

TEST(Scalar, NegateAddsToZero) {
    Rng rng(10);
    for (int i = 0; i < 20; ++i) {
        Scalar a = Scalar::from_be_bytes_reduce(rng.bytes(32));
        EXPECT_TRUE(a.add(a.negate()).is_zero());
    }
}

TEST(Scalar, CheckedParseRejectsN) {
    auto s = Scalar::from_be_bytes_checked(
        from_hex_strict("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141"));
    EXPECT_FALSE(s.has_value());
}

TEST(Scalar, ReduceHandlesMaxValue) {
    // 2^256 - 1 mod n = 2^256 - 1 - n = K - 1 where K = 2^256 - n.
    Scalar s = Scalar::from_be_bytes_reduce(Bytes(32, 0xff));
    Scalar expect = *Scalar::from_be_bytes_checked(
        from_hex_strict("000000000000000000000000000000014551231950b75fc4402da1732fc9bebe"));
    EXPECT_EQ(s, expect);
}

TEST(Scalar, WideReductionEdgeCases) {
    Scalar nm1 = Scalar::from_u256_reduce(minus(kN, 1));
    EXPECT_EQ(nm1.mul(nm1), Scalar::one());  // (-1)^2
    EXPECT_EQ(nm1.sqr(), Scalar::one());
    std::array<std::uint64_t, 8> all_ones;
    all_ones.fill(~0ull);
    EXPECT_EQ(hex32(Scalar::from_u512_reduce(all_ones).to_be_bytes()),
              "9d671cd581c69bc5e697f5e45bcd07c6741496c20e7cf878896cf21467d7d13f");
    std::array<std::uint64_t, 8> two_256 = {0, 0, 0, 0, 1, 0, 0, 0};
    EXPECT_EQ(hex32(Scalar::from_u512_reduce(two_256).to_be_bytes()),
              "000000000000000000000000000000014551231950b75fc4402da1732fc9bebf");
    // Chosen so the second fold leaves exactly 2^257 - 1 and the third one
    // carries past 2^256 (random inputs reach that with probability ~2^-124).
    std::array<std::uint64_t, 8> third_fold_carries = {
        0xce4bae2cc83a24b7ull, 0x803e4aa9906f95d3ull, 0, 0,
        0x951d884b3ed398bfull, 0x04abb7987120e74bull, 0x90b6e3cd8d592676ull, 0x9e87383ed50ad6e2ull};
    EXPECT_EQ(hex32(Scalar::from_u512_reduce(third_fold_carries).to_be_bytes()),
              "000000000000000000000000000000028aa24632a16ebf88805b42e65f937d7d");
    Scalar max256 = Scalar::from_be_bytes_reduce(Bytes(32, 0xff));
    EXPECT_EQ(hex32(max256.mul(max256).to_be_bytes()),
              "9d671cd581c69bc5e697f5e45bcd07c3e972508f6d0e38f00911af2e084453c3");
    // Products whose high half is zero reduce to themselves.
    Scalar a = Scalar::from_u256_reduce(
        u256_from_hex("0000000000000000000000000000000000000010000000000000000000003039"));
    Scalar b = Scalar::from_u256_reduce(
        u256_from_hex("0000000000000000000000000000000001000000000000000000000000000007"));
    EXPECT_EQ(hex32(a.mul(b).to_be_bytes()),
              "000000001000000000000000000000303900007000000000000000000001518f");
    EXPECT_EQ(a.mul(Scalar::one()), a);
    EXPECT_TRUE(a.mul(Scalar::zero()).is_zero());
}

TEST(Scalar, InversePinnedValues) {
    const std::pair<U256, const char*> cases[] = {
        {U256{{1, 0, 0, 0}}, "0000000000000000000000000000000000000000000000000000000000000001"},
        {U256{{2, 0, 0, 0}}, "7fffffffffffffffffffffffffffffff5d576e7357a4501ddfe92f46681b20a1"},
        {minus(kN, 1), "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364140"},
        {pow2(255), "b3d1121ac929df2712fe61824f9f56bbbcc8cbc65001783d4227e69a30f93eeb"},
    };
    for (const auto& [x, expect] : cases) {
        Scalar s = Scalar::from_u256_reduce(x);
        EXPECT_EQ(hex32(s.inverse().to_be_bytes()), expect);
        EXPECT_EQ(hex32(s.inverse_vartime().to_be_bytes()), expect);
    }
}

// ---------- Group ----------

TEST(Point, GeneratorOnCurve) {
    EXPECT_TRUE(AffinePoint::generator().on_curve());
}

TEST(Point, KnownDoubleOfG) {
    AffinePoint g2 = point_mul(AffinePoint::generator(), Scalar::from_u64(2));
    EXPECT_EQ(to_hex(BytesView(g2.x.to_be_bytes().data(), 32)),
              "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5");
    EXPECT_EQ(to_hex(BytesView(g2.y.to_be_bytes().data(), 32)),
              "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a");
}

TEST(Point, GeneratorMulMatchesPointMul) {
    Rng rng(11);
    for (int i = 0; i < 10; ++i) {
        Scalar k = Scalar::from_be_bytes_reduce(rng.bytes(32));
        EXPECT_EQ(generator_mul(k), point_mul(AffinePoint::generator(), k)) << i;
    }
}

TEST(Point, SmallMultiplesViaAddition) {
    AffinePoint g = AffinePoint::generator();
    AffinePoint acc = g;
    for (std::uint64_t k = 2; k <= 16; ++k) {
        acc = point_add(acc, g);
        EXPECT_EQ(acc, generator_mul(Scalar::from_u64(k))) << k;
        EXPECT_TRUE(acc.on_curve()) << k;
    }
}

TEST(Point, NTimesGIsIdentity) {
    // n * G = infinity; (n-1) * G = -G.
    Scalar n_minus1 = Scalar::zero().add(Scalar::from_u64(1).negate());
    AffinePoint neg_g = generator_mul(n_minus1);
    AffinePoint g = AffinePoint::generator();
    EXPECT_EQ(neg_g.x, g.x);
    EXPECT_EQ(neg_g.y, g.y.negate());
    AffinePoint identity = point_add(neg_g, g);
    EXPECT_TRUE(identity.infinity);
}

TEST(Point, AdditionCommutative) {
    AffinePoint a = generator_mul(Scalar::from_u64(5));
    AffinePoint b = generator_mul(Scalar::from_u64(11));
    EXPECT_EQ(point_add(a, b), point_add(b, a));
}

TEST(Point, AdditionMatchesScalarSum) {
    Rng rng(12);
    for (int i = 0; i < 8; ++i) {
        Scalar a = Scalar::from_be_bytes_reduce(rng.bytes(32));
        Scalar b = Scalar::from_be_bytes_reduce(rng.bytes(32));
        AffinePoint lhs = point_add(generator_mul(a), generator_mul(b));
        AffinePoint rhs = generator_mul(a.add(b));
        EXPECT_EQ(lhs, rhs) << i;
    }
}

TEST(Point, IdentityIsNeutral) {
    AffinePoint g = AffinePoint::generator();
    AffinePoint inf;
    EXPECT_EQ(point_add(g, inf), g);
    EXPECT_EQ(point_add(inf, g), g);
    EXPECT_TRUE(point_add(inf, inf).infinity);
}

TEST(Point, MulByZeroIsIdentity) {
    EXPECT_TRUE(generator_mul(Scalar::zero()).infinity);
    EXPECT_TRUE(point_mul(AffinePoint::generator(), Scalar::zero()).infinity);
}

TEST(Point, DoubleMulMatchesSeparate) {
    Rng rng(13);
    AffinePoint q = generator_mul(Scalar::from_be_bytes_reduce(rng.bytes(32)));
    for (int i = 0; i < 5; ++i) {
        Scalar u1 = Scalar::from_be_bytes_reduce(rng.bytes(32));
        Scalar u2 = Scalar::from_be_bytes_reduce(rng.bytes(32));
        AffinePoint lhs = double_mul(u1, q, u2);
        AffinePoint rhs = point_add(generator_mul(u1), point_mul(q, u2));
        EXPECT_EQ(lhs, rhs) << i;
    }
}

// Points reached by different operation sequences compare and serialise
// equal, whatever weakly reduced coordinates each sequence left behind.
TEST(Point, EqualityAfterArithmeticIsCanonical) {
    Rng rng(14);
    for (int i = 0; i < 8; ++i) {
        Scalar a = Scalar::from_be_bytes_reduce(rng.bytes(32));
        Scalar b = Scalar::from_be_bytes_reduce(rng.bytes(32));
        AffinePoint lhs = point_add(generator_mul(a), generator_mul(b));
        AffinePoint rhs = point_mul(AffinePoint::generator(), a.add(b));
        EXPECT_EQ(lhs, rhs) << i;
        EXPECT_EQ(lhs.serialize(), rhs.serialize()) << i;
        EXPECT_EQ(lhs.x.raw(), rhs.x.raw()) << i;
    }
    AffinePoint g = AffinePoint::generator();
    AffinePoint g_again = point_add(point_add(g, g), AffinePoint{g.x, g.y.negate(), false});
    EXPECT_EQ(g_again, g);
    EXPECT_EQ(g_again.serialize(), g.serialize());
}

TEST(Point, SerializeParseRoundTrip) {
    AffinePoint p = generator_mul(Scalar::from_u64(0x1234567));
    auto parsed = AffinePoint::parse(p.serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, p);
}

TEST(Point, ParseRejectsOffCurve) {
    Bytes b = AffinePoint::generator().serialize();
    b[63] ^= 1;  // perturb y
    EXPECT_FALSE(AffinePoint::parse(b).has_value());
}

TEST(Point, ParseRejectsBadLength) {
    EXPECT_FALSE(AffinePoint::parse(Bytes(63, 0)).has_value());
    EXPECT_FALSE(AffinePoint::parse(Bytes(65, 0)).has_value());
}

TEST(Point, MulDistributesOverAdd) {
    // k(P + Q) == kP + kQ
    AffinePoint p = generator_mul(Scalar::from_u64(3));
    AffinePoint q = generator_mul(Scalar::from_u64(77));
    Scalar k = Scalar::from_u64(0xabcdef);
    EXPECT_EQ(point_mul(point_add(p, q), k), point_add(point_mul(p, k), point_mul(q, k)));
}

// ---------- verification-side fast paths ----------

TEST(Field, SqrMatchesMul) {
    Rng rng(401);
    for (int i = 0; i < 32; ++i) {
        Fe a = Fe::from_u256(U256::from_be_bytes(rng.bytes(32)));
        EXPECT_EQ(a.sqr(), a.mul(a)) << i;
    }
}

TEST(Field, VartimeInverseMatchesFermat) {
    Rng rng(402);
    for (int i = 0; i < 16; ++i) {
        Fe a = Fe::from_u256(U256::from_be_bytes(rng.bytes(32)));
        if (a.is_zero()) continue;
        EXPECT_EQ(a.inverse_vartime(), a.inverse()) << i;
    }
    EXPECT_EQ(Fe::one().inverse_vartime(), Fe::one());
}

TEST(Scalar, SqrMatchesMul) {
    Rng rng(403);
    for (int i = 0; i < 32; ++i) {
        Scalar a = Scalar::from_be_bytes_reduce(rng.bytes(32));
        EXPECT_EQ(a.sqr(), a.mul(a)) << i;
    }
}

TEST(Scalar, VartimeInverseMatchesFermat) {
    Rng rng(404);
    for (int i = 0; i < 16; ++i) {
        Scalar a = Scalar::from_be_bytes_reduce(rng.bytes(32));
        if (a.is_zero()) continue;
        EXPECT_EQ(a.inverse_vartime(), a.inverse()) << i;
    }
    EXPECT_EQ(Scalar::one().inverse_vartime(), Scalar::one());
}

TEST(Scalar, BatchInverseMatchesIndividual) {
    Rng rng(405);
    std::vector<Scalar> elems;
    for (int i = 0; i < 9; ++i) elems.push_back(Scalar::from_be_bytes_reduce(rng.bytes(32)));
    std::vector<Scalar> expect;
    for (const Scalar& s : elems) expect.push_back(s.inverse());
    scalar_batch_inverse(elems.data(), elems.size());
    for (std::size_t i = 0; i < elems.size(); ++i) EXPECT_EQ(elems[i], expect[i]) << i;
}

// The scalars at the edges of the GLV split: 0, 1, 2, n-1, n-2, λ, n-λ,
// 2^128 - 1, 2^128 and 2^255.
std::vector<Scalar> glv_edge_scalars() {
    U256 two128_minus1;
    two128_minus1.v = {~0ull, ~0ull, 0, 0};
    return {Scalar::zero(),
            Scalar::one(),
            Scalar::from_u64(2),
            Scalar::from_u256_reduce(minus(kN, 1)),
            Scalar::from_u256_reduce(minus(kN, 2)),
            QTable::lambda(),
            QTable::lambda().negate(),
            Scalar::from_u256_reduce(two128_minus1),
            Scalar::from_u256_reduce(pow2(128)),
            Scalar::from_u256_reduce(pow2(255))};
}

TEST(QTable, DoubleMulMatchesGeneric) {
    Rng rng(406);
    AffinePoint q = generator_mul(Scalar::from_be_bytes_reduce(rng.bytes(32)));
    QTable table(q);
    for (int i = 0; i < 8; ++i) {
        Scalar u1 = Scalar::from_be_bytes_reduce(rng.bytes(32));
        Scalar u2 = Scalar::from_be_bytes_reduce(rng.bytes(32));
        EXPECT_EQ(table.double_mul(u1, u2), double_mul(u1, q, u2)) << i;
    }
    std::vector<Scalar> edges = glv_edge_scalars();
    for (std::size_t i = 0; i < edges.size(); ++i) {
        Scalar u1 = Scalar::from_be_bytes_reduce(rng.bytes(32));
        EXPECT_EQ(table.double_mul(u1, edges[i]), double_mul(u1, q, edges[i])) << i;
        EXPECT_EQ(table.double_mul(Scalar(), edges[i]), point_mul(q, edges[i])) << i;
    }
    // Small / degenerate scalars exercise the wNAF edge cases.
    EXPECT_EQ(table.double_mul(Scalar(), Scalar::one()), q);
    EXPECT_EQ(table.double_mul(Scalar::one(), Scalar()), AffinePoint::generator());
    EXPECT_TRUE(table.double_mul(Scalar(), Scalar()).infinity);
}

TEST(QTable, CheckRMatchesAffineComparison) {
    Rng rng(407);
    AffinePoint q = generator_mul(Scalar::from_be_bytes_reduce(rng.bytes(32)));
    QTable table(q);
    for (int i = 0; i < 8; ++i) {
        Scalar u1 = Scalar::from_be_bytes_reduce(rng.bytes(32));
        Scalar u2 = Scalar::from_be_bytes_reduce(rng.bytes(32));
        AffinePoint p = double_mul(u1, q, u2);
        ASSERT_FALSE(p.infinity);
        Digest32 px = p.x.to_be_bytes();
        Scalar r = Scalar::from_be_bytes_reduce(BytesView(px.data(), px.size()));
        EXPECT_TRUE(table.double_mul_check_r(u1, u2, r)) << i;
        EXPECT_FALSE(table.double_mul_check_r(u1, u2, r.add(Scalar::one()))) << i;
    }
    for (const Scalar& u2 : glv_edge_scalars()) {
        Scalar u1 = Scalar::from_be_bytes_reduce(rng.bytes(32));
        AffinePoint p = double_mul(u1, q, u2);
        ASSERT_FALSE(p.infinity);
        Digest32 px = p.x.to_be_bytes();
        Scalar r = Scalar::from_be_bytes_reduce(BytesView(px.data(), px.size()));
        EXPECT_TRUE(table.double_mul_check_r(u1, u2, r)) << hex32(u2.to_be_bytes());
        EXPECT_FALSE(table.double_mul_check_r(u1, u2, r.add(Scalar::one())))
            << hex32(u2.to_be_bytes());
    }
}

// ---------- GLV endomorphism ----------

// β and λ are nontrivial cube roots of unity mod p and mod n: derive both
// roots as g^((m-1)/3) and its square for the first base g that does not
// give 1, check the code's constants are among them, and pin their hex.
TEST(Glv, ConstantsAreTheDerivedCubeRoots) {
    auto roots = [](auto one, const U256& m, auto from_u64) {
        U256 e = div3(minus(m, 1));
        for (std::uint64_t g = 2;; ++g) {
            auto r = pow_u256(from_u64(g), e);
            if (!(r == one)) return std::make_pair(r, r.sqr());
        }
    };
    auto [b1, b2] = roots(Fe::one(), kP, [](std::uint64_t g) { return Fe::from_u64(g); });
    auto [l1, l2] = roots(Scalar::one(), kN, [](std::uint64_t g) { return Scalar::from_u64(g); });
    EXPECT_TRUE(QTable::beta() == b1 || QTable::beta() == b2);
    EXPECT_TRUE(QTable::lambda() == l1 || QTable::lambda() == l2);
    EXPECT_EQ(hex32(QTable::beta().to_be_bytes()),
              "7ae96a2b657c07106e64479eac3434e99cf0497512f58995c1396c28719501ee");
    EXPECT_EQ(hex32(QTable::lambda().to_be_bytes()),
              "5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72");
    // Cube roots of unity other than 1: x^2 + x + 1 = 0.
    EXPECT_TRUE(QTable::beta().sqr().add(QTable::beta()).add(Fe::one()).is_zero());
    EXPECT_TRUE(QTable::lambda().sqr().add(QTable::lambda()).add(Scalar::one()).is_zero());
}

// λ·P = (β·x, y), by the generic double-and-add (no GLV), for G and for
// random points.
TEST(Glv, LambdaMultipleIsBetaTimesX) {
    Rng rng(408);
    std::vector<AffinePoint> points = {AffinePoint::generator()};
    for (int i = 0; i < 8; ++i) {
        points.push_back(generator_mul(Scalar::from_be_bytes_reduce(rng.bytes(32))));
    }
    for (const AffinePoint& p : points) {
        AffinePoint lp = point_mul(p, QTable::lambda());
        EXPECT_EQ(lp.x, p.x.mul(QTable::beta()));
        EXPECT_EQ(lp.y, p.y);
    }
}

// u ≡ ±k1 ± k2·λ (mod n) with both halves below 2^128, the bound
// QTable::split states, at the edges and for 10,000 random scalars.
TEST(Glv, SplitRecombinesWithHalvesBelow2To128) {
    Rng rng(409);
    std::vector<Scalar> scalars = glv_edge_scalars();
    for (int i = 0; i < 10000; ++i) scalars.push_back(Scalar::from_be_bytes_reduce(rng.bytes(32)));
    for (const Scalar& u : scalars) {
        QTable::Split s = QTable::split(u);
        Scalar k1 = s.neg1 ? s.k1.negate() : s.k1;
        Scalar k2 = s.neg2 ? s.k2.negate() : s.k2;
        EXPECT_EQ(k1.add(k2.mul(QTable::lambda())), u) << hex32(u.to_be_bytes());
        EXPECT_EQ(s.k1.raw().v[2] | s.k1.raw().v[3], 0u) << hex32(u.to_be_bytes());
        EXPECT_EQ(s.k2.raw().v[2] | s.k2.raw().v[3], 0u) << hex32(u.to_be_bytes());
    }
}

}  // namespace
}  // namespace neo::crypto
