#include "crypto/siphash.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/hex.hpp"

namespace neo::crypto {
namespace {

// Reference test vectors from the SipHash reference implementation
// (Aumasson & Bernstein): key = 000102...0f, message = first N bytes of
// 00 01 02 ... ; expected 64-bit outputs (little-endian in the reference
// table, given here as integers).
TEST(SipHash, ReferenceVectors) {
    SipKey key;
    {
        Bytes kb(16);
        for (int i = 0; i < 16; ++i) kb[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
        key = SipKey::from_bytes(kb);
    }
    const std::uint64_t expected[] = {
        0x726fdb47dd0e0e31ull,  // N=0
        0x74f839c593dc67fdull,  // N=1
        0x0d6c8009d9a94f5aull,  // N=2
        0x85676696d7fb7e2dull,  // N=3
        0xcf2794e0277187b7ull,  // N=4
        0x18765564cd99a68dull,  // N=5
        0xcbc9466e58fee3ceull,  // N=6
        0xab0200f58b01d137ull,  // N=7
        0x93f5f5799a932462ull,  // N=8
    };
    Bytes msg;
    for (std::size_t n = 0; n < std::size(expected); ++n) {
        EXPECT_EQ(siphash24(key, msg), expected[n]) << "message length " << n;
        msg.push_back(static_cast<std::uint8_t>(n));
    }
}

TEST(SipHash, KeySensitivity) {
    Bytes msg = to_bytes("authenticated ordered multicast");
    SipKey k1{1, 2}, k2{1, 3};
    EXPECT_NE(siphash24(k1, msg), siphash24(k2, msg));
}

TEST(SipHash, MessageSensitivity) {
    SipKey k{0xdead, 0xbeef};
    EXPECT_NE(siphash24(k, to_bytes("a")), siphash24(k, to_bytes("b")));
    EXPECT_NE(siphash24(k, to_bytes("")), siphash24(k, Bytes{0}));
}

TEST(SipHash, AllBlockBoundaryLengths) {
    SipKey k{42, 43};
    std::set<std::uint64_t> outputs;
    Bytes msg;
    for (int n = 0; n <= 32; ++n) {
        outputs.insert(siphash24(k, msg));
        msg.push_back(static_cast<std::uint8_t>(n * 3));
    }
    // All 33 prefixes must hash differently (collision would be astonishing).
    EXPECT_EQ(outputs.size(), 33u);
}

TEST(SipHash, KeyRoundTrip) {
    SipKey k{0x0123456789abcdefull, 0xfedcba9876543210ull};
    SipKey k2 = SipKey::from_bytes(k.to_bytes());
    EXPECT_EQ(k.k0, k2.k0);
    EXPECT_EQ(k.k1, k2.k1);
}

TEST(HalfSipHash, Deterministic) {
    HalfSipKey k{0x03020100u, 0x07060504u};
    Bytes msg = to_bytes("aom packet digest||seq");
    EXPECT_EQ(halfsiphash24(k, msg), halfsiphash24(k, msg));
}

TEST(HalfSipHash, KeySensitivity) {
    Bytes msg = to_bytes("payload");
    EXPECT_NE(halfsiphash24(HalfSipKey{1, 2}, msg), halfsiphash24(HalfSipKey{1, 3}, msg));
    EXPECT_NE(halfsiphash24(HalfSipKey{1, 2}, msg), halfsiphash24(HalfSipKey{2, 2}, msg));
}

TEST(HalfSipHash, MessageSensitivity) {
    HalfSipKey k{7, 9};
    std::set<std::uint32_t> outputs;
    Bytes msg;
    for (int n = 0; n <= 64; ++n) {
        outputs.insert(halfsiphash24(k, msg));
        msg.push_back(static_cast<std::uint8_t>(n));
    }
    EXPECT_EQ(outputs.size(), 65u);
}

TEST(HalfSipHash, WideOutputLowBitsDifferFromNarrow) {
    // The 64-bit variant uses different finalisation constants, so its low
    // word is NOT the 32-bit output (per the reference design).
    HalfSipKey k{11, 13};
    Bytes msg = to_bytes("x");
    std::uint64_t wide = halfsiphash24_64(k, msg);
    std::uint32_t narrow = halfsiphash24(k, msg);
    EXPECT_NE(static_cast<std::uint32_t>(wide), narrow);
}

TEST(HalfSipHash, WideDeterministicAndKeyed) {
    HalfSipKey k1{5, 6}, k2{5, 7};
    Bytes msg = to_bytes("hash chain");
    EXPECT_EQ(halfsiphash24_64(k1, msg), halfsiphash24_64(k1, msg));
    EXPECT_NE(halfsiphash24_64(k1, msg), halfsiphash24_64(k2, msg));
}

TEST(HalfSipHash, KeyRoundTrip) {
    HalfSipKey k{0x12345678u, 0x9abcdef0u};
    HalfSipKey k2 = HalfSipKey::from_bytes(k.to_bytes());
    EXPECT_EQ(k.k0, k2.k0);
    EXPECT_EQ(k.k1, k2.k1);
}

// Cross-check SipHash against an independently coded compression loop to
// guard against transcription slips in the main implementation.
namespace alt {
std::uint64_t rotl(std::uint64_t x, int b) { return (x << b) | (x >> (64 - b)); }
std::uint64_t siphash_alt(const SipKey& key, BytesView data) {
    std::uint64_t v[4] = {key.k0 ^ 0x736f6d6570736575ull, key.k1 ^ 0x646f72616e646f6dull,
                          key.k0 ^ 0x6c7967656e657261ull, key.k1 ^ 0x7465646279746573ull};
    auto round = [&] {
        v[0] += v[1]; v[1] = rotl(v[1], 13); v[1] ^= v[0]; v[0] = rotl(v[0], 32);
        v[2] += v[3]; v[3] = rotl(v[3], 16); v[3] ^= v[2];
        v[0] += v[3]; v[3] = rotl(v[3], 21); v[3] ^= v[0];
        v[2] += v[1]; v[1] = rotl(v[1], 17); v[1] ^= v[2]; v[2] = rotl(v[2], 32);
    };
    std::size_t i = 0;
    std::uint64_t m = 0;
    int shift = 0;
    std::size_t full = data.size() / 8 * 8;
    for (; i < full; ++i) {
        m |= static_cast<std::uint64_t>(data[i]) << shift;
        shift += 8;
        if (shift == 64) {
            v[3] ^= m; round(); round(); v[0] ^= m;
            m = 0; shift = 0;
        }
    }
    for (; i < data.size(); ++i) {
        m |= static_cast<std::uint64_t>(data[i]) << shift;
        shift += 8;
    }
    m |= static_cast<std::uint64_t>(data.size() & 0xff) << 56;
    v[3] ^= m; round(); round(); v[0] ^= m;
    v[2] ^= 0xff;
    round(); round(); round(); round();
    return v[0] ^ v[1] ^ v[2] ^ v[3];
}
}  // namespace alt

TEST(SipHash, CrossImplementationSweep) {
    SipKey k{0x1122334455667788ull, 0x99aabbccddeeff00ull};
    Bytes msg;
    for (int n = 0; n < 100; ++n) {
        EXPECT_EQ(siphash24(k, msg), alt::siphash_alt(k, msg)) << "len " << n;
        msg.push_back(static_cast<std::uint8_t>(n * 13 + 1));
    }
}

TEST(HalfSipHashX4, MatchesScalarLanesOnEveryLength) {
    // The 4-lane kernel (SIMD when available, dispatched at runtime) must
    // be bit-identical to four scalar calls for every message length and
    // distinct per-lane keys.
    HalfSipKey keys[4] = {{0x03020100u, 0x07060504u},
                         {0xdeadbeefu, 0xcafef00du},
                         {0u, 0u},
                         {0xffffffffu, 0x80000001u}};
    Bytes msg;
    for (int n = 0; n < 70; ++n) {
        std::uint32_t out[4];
        halfsiphash24_x4(keys, msg, out);
        for (int lane = 0; lane < 4; ++lane) {
            EXPECT_EQ(out[lane], halfsiphash24(keys[lane], msg)) << "len " << n << " lane " << lane;
        }
        msg.push_back(static_cast<std::uint8_t>(n * 7 + 3));
    }
}

}  // namespace
}  // namespace neo::crypto
