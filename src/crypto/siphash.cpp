#include "crypto/siphash.hpp"

#include "common/assert.hpp"

namespace neo::crypto {

namespace {

inline std::uint64_t rotl64(std::uint64_t x, int b) { return (x << b) | (x >> (64 - b)); }
inline std::uint32_t rotl32(std::uint32_t x, int b) { return (x << b) | (x >> (32 - b)); }

inline void sipround(std::uint64_t& v0, std::uint64_t& v1, std::uint64_t& v2, std::uint64_t& v3) {
    v0 += v1; v1 = rotl64(v1, 13); v1 ^= v0; v0 = rotl64(v0, 32);
    v2 += v3; v3 = rotl64(v3, 16); v3 ^= v2;
    v0 += v3; v3 = rotl64(v3, 21); v3 ^= v0;
    v2 += v1; v1 = rotl64(v1, 17); v1 ^= v2; v2 = rotl64(v2, 32);
}

inline void halfsipround(std::uint32_t& v0, std::uint32_t& v1, std::uint32_t& v2, std::uint32_t& v3) {
    v0 += v1; v1 = rotl32(v1, 5); v1 ^= v0; v0 = rotl32(v0, 16);
    v2 += v3; v3 = rotl32(v3, 8); v3 ^= v2;
    v0 += v3; v3 = rotl32(v3, 7); v3 ^= v0;
    v2 += v1; v1 = rotl32(v1, 13); v1 ^= v2; v2 = rotl32(v2, 16);
}

inline std::uint64_t load_u64_le(const std::uint8_t* p) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

inline std::uint32_t load_u32_le(const std::uint8_t* p) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

}  // namespace

SipKey SipKey::from_bytes(BytesView b) {
    NEO_ASSERT(b.size() == 16);
    return SipKey{load_u64_le(b.data()), load_u64_le(b.data() + 8)};
}

Bytes SipKey::to_bytes() const {
    Bytes out(16);
    for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(k0 >> (8 * i));
    for (int i = 0; i < 8; ++i) out[8 + i] = static_cast<std::uint8_t>(k1 >> (8 * i));
    return out;
}

HalfSipKey HalfSipKey::from_bytes(BytesView b) {
    NEO_ASSERT(b.size() == 8);
    return HalfSipKey{load_u32_le(b.data()), load_u32_le(b.data() + 4)};
}

Bytes HalfSipKey::to_bytes() const {
    Bytes out(8);
    for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(k0 >> (8 * i));
    for (int i = 0; i < 4; ++i) out[4 + i] = static_cast<std::uint8_t>(k1 >> (8 * i));
    return out;
}

std::uint64_t siphash24(const SipKey& key, BytesView data) {
    std::uint64_t v0 = 0x736f6d6570736575ull ^ key.k0;
    std::uint64_t v1 = 0x646f72616e646f6dull ^ key.k1;
    std::uint64_t v2 = 0x6c7967656e657261ull ^ key.k0;
    std::uint64_t v3 = 0x7465646279746573ull ^ key.k1;

    const std::size_t n = data.size();
    const std::size_t end = n - (n % 8);
    for (std::size_t i = 0; i < end; i += 8) {
        std::uint64_t m = load_u64_le(data.data() + i);
        v3 ^= m;
        sipround(v0, v1, v2, v3);
        sipround(v0, v1, v2, v3);
        v0 ^= m;
    }

    std::uint64_t b = static_cast<std::uint64_t>(n & 0xff) << 56;
    for (std::size_t i = end; i < n; ++i) b |= static_cast<std::uint64_t>(data[i]) << (8 * (i - end));

    v3 ^= b;
    sipround(v0, v1, v2, v3);
    sipround(v0, v1, v2, v3);
    v0 ^= b;

    v2 ^= 0xff;
    sipround(v0, v1, v2, v3);
    sipround(v0, v1, v2, v3);
    sipround(v0, v1, v2, v3);
    sipround(v0, v1, v2, v3);
    return v0 ^ v1 ^ v2 ^ v3;
}

namespace {

// Shared core for the 32/64-bit output variants of HalfSipHash-2-4.
void halfsiphash_core(const HalfSipKey& key, BytesView data, bool wide,
                      std::uint32_t& out_lo, std::uint32_t& out_hi) {
    std::uint32_t v0 = key.k0;
    std::uint32_t v1 = key.k1;
    std::uint32_t v2 = 0x6c796765u ^ key.k0;
    std::uint32_t v3 = 0x74656462u ^ key.k1;
    if (wide) v1 ^= 0xee;

    const std::size_t n = data.size();
    const std::size_t end = n - (n % 4);
    for (std::size_t i = 0; i < end; i += 4) {
        std::uint32_t m = load_u32_le(data.data() + i);
        v3 ^= m;
        halfsipround(v0, v1, v2, v3);
        halfsipround(v0, v1, v2, v3);
        v0 ^= m;
    }

    std::uint32_t b = static_cast<std::uint32_t>(n & 0xff) << 24;
    for (std::size_t i = end; i < n; ++i) b |= static_cast<std::uint32_t>(data[i]) << (8 * (i - end));

    v3 ^= b;
    halfsipround(v0, v1, v2, v3);
    halfsipround(v0, v1, v2, v3);
    v0 ^= b;

    v2 ^= wide ? 0xee : 0xff;
    halfsipround(v0, v1, v2, v3);
    halfsipround(v0, v1, v2, v3);
    halfsipround(v0, v1, v2, v3);
    halfsipround(v0, v1, v2, v3);
    out_lo = v1 ^ v3;

    if (wide) {
        v1 ^= 0xdd;
        halfsipround(v0, v1, v2, v3);
        halfsipround(v0, v1, v2, v3);
        halfsipround(v0, v1, v2, v3);
        halfsipround(v0, v1, v2, v3);
        out_hi = v1 ^ v3;
    } else {
        out_hi = 0;
    }
}

}  // namespace

std::uint32_t halfsiphash24(const HalfSipKey& key, BytesView data) {
    std::uint32_t lo, hi;
    halfsiphash_core(key, data, /*wide=*/false, lo, hi);
    return lo;
}

std::uint64_t halfsiphash24_64(const HalfSipKey& key, BytesView data) {
    std::uint32_t lo, hi;
    halfsiphash_core(key, data, /*wide=*/true, lo, hi);
    return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

void halfsiphash24_x4(const HalfSipKey keys[4], BytesView data, std::uint32_t out[4]) {
    static const bool simd = detail::halfsiphash_x4_simd_available();
    if (simd) {
        detail::halfsiphash24_x4_simd(keys, data, out);
        return;
    }
    for (int i = 0; i < 4; ++i) out[i] = halfsiphash24(keys[i], data);
}

}  // namespace neo::crypto
