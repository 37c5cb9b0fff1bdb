// SipHash-2-4 (Aumasson & Bernstein) and HalfSipHash-2-4 (Yoo & Chen,
// "Secure keyed hashing on programmable switches") — the keyed hash the
// paper's aom-hm switch pipeline computes for its per-receiver HMAC vector.
//
// SipHash-2-4 operates on 64-bit words with a 128-bit key; HalfSipHash-2-4
// operates on 32-bit words with a 64-bit key and is what fits in a Tofino
// pipeline (the reference implementation uses 12 stages; the paper unrolls
// it across pipeline passes — see src/aom/sequencer_cost.hpp for the pass
// model).
#pragma once

#include <cstdint>

#include "common/bytes.hpp"

namespace neo::crypto {

/// 128-bit SipHash key (k0 little-endian low, k1 high).
struct SipKey {
    std::uint64_t k0 = 0;
    std::uint64_t k1 = 0;

    /// Loads a key from 16 little-endian bytes.
    static SipKey from_bytes(BytesView b);
    Bytes to_bytes() const;
};

/// 64-bit HalfSipHash key.
struct HalfSipKey {
    std::uint32_t k0 = 0;
    std::uint32_t k1 = 0;

    /// Loads a key from 8 little-endian bytes.
    static HalfSipKey from_bytes(BytesView b);
    Bytes to_bytes() const;
};

/// SipHash-2-4 with 64-bit output.
std::uint64_t siphash24(const SipKey& key, BytesView data);

/// HalfSipHash-2-4 with 32-bit output (the aom-hm per-receiver MAC).
std::uint32_t halfsiphash24(const HalfSipKey& key, BytesView data);

/// HalfSipHash-2-4 with 64-bit output (two finalisation words).
std::uint64_t halfsiphash24_64(const HalfSipKey& key, BytesView data);

/// Four HalfSipHash-2-4 MACs over the SAME input under four DIFFERENT keys
/// — the shape of the sequencer's per-subgroup MAC vector (kHmSubgroupSize
/// is 4). Dispatches at runtime to a 4-lane SSE2 kernel when the host
/// supports it; falls back to four scalar calls. Output is bit-identical to
/// four halfsiphash24 calls on every path (asserted by
/// tests/crypto/test_siphash.cpp).
void halfsiphash24_x4(const HalfSipKey keys[4], BytesView data, std::uint32_t out[4]);

namespace detail {
/// True when the SSE2 4-lane kernel is compiled in and usable on this host.
bool halfsiphash_x4_simd_available();
/// The SSE2 kernel itself (siphash_simd.cpp). Call only when available.
void halfsiphash24_x4_simd(const HalfSipKey keys[4], BytesView data, std::uint32_t out[4]);
}  // namespace detail

}  // namespace neo::crypto
