// U256, field (mod p) and scalar (mod n) arithmetic for secp256k1.
//
// Field and scalar arithmetic runs a fixed sequence of limb operations
// whatever the values: carries are folded in with masks rather than loops or
// branches, and Fe::inverse / Scalar::inverse are exponentiations by public
// exponents. Only the binary-GCD inverse_vartime branches on its input.
#include <algorithm>
#include <cstring>
#include <vector>

#include "common/assert.hpp"
#include "crypto/secp256k1.hpp"

namespace neo::crypto {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

// p = 2^256 - kFieldC, little-endian limbs.
constexpr U256 kP{{0xFFFFFFFEFFFFFC2Full, 0xFFFFFFFFFFFFFFFFull,
                   0xFFFFFFFFFFFFFFFFull, 0xFFFFFFFFFFFFFFFFull}};
constexpr u64 kFieldC = 0x1000003D1ull;  // 2^32 + 977

// Group order n and K = 2^256 - n (129 bits: its top limb is zero).
constexpr U256 kN{{0xBFD25E8CD0364141ull, 0xBAAEDCE6AF48A03Bull,
                   0xFFFFFFFFFFFFFFFEull, 0xFFFFFFFFFFFFFFFFull}};
constexpr u64 kNK[4] = {0x402DA1732FC9BEBFull, 0x4551231950B75FC4ull, 0x1ull, 0};

// a + b + carry; the carry out is 0 or 1.
inline u64 addc(u64 a, u64 b, u64& carry) {
    u128 t = static_cast<u128>(a) + b + carry;
    carry = static_cast<u64>(t >> 64);
    return static_cast<u64>(t);
}

// x = mask ? y : x, limb-wise; mask is all ones or zero.
inline void select4(u64 x[4], const u64 y[4], u64 mask) {
    for (int i = 0; i < 4; ++i) x[i] = (y[i] & mask) | (x[i] & ~mask);
}

// out = a + b over 4 limbs, returns carry.
u64 add4(const u64 a[4], const u64 b[4], u64 out[4]) {
    u128 carry = 0;
    for (int i = 0; i < 4; ++i) {
        u128 cur = (u128)a[i] + b[i] + carry;
        out[i] = (u64)cur;
        carry = cur >> 64;
    }
    return (u64)carry;
}

// out = a - b over 4 limbs, returns borrow (1 if a < b).
u64 sub4(const u64 a[4], const u64 b[4], u64 out[4]) {
    u64 borrow = 0;
    for (int i = 0; i < 4; ++i) {
        u64 bi = b[i];
        u64 t = a[i] - bi;
        u64 borrow_out = (a[i] < bi) ? 1 : 0;
        u64 t2 = t - borrow;
        if (t < borrow) borrow_out = 1;
        out[i] = t2;
        borrow = borrow_out;
    }
    return borrow;
}

// x >>= 1 over 4 limbs, shifting `top` into bit 255.
void shr1(u64 x[4], u64 top) {
    for (int i = 0; i < 3; ++i) x[i] = (x[i] >> 1) | (x[i + 1] << 63);
    x[3] = (x[3] >> 1) | (top << 63);
}

// Dedicated 4-limb squaring: the off-diagonal products are symmetric, so
// compute each once and double. ~25% fewer 64x64 multiplies than mul4x4
// with itself — and point doubling (the scalar-mul hot loop) is mostly
// squarings.
void sqr4(const u64 a[4], u64 t[8]) {
    // Off-diagonal sum: sum_{i<j} a[i]*a[j] shifted into place.
    u64 od[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (int i = 0; i < 4; ++i) {
        u64 carry = 0;
        for (int j = i + 1; j < 4; ++j) {
            u128 cur = (u128)a[i] * a[j] + od[i + j] + carry;
            od[i + j] = (u64)cur;
            carry = (u64)(cur >> 64);
        }
        od[i + 4] = carry;
    }
    // t = 2*od.
    u64 carry = 0;
    for (int i = 0; i < 8; ++i) {
        u64 hi = od[i] >> 63;
        t[i] = (od[i] << 1) | carry;
        carry = hi;
    }
    // t += diagonal squares.
    u128 c = 0;
    for (int i = 0; i < 4; ++i) {
        u128 sq = (u128)a[i] * a[i];
        u128 lo = (u128)t[2 * i] + (u64)sq + (u64)c;
        t[2 * i] = (u64)lo;
        u128 hi = (u128)t[2 * i + 1] + (u64)(sq >> 64) + (u64)(lo >> 64);
        t[2 * i + 1] = (u64)hi;
        c = hi >> 64;
    }
    NEO_ASSERT(c == 0);  // a < 2^256 so a^2 < 2^512: no carry out of t[7]
}

// Schoolbook 4x4 -> 8 limb multiply.
void mul4x4(const u64 a[4], const u64 b[4], u64 t[8]) {
    std::memset(t, 0, 8 * sizeof(u64));
    for (int i = 0; i < 4; ++i) {
        u64 carry = 0;
        for (int j = 0; j < 4; ++j) {
            u128 cur = (u128)a[i] * b[j] + t[i + j] + carry;
            t[i + j] = (u64)cur;
            carry = (u64)(cur >> 64);
        }
        t[i + 4] = carry;
    }
}

// ---------- field: five 52-bit limbs, value = sum l[i]·2^(52i) ----------
//
// Invariant (magnitude 1): limbs 0-3 are below 2^53 and limb 4 below 2^49,
// so the value is below 2^257 and congruent to the element mod p, not
// necessarily reduced. Every operation takes and returns this form; only
// raw() computes the canonical residue.

constexpr u64 kM52 = 0xFFFFFFFFFFFFFull;
constexpr u64 kM48 = 0xFFFFFFFFFFFFull;
// 2^260 mod p: the weight of a limb shifted five places up, folded down.
constexpr u64 kFieldR = kFieldC << 4;
// 4p in 5x52 limbs: each limb exceeds the matching limb bound of a
// magnitude-1 value, so a + 4p - b never goes negative limb-wise.
constexpr u64 kFour52P[5] = {4 * 0xFFFFEFFFFFC2Full, 4 * kM52, 4 * kM52, 4 * kM52, 4 * kM48};

using Limbs5 = std::array<u64, 5>;

// Limbs below 2^60 -> magnitude 1 in one parallel step: every limb keeps
// its low 52 bits (48 for limb 4) and takes the carry of the limb below;
// the bits of limb 4 from 2^256 up wrap into limb 0 as multiples of C.
// No carry waits on another, and the results stay below 2^52 + 2^45
// (limb 4 below 2^48 + 2^8).
void field_carry(Limbs5& t) {
    u64 c0 = t[0] >> 52;
    u64 c1 = t[1] >> 52;
    u64 c2 = t[2] >> 52;
    u64 c3 = t[3] >> 52;
    u64 c4 = t[4] >> 48;
    t[0] = (t[0] & kM52) + c4 * kFieldC;
    t[1] = (t[1] & kM52) + c0;
    t[2] = (t[2] & kM52) + c1;
    t[3] = (t[3] & kM52) + c2;
    t[4] = (t[4] & kM48) + c3;
}

Limbs5 field_from_u256(const U256& x) {
    return {x.v[0] & kM52, ((x.v[0] >> 52) | (x.v[1] << 12)) & kM52,
            ((x.v[1] >> 40) | (x.v[2] << 24)) & kM52, ((x.v[2] >> 28) | (x.v[3] << 36)) & kM52,
            x.v[3] >> 16};
}

// The product of two magnitude-1 values, reduced to magnitude 1, given
// column(k) = the k-th column sum of the 5x5 limb product (mul and sqr
// differ only there). Column k >= 5 has weight 2^260·2^(52(k-5)) and folds
// down as R·2^(52(k-5)), R = 2^260 mod p. The columns are consumed in the
// order of libsecp256k1's field_5x52_int128 code, which keeps two 128-bit
// accumulators live instead of nine: d carries columns 3-7 and c builds the
// result. With limbs below 2^53 (limb 4 below 2^49), every column is below
// 2^108, c and d stay below 2^109, and the result limbs come out below
// 2^52 (limb 4 below 2^48 + 2^36).
template <class Column>
void field_mul_reduce(Column column, Limbs5& r) {
    u128 d = column(3);
    u128 c = column(8);
    d += static_cast<u128>(static_cast<u64>(c)) * kFieldR;  // low 64 bits of column 8
    c >>= 64;                                                // the rest lands in column 4
    u64 t3 = static_cast<u64>(d) & kM52;
    d >>= 52;
    d += column(4) + static_cast<u128>(static_cast<u64>(c)) * (kFieldR << 12);
    u64 t4 = static_cast<u64>(d) & kM52;
    d >>= 52;
    u64 tx = t4 >> 48;  // bits 256-259, folded with column 5
    t4 &= kM48;
    c = column(0);
    d += column(5);
    u64 u0 = ((static_cast<u64>(d) & kM52) << 4) | tx;
    d >>= 52;
    c += static_cast<u128>(u0) * kFieldC;
    r[0] = static_cast<u64>(c) & kM52;
    c >>= 52;
    c += column(1);
    d += column(6);
    c += static_cast<u128>(static_cast<u64>(d) & kM52) * kFieldR;
    d >>= 52;
    r[1] = static_cast<u64>(c) & kM52;
    c >>= 52;
    c += column(2);
    d += column(7);
    c += static_cast<u128>(static_cast<u64>(d)) * kFieldR;  // low 64 bits of d
    d >>= 64;                                                // the rest lands in column 3
    r[2] = static_cast<u64>(c) & kM52;
    c >>= 52;
    c += static_cast<u128>(static_cast<u64>(d)) * (kFieldR << 12) + t3;
    r[3] = static_cast<u64>(c) & kM52;
    c >>= 52;
    r[4] = static_cast<u64>(c) + t4;
}

// x^(2^k), by k squarings (Fe or Scalar).
template <class T>
T sqr_n(T x, int k) {
    for (int i = 0; i < k; ++i) x = x.sqr();
    return x;
}

// ---------- scalar: values are always fully reduced, in [0, n) ----------

// x -= n if x >= n (x < 2^256 < 2n): x >= n exactly when x + K carries.
void scalar_cond_sub_n(u64 x[4]) {
    u64 t[4];
    select4(x, t, 0 - add4(x, kNK, t));
}

// Three-limb column accumulator (c0 + c1·2^64 + c2·2^128) for the scalar
// reduction: products and limbs are summed into it one column at a time.
struct Acc3 {
    u64 c0 = 0;
    u64 c1 = 0;
    u64 c2 = 0;

    void mul_add(u64 a, u64 b) {
        u128 t = static_cast<u128>(a) * b;
        u64 tl = static_cast<u64>(t);
        u64 th = static_cast<u64>(t >> 64);
        c0 += tl;
        th += c0 < tl;
        c1 += th;
        c2 += c1 < th;
    }
    void add(u64 a) {
        c0 += a;
        u64 over = c0 < a;
        c1 += over;
        c2 += c1 < over;
    }
    // Returns the low limb and shifts the accumulator down one limb.
    u64 take() {
        u64 out = c0;
        c0 = c1;
        c1 = c2;
        c2 = 0;
        return out;
    }
};

// t (512 bits) mod n in fixed steps. Since 2^256 ≡ K = k0 + k1·2^64 + 2^128,
// folding the high limbs times K into the low ones three times shrinks the
// value below 2^386, then 2^259, then 2^256 + 2^132 (a carry bit c). With c
// set the low limbs are below 2^132, so adding c·K cannot carry; one masked
// subtraction of n finishes.
U256 scalar_reduce(const u64 l[8]) {
    const u64 k0 = kNK[0];
    const u64 k1 = kNK[1];
    // m = l[0..3] + l[4..7]·K, 386 bits.
    Acc3 a{l[0], 0, 0};
    a.mul_add(l[4], k0);
    u64 m0 = a.take();
    a.add(l[1]);
    a.mul_add(l[5], k0);
    a.mul_add(l[4], k1);
    u64 m1 = a.take();
    a.add(l[2]);
    a.mul_add(l[6], k0);
    a.mul_add(l[5], k1);
    a.add(l[4]);
    u64 m2 = a.take();
    a.add(l[3]);
    a.mul_add(l[7], k0);
    a.mul_add(l[6], k1);
    a.add(l[5]);
    u64 m3 = a.take();
    a.mul_add(l[7], k1);
    a.add(l[6]);
    u64 m4 = a.take();
    a.add(l[7]);
    u64 m5 = a.take();
    u64 m6 = a.c0;  // at most 1
    // q = m[0..3] + m[4..6]·K, 259 bits.
    Acc3 b{m0, 0, 0};
    b.mul_add(m4, k0);
    u64 q0 = b.take();
    b.add(m1);
    b.mul_add(m5, k0);
    b.mul_add(m4, k1);
    u64 q1 = b.take();
    b.add(m2);
    b.mul_add(m6, k0);
    b.mul_add(m5, k1);
    b.add(m4);
    u64 q2 = b.take();
    b.add(m3);
    b.mul_add(m6, k1);
    b.add(m5);
    u64 q3 = b.take();
    u64 q4 = b.c0 + m6;  // below 8
    // r = q[0..3] + q4·K, below 2^256 + 2^132.
    U256 out;
    u64* r = out.v.data();
    u128 t = static_cast<u128>(q4) * k0 + q0;
    r[0] = static_cast<u64>(t);
    t = (t >> 64) + static_cast<u128>(q4) * k1 + q1;
    r[1] = static_cast<u64>(t);
    t = (t >> 64) + q4 + q2;
    r[2] = static_cast<u64>(t);
    t = (t >> 64) + q3;
    r[3] = static_cast<u64>(t);
    u64 mask = 0 - static_cast<u64>(t >> 64);
    u64 k[4];
    for (int i = 0; i < 4; ++i) k[i] = kNK[i] & mask;
    add4(r, k, r);
    scalar_cond_sub_n(r);
    return out;
}

// Variable-time modular inverse (binary extended GCD) for an ODD modulus m;
// requires gcd(x, m) == 1 and 0 < x < m. Several times faster than the
// Fermat ladder but with value-dependent timing — verification-side only.
U256 mod_inverse_vartime(const U256& x, const U256& m) {
    u64 u[4], v[4], x1[4] = {1, 0, 0, 0}, x2[4] = {0, 0, 0, 0};
    std::memcpy(u, x.v.data(), sizeof(u));
    std::memcpy(v, m.v.data(), sizeof(v));

    auto is_one = [](const u64 a[4]) { return a[0] == 1 && (a[1] | a[2] | a[3]) == 0; };
    auto cmp = [](const u64 a[4], const u64 b[4]) {
        for (int i = 3; i >= 0; --i) {
            if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
        }
        return 0;
    };
    // a = (a is even ? a : a + m) / 2  (mod-preserving halving; m is odd so
    // exactly one of a, a+m is even).
    auto half_mod = [&m](u64 a[4]) {
        u64 top = 0;
        if (a[0] & 1) top = add4(a, m.v.data(), a);
        shr1(a, top);
    };
    // a = a - b mod m (a, b < m).
    auto sub_mod = [&m](u64 a[4], const u64 b[4]) {
        if (sub4(a, b, a)) add4(a, m.v.data(), a);
    };

    while (!is_one(u) && !is_one(v)) {
        while ((u[0] & 1) == 0) {
            shr1(u, 0);
            half_mod(x1);
        }
        while ((v[0] & 1) == 0) {
            shr1(v, 0);
            half_mod(x2);
        }
        if (cmp(u, v) >= 0) {
            sub4(u, v, u);
            sub_mod(x1, x2);
        } else {
            sub4(v, u, v);
            sub_mod(x2, x1);
        }
    }

    U256 out;
    std::memcpy(out.v.data(), is_one(u) ? x1 : x2, sizeof(x1));
    return out;
}

}  // namespace

// ---------- U256 ----------

U256 U256::from_be_bytes(BytesView b32) {
    NEO_ASSERT(b32.size() == 32);
    U256 out;
    for (int limb = 0; limb < 4; ++limb) {
        u64 v = 0;
        for (int i = 0; i < 8; ++i) {
            v = (v << 8) | b32[static_cast<std::size_t>((3 - limb) * 8 + i)];
        }
        out.v[static_cast<std::size_t>(limb)] = v;
    }
    return out;
}

Digest32 U256::to_be_bytes() const {
    Digest32 out;
    for (int limb = 0; limb < 4; ++limb) {
        u64 val = v[static_cast<std::size_t>(limb)];
        for (int i = 0; i < 8; ++i) {
            out[static_cast<std::size_t>((3 - limb) * 8 + (7 - i))] =
                static_cast<std::uint8_t>(val >> (8 * i));
        }
    }
    return out;
}

std::uint64_t u256_add(const U256& a, const U256& b, U256* out) {
    return add4(a.v.data(), b.v.data(), out->v.data());
}

U256 u256_mul_shift384(const U256& a, const U256& b) {
    u64 t[8];
    mul4x4(a.v.data(), b.v.data(), t);
    // Round to nearest: add bit 383. The top 128 bits are at most 2^128 - 1,
    // so the sum fits in three limbs.
    U256 out;
    u64 c = t[5] >> 63;
    out.v[0] = addc(t[6], 0, c);
    out.v[1] = addc(t[7], 0, c);
    out.v[2] = c;
    return out;
}

const U256& field_prime_u256() { return kP; }
const U256& scalar_order_u256() { return kN; }

int u256_cmp(const U256& a, const U256& b) {
    for (int i = 3; i >= 0; --i) {
        if (a.v[static_cast<std::size_t>(i)] < b.v[static_cast<std::size_t>(i)]) return -1;
        if (a.v[static_cast<std::size_t>(i)] > b.v[static_cast<std::size_t>(i)]) return 1;
    }
    return 0;
}

// ---------- Fe ----------

Fe Fe::one() { return from_u64(1); }

Fe Fe::from_u64(std::uint64_t x) {
    Fe f;
    f.n_[0] = x & kM52;
    f.n_[1] = x >> 52;
    return f;
}

Fe Fe::from_u256(const U256& x) {
    Fe f;
    f.n_ = field_from_u256(x);
    return f;
}

std::optional<Fe> Fe::from_be_bytes_checked(BytesView b32) {
    if (b32.size() != 32) return std::nullopt;
    U256 x = U256::from_be_bytes(b32);
    if (u256_cmp(x, kP) >= 0) return std::nullopt;
    return from_u256(x);
}

U256 Fe::raw() const {
    // A sequential carry pass leaves limbs 0-3 below 2^52 and limb 4 at
    // most 2^48 + 1, so the value is below 2^256 + 2^209 < 2p. Pack it into
    // four limbs plus bit 256, and subtract p once if it is >= p, that is
    // if bit 256 is set or the low 256 bits + C carry past 2^256.
    Limbs5 t = n_;
    field_carry(t);
    for (std::size_t i = 0; i < 4; ++i) {
        t[i + 1] += t[i] >> 52;
        t[i] &= kM52;
    }
    U256 x{{t[0] | (t[1] << 52), (t[1] >> 12) | (t[2] << 40), (t[2] >> 24) | (t[3] << 28),
            (t[3] >> 36) | (t[4] << 16)}};
    u64 y[4];
    u64 c = 0;
    y[0] = addc(x.v[0], kFieldC, c);
    for (int i = 1; i < 4; ++i) y[i] = addc(x.v[static_cast<std::size_t>(i)], 0, c);
    select4(x.v.data(), y, 0 - (c | (t[4] >> 48)));
    return x;
}

bool operator==(const Fe& a, const Fe& b) { return a.raw() == b.raw(); }

Fe Fe::add(const Fe& o) const {
    // The inputs are read through volatile pointers, one 64-bit load per
    // limb. Left alone, GCC loads limb pairs as 128-bit vectors; when the
    // input was just written by the 64-bit stores that end every Fe
    // operation, such a load cannot be store-forwarded and stalls. Forcing
    // scalar loads here and in sub and mul_int made the verification loop
    // ~20% faster.
    const volatile u64* a = n_.data();
    const volatile u64* b = o.n_.data();
    Fe out;
    for (std::size_t i = 0; i < 5; ++i) out.n_[i] = a[i] + b[i];
    field_carry(out.n_);
    return out;
}

Fe Fe::sub(const Fe& o) const {
    // a + 4p - b: every limb of 4p exceeds the matching limb of b.
    Fe out;
    const volatile u64* a = n_.data();  // see add
    const volatile u64* b = o.n_.data();
    for (std::size_t i = 0; i < 5; ++i) out.n_[i] = a[i] + kFour52P[i] - b[i];
    field_carry(out.n_);
    return out;
}

Fe Fe::mul(const Fe& o) const {
    const Limbs5& a = n_;
    const Limbs5& b = o.n_;
    Fe out;
    field_mul_reduce(
        [&](int k) {
            u128 sum = 0;
            for (int i = std::max(0, k - 4); i <= std::min(k, 4); ++i) {
                sum += static_cast<u128>(a[static_cast<std::size_t>(i)]) *
                       b[static_cast<std::size_t>(k - i)];
            }
            return sum;
        },
        out.n_);
    return out;
}

Fe Fe::sqr() const {
    // The columns of mul(*this), with each cross product formed once and
    // doubled: fifteen limb products instead of twenty-five.
    const Limbs5& a = n_;
    Fe out;
    field_mul_reduce(
        [&](int k) {
            u128 sum = 0;
            for (int i = std::max(0, k - 4); 2 * i < k; ++i) {
                sum += static_cast<u128>(2 * a[static_cast<std::size_t>(i)]) *
                       a[static_cast<std::size_t>(k - i)];
            }
            if (k % 2 == 0) {
                sum += static_cast<u128>(a[static_cast<std::size_t>(k / 2)]) *
                       a[static_cast<std::size_t>(k / 2)];
            }
            return sum;
        },
        out.n_);
    return out;
}

Fe Fe::negate() const { return Fe::zero().sub(*this); }

Fe Fe::mul_int(unsigned k) const {
    NEO_ASSERT(k <= 64);
    const volatile u64* a = n_.data();  // see add
    Fe out;
    for (std::size_t i = 0; i < 5; ++i) out.n_[i] = a[i] * k;  // below 2^59
    field_carry(out.n_);
    return out;
}

Fe Fe::inverse() const {
    NEO_ASSERT_MSG(!is_zero(), "field inverse of zero");
    // Fermat, x^(p-2). From the top, p-2 is 223 one-bits, a zero, 22 ones,
    // 0000, 1, 0, 11, 0, 1. An addition chain builds xk = x^(2^k - 1) for
    // the block lengths and assembles the rest: 255 squarings and 15
    // multiplications.
    const Fe& x = *this;
    Fe x2 = x.sqr().mul(x);
    Fe x3 = x2.sqr().mul(x);
    Fe x6 = sqr_n(x3, 3).mul(x3);
    Fe x9 = sqr_n(x6, 3).mul(x3);
    Fe x11 = sqr_n(x9, 2).mul(x2);
    Fe x22 = sqr_n(x11, 11).mul(x11);
    Fe x44 = sqr_n(x22, 22).mul(x22);
    Fe x88 = sqr_n(x44, 44).mul(x44);
    Fe x176 = sqr_n(x88, 88).mul(x88);
    Fe x220 = sqr_n(x176, 44).mul(x44);
    Fe x223 = sqr_n(x220, 3).mul(x3);
    Fe t = sqr_n(x223, 23).mul(x22);
    t = sqr_n(t, 5).mul(x);
    t = sqr_n(t, 3).mul(x2);
    return sqr_n(t, 2).mul(x);
}

Fe Fe::inverse_vartime() const {
    NEO_ASSERT_MSG(!is_zero(), "field inverse of zero");
    return from_u256(mod_inverse_vartime(raw(), kP));
}

void fe_batch_inverse(Fe* elems, std::size_t count) {
    if (count == 0) return;
    // Montgomery's trick: one inversion + 3(count-1) multiplications.
    std::vector<Fe> prefix(count);
    prefix[0] = elems[0];
    for (std::size_t i = 1; i < count; ++i) prefix[i] = prefix[i - 1].mul(elems[i]);

    Fe inv = prefix[count - 1].inverse_vartime();
    for (std::size_t i = count; i-- > 1;) {
        Fe orig = elems[i];
        elems[i] = inv.mul(prefix[i - 1]);
        inv = inv.mul(orig);
    }
    elems[0] = inv;
}

// ---------- Scalar ----------

Scalar Scalar::one() { return from_u64(1); }

Scalar Scalar::from_u64(std::uint64_t x) {
    Scalar s;
    s.n_.v[0] = x;
    return s;
}

Scalar Scalar::from_u256_reduce(const U256& x) {
    Scalar s;
    s.n_ = x;
    scalar_cond_sub_n(s.n_.v.data());
    return s;
}

Scalar Scalar::from_u512_reduce(const std::array<std::uint64_t, 8>& limbs) {
    Scalar s;
    s.n_ = scalar_reduce(limbs.data());
    return s;
}

std::optional<Scalar> Scalar::from_be_bytes_checked(BytesView b32) {
    if (b32.size() != 32) return std::nullopt;
    U256 x = U256::from_be_bytes(b32);
    if (u256_cmp(x, kN) >= 0) return std::nullopt;
    Scalar s;
    s.n_ = x;
    return s;
}

Scalar Scalar::add(const Scalar& o) const {
    // a + b < 2n; it is >= n exactly when a + b + K reaches 2^256, and then
    // the sum mod n is the low 256 bits of a + b + K.
    Scalar out;
    u64* r = out.n_.v.data();
    u64 c = add4(n_.v.data(), o.n_.v.data(), r);
    u64 t[4];
    u64 c2 = add4(r, kNK, t);
    select4(r, t, 0 - (c | c2));
    return out;
}

Scalar Scalar::mul(const Scalar& o) const {
    std::array<u64, 8> t;
    mul4x4(n_.v.data(), o.n_.v.data(), t.data());
    return from_u512_reduce(t);
}

Scalar Scalar::sqr() const {
    std::array<u64, 8> t;
    sqr4(n_.v.data(), t.data());
    return from_u512_reduce(t);
}

Scalar Scalar::negate() const {
    // n - x, masked to zero when x is zero.
    Scalar out;
    sub4(kN.v.data(), n_.v.data(), out.n_.v.data());
    u64 mask = 0 - static_cast<u64>(!is_zero());
    for (auto& limb : out.n_.v) limb &= mask;
    return out;
}

Scalar Scalar::inverse() const {
    NEO_ASSERT_MSG(!is_zero(), "scalar inverse of zero");
    // Fermat, x^(n-2). The top 127 bits of n-2 are ones: an addition chain
    // builds x^(2^127 - 1) from x^7 and x^15. Bit 128 is zero, and a 4-bit
    // sliding window over the odd powers x, x^3, ..., x^15 covers the low
    // 129 bits: 253 squarings and 42 multiplications in all. The window
    // walk reads only the exponent, so the operation sequence is fixed.
    std::array<Scalar, 8> odd;
    odd[0] = *this;
    Scalar x_sq = sqr();
    for (std::size_t i = 1; i < odd.size(); ++i) odd[i] = odd[i - 1].mul(x_sq);
    const Scalar& x3 = odd[3];  // x^(2^3 - 1)
    const Scalar& x4 = odd[7];  // x^(2^4 - 1)
    Scalar x8 = sqr_n(x4, 4).mul(x4);
    Scalar x16 = sqr_n(x8, 8).mul(x8);
    Scalar x32 = sqr_n(x16, 16).mul(x16);
    Scalar x64 = sqr_n(x32, 32).mul(x32);
    Scalar x96 = sqr_n(x64, 32).mul(x32);
    Scalar x112 = sqr_n(x96, 16).mul(x16);
    Scalar x120 = sqr_n(x112, 8).mul(x8);
    Scalar x124 = sqr_n(x120, 4).mul(x4);
    Scalar t = sqr_n(x124, 3).mul(x3);

    U256 e = kN;
    e.v[0] -= 2;  // n's low limb is odd and > 2; no borrow
    for (int i = 128; i >= 0;) {
        if (!e.bit(i)) {
            t = t.sqr();
            --i;
            continue;
        }
        int j = std::max(i - 3, 0);
        while (!e.bit(j)) ++j;  // the window [i..j] ends in a one
        unsigned w = 0;
        for (int b = i; b >= j; --b) w = (w << 1) | static_cast<unsigned>(e.bit(b));
        t = sqr_n(t, i - j + 1).mul(odd[w >> 1]);
        i = j - 1;
    }
    return t;
}

Scalar Scalar::inverse_vartime() const {
    NEO_ASSERT_MSG(!is_zero(), "scalar inverse of zero");
    Scalar out;
    out.n_ = mod_inverse_vartime(n_, kN);
    return out;
}

void scalar_batch_inverse(Scalar* elems, std::size_t count) {
    if (count == 0) return;
    std::vector<Scalar> prefix(count);
    prefix[0] = elems[0];
    for (std::size_t i = 1; i < count; ++i) prefix[i] = prefix[i - 1].mul(elems[i]);

    Scalar inv = prefix[count - 1].inverse_vartime();
    for (std::size_t i = count; i-- > 1;) {
        Scalar orig = elems[i];
        elems[i] = inv.mul(prefix[i - 1]);
        inv = inv.mul(orig);
    }
    elems[0] = inv;
}

}  // namespace neo::crypto
