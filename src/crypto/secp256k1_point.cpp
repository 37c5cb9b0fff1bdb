// secp256k1 group arithmetic: Jacobian point operations, the generator
// precompute table (mirroring the paper's FPGA coprocessor design, §4.4),
// and scalar multiplication.
#include <algorithm>
#include <vector>

#include "common/assert.hpp"
#include "common/hex.hpp"
#include "crypto/secp256k1.hpp"

namespace neo::crypto {

namespace {

// Jacobian coordinates (X, Y, Z): affine = (X/Z², Y/Z³). The identity is a
// flag rather than Z == 0, which would cost a normalisation per step. Z of
// any other point is never zero: doubling multiplies it by 2Y, and no point
// of a group of odd prime order has Y == 0 (that would be a point of order
// 2); addition multiplies it by H, and H == 0 is handled separately.
struct Jac {
    Fe x;
    Fe y;
    Fe z;
    bool infinity = false;

    static Jac identity() { return Jac{Fe::zero(), Fe::one(), Fe::zero(), true}; }
};

Jac to_jac(const AffinePoint& p) {
    if (p.infinity) return Jac::identity();
    return Jac{p.x, p.y, Fe::one()};
}

// dbl-2009-l for a = 0.
Jac jac_double(const Jac& p) {
    if (p.infinity) return p;
    Fe a = p.x.sqr();
    Fe b = p.y.sqr();
    Fe c = b.sqr();
    Fe d = p.x.add(b).sqr().sub(a).sub(c);  // D/2
    Fe e = a.mul_int(3);
    Fe x3 = e.sqr().sub(d.mul_int(4));
    Fe y3 = e.mul(d.mul_int(2).sub(x3)).sub(c.mul_int(8));
    Fe z3 = p.y.mul(p.z).mul_int(2);
    return Jac{x3, y3, z3};
}

// Textbook general Jacobian addition.
Jac jac_add(const Jac& p, const Jac& q) {
    if (p.infinity) return q;
    if (q.infinity) return p;

    Fe z1z1 = p.z.sqr();
    Fe z2z2 = q.z.sqr();
    Fe u1 = p.x.mul(z2z2);
    Fe u2 = q.x.mul(z1z1);
    Fe s1 = p.y.mul(q.z).mul(z2z2);
    Fe s2 = q.y.mul(p.z).mul(z1z1);
    Fe h = u2.sub(u1);
    Fe r = s2.sub(s1);

    if (h.is_zero()) {
        if (r.is_zero()) return jac_double(p);
        return Jac::identity();  // P + (-P)
    }

    Fe h2 = h.sqr();
    Fe h3 = h.mul(h2);
    Fe u1h2 = u1.mul(h2);
    Fe x3 = r.sqr().sub(h3).sub(u1h2).sub(u1h2);
    Fe y3 = r.mul(u1h2.sub(x3)).sub(s1.mul(h3));
    Fe z3 = p.z.mul(q.z).mul(h);
    return Jac{x3, y3, z3};
}

// Mixed addition with an affine point (Z2 = 1) — the table fast path.
Jac jac_add_affine(const Jac& p, const AffinePoint& q) {
    if (q.infinity) return p;
    if (p.infinity) return to_jac(q);

    Fe z1z1 = p.z.sqr();
    Fe u2 = q.x.mul(z1z1);
    Fe s2 = q.y.mul(p.z).mul(z1z1);
    Fe h = u2.sub(p.x);
    Fe r = s2.sub(p.y);

    if (h.is_zero()) {
        if (r.is_zero()) return jac_double(p);
        return Jac::identity();
    }

    Fe h2 = h.sqr();
    Fe h3 = h.mul(h2);
    Fe u1h2 = p.x.mul(h2);
    Fe x3 = r.sqr().sub(h3).sub(u1h2).sub(u1h2);
    Fe y3 = r.mul(u1h2.sub(x3)).sub(p.y.mul(h3));
    Fe z3 = p.z.mul(h);
    return Jac{x3, y3, z3};
}

AffinePoint to_affine(const Jac& p) {
    if (p.infinity) return AffinePoint{};
    Fe zinv = p.z.inverse();
    Fe zinv2 = zinv.sqr();
    AffinePoint out;
    out.x = p.x.mul(zinv2);
    out.y = p.y.mul(zinv2).mul(zinv);
    out.infinity = false;
    return out;
}

// Generator precompute table: kTable[w][d-1] = d * 256^w * G in affine, for
// w in [0, 32), d in [1, 256). A scalar multiplication of G is then the sum
// of at most 32 table entries — additions only, no doublings. This is the
// software twin of the FPGA "pre-computed stock" of generator multiples
// (8-bit windows, ~720 KB: half the additions of the earlier 4-bit comb for
// a table that still fits comfortably in memory).
struct GenTable {
    AffinePoint entries[32][255];
};

const GenTable& gen_table() {
    static const GenTable* table = [] {
        auto* t = new GenTable();
        std::vector<Jac> jac_entries;
        jac_entries.reserve(32 * 255);

        Jac window_base = to_jac(AffinePoint::generator());
        for (int w = 0; w < 32; ++w) {
            Jac cur = window_base;
            for (int d = 1; d <= 255; ++d) {
                jac_entries.push_back(cur);
                if (d < 255) cur = jac_add(cur, window_base);
            }
            // Advance to 256^(w+1) * G = cur + base (cur is 255*256^w*G).
            window_base = jac_add(cur, window_base);
        }

        // Batch-convert to affine with a single field inversion.
        std::vector<Fe> zs(jac_entries.size());
        for (std::size_t i = 0; i < jac_entries.size(); ++i) zs[i] = jac_entries[i].z;
        fe_batch_inverse(zs.data(), zs.size());
        for (std::size_t i = 0; i < jac_entries.size(); ++i) {
            Fe zinv2 = zs[i].sqr();
            AffinePoint a;
            a.x = jac_entries[i].x.mul(zinv2);
            a.y = jac_entries[i].y.mul(zinv2).mul(zs[i]);
            a.infinity = false;
            t->entries[i / 255][i % 255] = a;
        }
        return t;
    }();
    return *table;
}

Jac gen_mul_jac(const Scalar& k) {
    const GenTable& table = gen_table();
    Jac acc = Jac::identity();
    for (int w = 0; w < 32; ++w) {
        unsigned digit = static_cast<unsigned>(
            (k.raw().v[static_cast<std::size_t>(w / 8)] >> (8 * (w % 8))) & 0xff);
        if (digit != 0) acc = jac_add_affine(acc, table.entries[w][digit - 1]);
    }
    return acc;
}

Jac point_mul_jac(const AffinePoint& p, const Scalar& k) {
    Jac acc = Jac::identity();
    for (int i = 255; i >= 0; --i) {
        acc = jac_double(acc);
        if (k.raw().bit(i)) acc = jac_add_affine(acc, p);
    }
    return acc;
}

// Width-5 wNAF recoding: digits are 0 or odd in [-15, 15]; at most one
// nonzero digit in any 5 consecutive positions (average density 1/6).
// Returns the digit count (<= 257; <= 129 for a GLV half below 2^128).
int wnaf5(const Scalar& s, std::int8_t digits[257]) {
    // 5 limbs: the "k -= d" step with d < 0 adds up to 15, which can carry
    // past 2^256 for scalars near the top of the range.
    std::uint64_t k[5] = {s.raw().v[0], s.raw().v[1], s.raw().v[2], s.raw().v[3], 0};
    auto is_zero = [&] { return (k[0] | k[1] | k[2] | k[3] | k[4]) == 0; };
    auto shr1_5 = [&] {
        for (int i = 0; i < 4; ++i) k[i] = (k[i] >> 1) | (k[i + 1] << 63);
        k[4] >>= 1;
    };
    int len = 0;
    while (!is_zero()) {
        std::int8_t d = 0;
        if (k[0] & 1) {
            int m = static_cast<int>(k[0] & 31);  // k mod 32
            d = static_cast<std::int8_t>(m > 16 ? m - 32 : m);
            if (d >= 0) {
                k[0] -= static_cast<std::uint64_t>(d);  // k odd, d <= k: no borrow past limb 0?
                // d <= 15 and k odd >= 1; if k < d the scalar would already
                // have fit in 5 bits and m == k, so d == k. Borrow-free.
            } else {
                std::uint64_t add = static_cast<std::uint64_t>(-d);
                std::uint64_t carry = __builtin_add_overflow(k[0], add, &k[0]) ? 1u : 0u;
                for (int i = 1; i < 5 && carry; ++i) {
                    carry = __builtin_add_overflow(k[i], carry, &k[i]) ? 1u : 0u;
                }
            }
        }
        digits[len++] = d;
        shr1_5();
    }
    return len;
}

AffinePoint affine_negate(const AffinePoint& p) {
    if (p.infinity) return p;
    return AffinePoint{p.x, p.y.negate(), false};
}

// GLV split constants (GLV §4). The lattice {(a, b) : a + b·λ ≡ 0 mod n}
// has the short basis (a1, b1), (a2, b2) with a1 = b2 and a2 = a1 - b1;
// g1 = round(2^384·b2 / n) and g2 = round(2^384·(-b1) / n).
// Glv.SplitRecombinesWithHalvesBelow2To128 checks the split they yield.
constexpr U256 kGlvG1{{0xE893209A45DBB031ull, 0x3DAA8A1471E8CA7Full,
                       0xE86C90E49284EB15ull, 0x3086D221A7D46BCDull}};
constexpr U256 kGlvG2{{0x1571B4AE8AC47F71ull, 0x221208AC9DF506C6ull,
                       0x6F547FA90ABFE4C4ull, 0xE4437ED6010E8828ull}};

Scalar scalar_from_hex(const char* hex) {
    return *Scalar::from_be_bytes_checked(from_hex_strict(hex));
}

}  // namespace

AffinePoint AffinePoint::generator() {
    static const AffinePoint g = [] {
        AffinePoint p;
        p.x = *Fe::from_be_bytes_checked(
            from_hex_strict("79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"));
        p.y = *Fe::from_be_bytes_checked(
            from_hex_strict("483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8"));
        p.infinity = false;
        return p;
    }();
    return g;
}

bool AffinePoint::on_curve() const {
    if (infinity) return true;
    Fe lhs = y.sqr();
    Fe rhs = x.sqr().mul(x).add(Fe::from_u64(7));
    return lhs == rhs;
}

Bytes AffinePoint::serialize() const {
    NEO_ASSERT_MSG(!infinity, "cannot serialize the identity point");
    Digest32 xb = x.to_be_bytes();
    Digest32 yb = y.to_be_bytes();
    Bytes out;
    out.reserve(64);
    out.insert(out.end(), xb.begin(), xb.end());
    out.insert(out.end(), yb.begin(), yb.end());
    return out;
}

std::optional<AffinePoint> AffinePoint::parse(BytesView b64) {
    if (b64.size() != 64) return std::nullopt;
    auto x = Fe::from_be_bytes_checked(b64.subspan(0, 32));
    auto y = Fe::from_be_bytes_checked(b64.subspan(32, 32));
    if (!x || !y) return std::nullopt;
    AffinePoint p{*x, *y, false};
    if (!p.on_curve()) return std::nullopt;
    return p;
}

AffinePoint generator_mul(const Scalar& k) { return to_affine(gen_mul_jac(k)); }

AffinePoint point_mul(const AffinePoint& p, const Scalar& k) {
    return to_affine(point_mul_jac(p, k));
}

AffinePoint point_add(const AffinePoint& p, const AffinePoint& q) {
    return to_affine(jac_add(to_jac(p), to_jac(q)));
}

AffinePoint double_mul(const Scalar& u1, const AffinePoint& q, const Scalar& u2) {
    Jac acc = gen_mul_jac(u1);
    acc = jac_add(acc, point_mul_jac(q, u2));
    return to_affine(acc);
}

// ----------------------------------------------------------------- QTable

const Fe& QTable::beta() {
    static const Fe b = *Fe::from_be_bytes_checked(
        from_hex_strict("7ae96a2b657c07106e64479eac3434e99cf0497512f58995c1396c28719501ee"));
    return b;
}

const Scalar& QTable::lambda() {
    static const Scalar l =
        scalar_from_hex("5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72");
    return l;
}

QTable::Split QTable::split(const Scalar& u) {
    // Babai rounding (GLV §4): c_i = round(u·g_i / 2^384) ≈ u·b_i / n, then
    // (k1, k2) = (u, 0) - c1·(a1, b1) - c2·(a2, b2), a short lattice offset
    // of (u, 0). Only k2 is formed from the basis; k1 = u - k2·λ.
    static const Scalar minus_b1 =
        scalar_from_hex("00000000000000000000000000000000e4437ed6010e88286f547fa90abfe4c3");
    static const Scalar minus_b2 =
        scalar_from_hex("fffffffffffffffffffffffffffffffe8a280ac50774346dd765cda83db1562c");
    static const Scalar minus_lambda = lambda().negate();
    Scalar c1 = Scalar::from_u256_reduce(u256_mul_shift384(u.raw(), kGlvG1));
    Scalar c2 = Scalar::from_u256_reduce(u256_mul_shift384(u.raw(), kGlvG2));
    Split out;
    out.k2 = c1.mul(minus_b1).add(c2.mul(minus_b2));
    out.k1 = out.k2.mul(minus_lambda).add(u);
    // Each half is within 2^128 of zero, on one side or the other.
    auto fold = [](Scalar& k, bool& neg) {
        neg = (k.raw().v[2] | k.raw().v[3]) != 0;
        if (neg) k = k.negate();
        NEO_ASSERT_MSG((k.raw().v[2] | k.raw().v[3]) == 0, "GLV half above 2^128");
    };
    fold(out.k1, out.neg1);
    fold(out.k2, out.neg2);
    return out;
}

QTable::QTable(const AffinePoint& q) : base_(q) {
    if (q.infinity) {
        for (auto& e : odd_) e = AffinePoint{};  // all identity; adds skip
        odd_lambda_ = odd_;
        return;
    }
    // odd_[i] = (2i+1)·Q via repeated addition of 2Q, then one batch
    // normalisation. n is prime and > 15, so no odd multiple of a
    // non-identity point can be the identity.
    Jac q2 = jac_double(to_jac(q));
    std::array<Jac, 8> jacs;
    jacs[0] = to_jac(q);
    for (std::size_t i = 1; i < jacs.size(); ++i) jacs[i] = jac_add(jacs[i - 1], q2);

    std::array<Fe, 8> zs;
    for (std::size_t i = 0; i < jacs.size(); ++i) zs[i] = jacs[i].z;
    fe_batch_inverse(zs.data(), zs.size());
    for (std::size_t i = 0; i < jacs.size(); ++i) {
        Fe zinv2 = zs[i].sqr();
        odd_[i].x = jacs[i].x.mul(zinv2);
        odd_[i].y = jacs[i].y.mul(zinv2).mul(zs[i]);
        odd_[i].infinity = false;
        odd_lambda_[i] = AffinePoint{odd_[i].x.mul(beta()), odd_[i].y, false};
    }
}

namespace {

// acc + d·P for a wNAF digit d (odd multiples of P in `odd`), with the
// sign of d flipped when `neg` is set.
Jac add_digit(const Jac& acc, const std::array<AffinePoint, 8>& odd, std::int8_t d, bool neg) {
    if (d == 0) return acc;
    const AffinePoint& m = odd[static_cast<std::size_t>(((d > 0 ? d : -d) - 1) / 2)];
    return jac_add_affine(acc, ((d < 0) != neg) ? affine_negate(m) : m);
}

// Shared accumulation for QTable's two entry points: u1·G + u2·Q in
// Jacobian coordinates. u2 = ±k1 ± k2·λ, so u2·Q = ±k1·Q ± k2·(λQ): one
// joint wNAF-5 loop over the two ~128-bit halves pays ~128 doublings for
// both. The G side goes through the window comb (additions only, appended
// after the doubling loop).
Jac qtable_double_mul_jac(const std::array<AffinePoint, 8>& odd,
                          const std::array<AffinePoint, 8>& odd_lambda, const Scalar& u1,
                          const Scalar& u2) {
    QTable::Split s = QTable::split(u2);
    std::int8_t d1[257];
    std::int8_t d2[257];
    int len1 = wnaf5(s.k1, d1);
    int len2 = wnaf5(s.k2, d2);
    Jac acc = Jac::identity();
    for (int i = std::max(len1, len2) - 1; i >= 0; --i) {
        acc = jac_double(acc);
        if (i < len1) acc = add_digit(acc, odd, d1[i], s.neg1);
        if (i < len2) acc = add_digit(acc, odd_lambda, d2[i], s.neg2);
    }
    return jac_add(acc, gen_mul_jac(u1));
}

}  // namespace

AffinePoint QTable::double_mul(const Scalar& u1, const Scalar& u2) const {
    return to_affine(qtable_double_mul_jac(odd_, odd_lambda_, u1, u2));
}

bool QTable::double_mul_check_r(const Scalar& u1, const Scalar& u2, const Scalar& r) const {
    Jac p = qtable_double_mul_jac(odd_, odd_lambda_, u1, u2);
    if (p.infinity) return false;
    // x(P) mod n == r  ⟺  x(P) == r̃ for r̃ in {r, r+n if r+n < p}
    // (x < p < 2n, so at most one wrap). Projectively, x(P) == r̃ is
    // X == r̃·Z² — no field inversion needed.
    Fe z2 = p.z.sqr();
    if (Fe::from_u256(r.raw()).mul(z2) == p.x) return true;
    U256 rn;
    if (u256_add(r.raw(), scalar_order_u256(), &rn) == 0 &&
        u256_cmp(rn, field_prime_u256()) < 0) {
        if (Fe::from_u256(rn).mul(z2) == p.x) return true;
    }
    return false;
}

}  // namespace neo::crypto
