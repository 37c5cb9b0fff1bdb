// secp256k1 elliptic-curve arithmetic and ECDSA, implemented from scratch.
//
// This is the signature algorithm the paper's FPGA coprocessor implements for
// the aom-pk variant (§4.4). The generator precompute table below mirrors the
// coprocessor's "pre-computed table in fast block RAM": multiples of the
// generator point are tabulated so a signing operation needs only table
// lookups and point additions, no doublings.
//
// Curve: y² = x³ + 7 over F_p,
//   p = 2²⁵⁶ − 2³² − 977
//   n = FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFE BAAEDCE6 AF48A03B BFD25E8C D0364141
//
// Timing. Field and scalar arithmetic (add, sub, mul, sqr, the reductions
// and normalisation) and the inverses Fe::inverse and Scalar::inverse run
// a fixed sequence of limb operations whatever the values: carries are
// folded with masks, and the inverses are exponentiations by public
// exponents. The inverse_vartime functions branch on their input and serve
// verification only. The group layer is not fixed-time either: the
// generator walk skips zero digits of the scalar and indexes its table by
// them, and the point formulas branch on the identity and on doubling
// cases. Signing is therefore not constant-time. That is acceptable here:
// the keys are simulator keys, and no timing adversary observes the host.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "common/bytes.hpp"

namespace neo::crypto {

/// 256-bit unsigned integer, four little-endian 64-bit limbs.
struct U256 {
    std::array<std::uint64_t, 4> v{0, 0, 0, 0};

    static U256 from_be_bytes(BytesView b32);
    Digest32 to_be_bytes() const;

    bool is_zero() const { return (v[0] | v[1] | v[2] | v[3]) == 0; }
    bool bit(int i) const { return (v[i / 64] >> (i % 64)) & 1; }

    friend bool operator==(const U256&, const U256&) = default;
};

/// -1, 0, +1 three-way compare.
int u256_cmp(const U256& a, const U256& b);

/// out = a + b; returns the carry out of bit 255 (1 = overflowed 2^256).
std::uint64_t u256_add(const U256& a, const U256& b, U256* out);

/// round(a·b / 2^384): the top of a 512-bit product (the GLV split's
/// rounding step).
U256 u256_mul_shift384(const U256& a, const U256& b);

/// The field prime p (2^256 - 2^32 - 977).
const U256& field_prime_u256();
/// The group order n.
const U256& scalar_order_u256();

/// Field element mod p, stored as five 52-bit limbs (libsecp256k1's
/// layout). The 12 spare bits of every limb absorb an addition's carries,
/// so add and sub end in one parallel carry step rather than a chain, and
/// products sum into 128-bit columns without carry handling. The value is
/// kept only weakly reduced (congruent mod p, below 2^257); every
/// observation (==, is_zero, raw, to_be_bytes) reduces it to the canonical
/// value in [0, p).
class Fe {
  public:
    Fe() = default;
    static Fe zero() { return Fe(); }
    static Fe one();
    static Fe from_u64(std::uint64_t x);
    /// Reduces an arbitrary 256-bit value mod p.
    static Fe from_u256(const U256& x);
    /// Parses 32 big-endian bytes; rejects values >= p.
    static std::optional<Fe> from_be_bytes_checked(BytesView b32);

    /// The canonical value in [0, p).
    U256 raw() const;
    Digest32 to_be_bytes() const { return raw().to_be_bytes(); }
    bool is_zero() const { return raw().is_zero(); }

    Fe add(const Fe& o) const;
    Fe sub(const Fe& o) const;
    Fe mul(const Fe& o) const;
    /// Dedicated squaring (fifteen limb products instead of twenty-five;
    /// point doublings are squaring-heavy).
    Fe sqr() const;
    Fe negate() const;
    /// this·k for a small constant k in [0, 64] (one carry step).
    Fe mul_int(unsigned k) const;
    /// Multiplicative inverse, x^(p-2) by a fixed addition chain (255
    /// squarings, 15 multiplications). Requires non-zero input. The
    /// signing path (to_affine of the nonce point) uses this one.
    Fe inverse() const;
    /// Variable-time inverse (binary extended GCD), faster than inverse().
    /// VERIFICATION-SIDE ONLY: the running time depends on the value, so
    /// never call it on secret-derived data.
    Fe inverse_vartime() const;

    friend bool operator==(const Fe& a, const Fe& b);

  private:
    std::array<std::uint64_t, 5> n_{};
};

/// Batch inversion (Montgomery's trick): one inversion plus 3(count-1)
/// multiplications; every element must be non-zero. The single inversion is
/// variable-time — batch callers (table normalisation, verification) only
/// ever invert public values.
void fe_batch_inverse(Fe* elems, std::size_t count);

/// Scalar mod the group order n, always fully reduced.
class Scalar {
  public:
    Scalar() = default;
    static Scalar zero() { return Scalar(); }
    static Scalar one();
    static Scalar from_u64(std::uint64_t x);
    /// Reduces an arbitrary 256-bit value mod n (used for hashes -> z).
    static Scalar from_u256_reduce(const U256& x);
    /// Reduces a 512-bit value (eight little-endian limbs) mod n in fixed
    /// steps; mul and sqr end in it.
    static Scalar from_u512_reduce(const std::array<std::uint64_t, 8>& limbs);
    static Scalar from_be_bytes_reduce(BytesView b32) {
        return from_u256_reduce(U256::from_be_bytes(b32));
    }
    /// Strict parse: rejects values >= n (signature components).
    static std::optional<Scalar> from_be_bytes_checked(BytesView b32);

    const U256& raw() const { return n_; }
    Digest32 to_be_bytes() const { return n_.to_be_bytes(); }
    bool is_zero() const { return n_.is_zero(); }

    Scalar add(const Scalar& o) const;
    Scalar mul(const Scalar& o) const;
    /// Dedicated squaring (ten limb products instead of sixteen).
    Scalar sqr() const;
    Scalar negate() const;
    /// Multiplicative inverse, x^(n-2): an addition chain for the top 127
    /// bits and a 4-bit sliding window over the rest of the public
    /// exponent. Requires non-zero input. The signing path (the nonce
    /// inverse) uses this one.
    Scalar inverse() const;
    /// Variable-time inverse (binary extended GCD), several times faster
    /// than inverse(). VERIFICATION-SIDE ONLY: its running time depends on
    /// the value, and s and r are public once a signature is on the wire.
    Scalar inverse_vartime() const;

    friend bool operator==(const Scalar&, const Scalar&) = default;

  private:
    U256 n_;
};

/// Batch scalar inversion (Montgomery's trick, one variable-time
/// inversion): the shared-precomputation step of batch ECDSA verification —
/// all s_i inverted for the cost of one inversion. Every element must be
/// non-zero; verification-side only (signature components are public).
void scalar_batch_inverse(Scalar* elems, std::size_t count);

/// Affine curve point; `infinity` is the group identity.
struct AffinePoint {
    Fe x;
    Fe y;
    bool infinity = true;

    static AffinePoint generator();
    bool on_curve() const;

    /// 64-byte uncompressed x||y (big-endian). Identity is not serialisable.
    Bytes serialize() const;
    /// Parses and validates (on-curve, coordinates < p).
    static std::optional<AffinePoint> parse(BytesView b64);

    friend bool operator==(const AffinePoint&, const AffinePoint&) = default;
};

/// k*G via the generator precompute table (the FPGA fast path).
AffinePoint generator_mul(const Scalar& k);
/// k*P via double-and-add.
AffinePoint point_mul(const AffinePoint& p, const Scalar& k);
/// P + Q.
AffinePoint point_add(const AffinePoint& p, const AffinePoint& q);
/// u1*G + u2*Q — the ECDSA verification combination, shares one
/// Jacobian accumulation.
AffinePoint double_mul(const Scalar& u1, const AffinePoint& q, const Scalar& u2);

/// Precomputed width-5 wNAF odd multiples {1,3,...,15}·Q of one public
/// point and their images under the GLV endomorphism (Gallant–Lambert–
/// Vanstone, CRYPTO 2001): λ·(x, y) = (β·x, y), where β and λ are
/// nontrivial cube roots of unity mod p and mod n. Building one costs a
/// point doubling, seven additions, a batch inversion and eight field
/// multiplications. u1·G + u2·Q then splits u2 = k1 + k2·λ into two halves
/// below 2^128 and runs one joint wNAF loop over Q and λQ: ~128 doublings
/// and ~44 mixed additions instead of the generic path's 256 doublings and
/// ~128 additions, plus the generator table's 32 mixed additions for u1·G.
/// TrustRoot keeps one per provisioned signer (public keys are immutable
/// after setup), and batch verification shares one per signer per batch.
/// Immutable after construction — safe to read concurrently. The generic
/// double_mul and point_mul above stay free of GLV, so they remain an
/// independent recheck of this path.
class QTable {
  public:
    explicit QTable(const AffinePoint& q);

    const AffinePoint& base() const { return base_; }

    /// β, a nontrivial cube root of unity mod p.
    static const Fe& beta();
    /// λ, the cube root of unity mod n with λ·(x, y) = (β·x, y).
    static const Scalar& lambda();

    /// The GLV split of u: u ≡ ±k1 ± k2·λ (mod n), each sign negative when
    /// its flag is set, with k1 and k2 both below 2^128.
    struct Split {
        Scalar k1;
        Scalar k2;
        bool neg1 = false;
        bool neg2 = false;
    };
    static Split split(const Scalar& u);

    /// u1·G + u2·base() in affine coordinates (one field inversion).
    AffinePoint double_mul(const Scalar& u1, const Scalar& u2) const;

    /// ECDSA residual check without ANY field inversion: computes
    /// P = u1·G + u2·base() in Jacobian coordinates and tests
    /// x(P) ≡ r (mod n) projectively — X == r̃·Z² for r̃ ∈ {r, r+n if < p}.
    /// Equivalent to (!P.infinity && x(P) mod n == r), i.e. exactly the
    /// ecdsa_verify acceptance predicate.
    bool double_mul_check_r(const Scalar& u1, const Scalar& u2, const Scalar& r) const;

  private:
    AffinePoint base_;
    // odd_[i] = (2i+1)·Q; odd_lambda_[i] = λ·(2i+1)·Q = (β·x, y) of odd_[i].
    std::array<AffinePoint, 8> odd_;
    std::array<AffinePoint, 8> odd_lambda_;
};

struct EcdsaSignature {
    Scalar r;
    Scalar s;

    /// 64-byte r||s (big-endian).
    Bytes serialize() const;
    /// Strict parse: r, s in [1, n-1].
    static std::optional<EcdsaSignature> parse(BytesView b64);

    friend bool operator==(const EcdsaSignature&, const EcdsaSignature&) = default;
};

struct EcdsaPrivateKey {
    Scalar d;
    /// Derives a valid private key from 32 seed bytes (reduced mod n, never zero).
    static EcdsaPrivateKey from_seed(BytesView seed32);
};

struct EcdsaPublicKey {
    AffinePoint q;
    Bytes serialize() const { return q.serialize(); }
    static std::optional<EcdsaPublicKey> parse(BytesView b64);
};

EcdsaPublicKey ecdsa_derive_public(const EcdsaPrivateKey& priv);

/// Deterministic ECDSA signing (RFC-6979-style HMAC-SHA256 nonce derivation).
EcdsaSignature ecdsa_sign(const EcdsaPrivateKey& priv, const Digest32& msg_hash);

bool ecdsa_verify(const EcdsaPublicKey& pub, const Digest32& msg_hash, const EcdsaSignature& sig);

/// Verification against a prebuilt table for the signer's public key —
/// the amortised hot path (identical verdict to ecdsa_verify).
bool ecdsa_verify_with(const QTable& table, const Digest32& msg_hash, const EcdsaSignature& sig);

}  // namespace neo::crypto
