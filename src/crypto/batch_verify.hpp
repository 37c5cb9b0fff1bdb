// Batch ECDSA verification with shared precomputation and a bisecting
// fallback that isolates forged signatures.
//
// The paper's FPGA amortises SIGNING cost by hash-chaining aom messages
// (§4.4); this is the receive-side mirror for commodity hosts: when a
// window of signed messages arrives together (a confirm batch, a quorum
// certificate, a chained aom-PK window), the verifier shares work across
// the batch instead of verifying one signature at a time.
//
// True aggregate verification (random linear combination of the
// verification equations) is impossible for wire-format ECDSA: (r, s)
// determines the commitment point R only up to the sign of its
// y-coordinate, so an aggregate check would have to try all 2^N sign
// assignments. What CAN be shared, and is:
//   - one scalar inversion for all s_i (Montgomery's trick,
//     scalar_batch_inverse) instead of one per signature;
//   - one wNAF table per distinct signer (the caller may pass cached
//     tables; otherwise they are built once per batch, not per item);
//   - a projective x-comparison per item — zero field inversions on the
//     whole batch path.
// Each item's residual check is still individually sound, so a forged
// signature can be pinpointed, not just detected.
//
// Byzantine safety: on any failure the verifier bisects the batch, and
// every failing SINGLETON is re-verified independently: Scalar::inverse
// instead of the batch inversion, and the generic double_mul (plain
// double-and-add, no QTable, no GLV split) with an affine x-comparison
// instead of the table path. Note that ecdsa_verify itself is NOT
// independent of the batch path: it builds a QTable and runs
// double_mul_check_r just as the batch does. The two verdicts must agree —
// asserted — so a bug in the shared-precomputation path can never let a
// forged signature through quietly, and an attacker who slips one bad
// signature into a batch only costs the verifier O(log n) extra range
// checks plus one recheck per bad item (tested under the Byzantine tamper
// hook).
//
// Host-time only: callers charge virtual CostMeter time per item exactly
// as for one-at-a-time verification, so simulated results are
// byte-identical whether a batch or single verifications settle a set
// (see NodeCrypto::verify_batch).
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/secp256k1.hpp"

namespace neo::crypto {

/// One signature to verify: the signer's public key (and optionally a
/// prebuilt, cached QTable for it), the 32-byte message digest, and the
/// parsed signature.
struct BatchVerifyItem {
    const EcdsaPublicKey* pub = nullptr;
    /// Optional: caller-cached table for `pub`. When null, tables are built
    /// per distinct `pub` within the batch.
    const QTable* table = nullptr;
    Digest32 digest{};
    EcdsaSignature sig{};
};

/// Counters for tests and the micro benchmarks.
struct BatchVerifyStats {
    std::uint64_t batches = 0;          // ecdsa_verify_batch calls with >= 1 item
    std::uint64_t items = 0;            // total signatures checked
    std::uint64_t fast_path_batches = 0;  // batches where every item verified
    std::uint64_t bisect_batches = 0;   // batches that entered the fallback
    std::uint64_t bisect_steps = 0;     // range splits performed
    std::uint64_t leaf_rechecks = 0;    // failing singletons re-verified one-shot
    std::uint64_t tables_built = 0;     // QTables built (0 when all cached)
};

/// Verifies every item; returns per-item validity in input order. Invalid
/// signatures are isolated via bisection and independently re-verified —
/// a batch with forged items returns false exactly for those items.
std::vector<bool> ecdsa_verify_batch(const std::vector<BatchVerifyItem>& items,
                                     BatchVerifyStats* stats = nullptr);

}  // namespace neo::crypto
