#include "crypto/batch_verify.hpp"

#include <memory>

#include "common/assert.hpp"

namespace neo::crypto {

namespace {

// Recursive range descent over the per-item residual verdicts. A range
// whose items all passed is accepted as-is; a failing range is split until
// the failing singletons are isolated, and each of those is re-verified
// through the generic double_mul (Byzantine safety: the two
// implementations must agree).
void bisect(const std::vector<BatchVerifyItem>& items, const std::vector<const QTable*>& tables,
            std::vector<bool>& verdicts, std::size_t lo, std::size_t hi,
            BatchVerifyStats* stats) {
    bool all_ok = true;
    for (std::size_t i = lo; i < hi; ++i) all_ok = all_ok && verdicts[i];
    if (all_ok) return;

    if (hi - lo == 1) {
        const BatchVerifyItem& item = items[lo];
        // Degenerate items (no key, zero r/s) are rejected outright — there
        // is nothing to recheck.
        if (item.pub == nullptr || item.pub->q.infinity || item.sig.r.is_zero() ||
            item.sig.s.is_zero()) {
            return;
        }
        if (stats) stats->leaf_rechecks++;
        // Independent recomputation: the fixed-time scalar inverse, the
        // generic double_mul (no QTable, no GLV split) and the affine
        // x-comparison, none of the batch's shared state.
        Scalar z = Scalar::from_be_bytes_reduce(
            BytesView(item.digest.data(), item.digest.size()));
        Scalar w = item.sig.s.inverse();
        AffinePoint p = double_mul(z.mul(w), item.pub->q, item.sig.r.mul(w));
        bool ok = false;
        if (!p.infinity) {
            Digest32 px = p.x.to_be_bytes();
            ok = Scalar::from_be_bytes_reduce(BytesView(px.data(), px.size())) == item.sig.r;
        }
        NEO_ASSERT_MSG(ok == verdicts[lo],
                       "batch-verify residual disagrees with the generic double_mul recheck");
        verdicts[lo] = ok;
        return;
    }

    if (stats) stats->bisect_steps++;
    std::size_t mid = lo + (hi - lo) / 2;
    bisect(items, tables, verdicts, lo, mid, stats);
    bisect(items, tables, verdicts, mid, hi, stats);
}

}  // namespace

std::vector<bool> ecdsa_verify_batch(const std::vector<BatchVerifyItem>& items,
                                     BatchVerifyStats* stats) {
    std::vector<bool> out(items.size(), false);
    if (items.empty()) return out;
    if (stats) {
        stats->batches++;
        stats->items += items.size();
    }

    // Shared precomputation 1: all s inverted for the cost of one inversion.
    std::vector<Scalar> w(items.size());
    std::vector<bool> skip(items.size(), false);
    for (std::size_t i = 0; i < items.size(); ++i) {
        const BatchVerifyItem& item = items[i];
        if (item.pub == nullptr || item.pub->q.infinity || item.sig.r.is_zero() ||
            item.sig.s.is_zero()) {
            skip[i] = true;
            w[i] = Scalar::one();  // placeholder; batch inversion needs non-zero
        } else {
            w[i] = item.sig.s;
        }
    }
    scalar_batch_inverse(w.data(), w.size());

    // Shared precomputation 2: one wNAF table per distinct signer. Items
    // with a caller-cached table use it directly; the rest share tables
    // built once per distinct public key in this batch.
    std::vector<const QTable*> tables(items.size(), nullptr);
    std::vector<std::unique_ptr<QTable>> built;
    std::vector<const EcdsaPublicKey*> built_for;
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (skip[i]) continue;
        if (items[i].table != nullptr) {
            tables[i] = items[i].table;
            continue;
        }
        const EcdsaPublicKey* pub = items[i].pub;
        for (std::size_t j = 0; j < built_for.size(); ++j) {
            if (built_for[j] == pub ||
                (built_for[j]->q.x == pub->q.x && built_for[j]->q.y == pub->q.y)) {
                tables[i] = built[j].get();
                break;
            }
        }
        if (tables[i] == nullptr) {
            built.push_back(std::make_unique<QTable>(pub->q));
            built_for.push_back(pub);
            tables[i] = built.back().get();
            if (stats) stats->tables_built++;
        }
    }

    // Per-item residual: u1·G + u2·Q == x-coordinate r (projective compare,
    // no inversions). Each check is individually sound — the batch only
    // shares precomputation, never mixes equations.
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (skip[i]) continue;
        const BatchVerifyItem& item = items[i];
        Scalar z = Scalar::from_be_bytes_reduce(
            BytesView(item.digest.data(), item.digest.size()));
        out[i] = tables[i]->double_mul_check_r(z.mul(w[i]), item.sig.r.mul(w[i]), item.sig.r);
    }

    bool all_ok = true;
    for (std::size_t i = 0; i < items.size(); ++i) all_ok = all_ok && out[i];
    if (all_ok) {
        if (stats) stats->fast_path_batches++;
        return out;
    }

    if (stats) stats->bisect_batches++;
    bisect(items, tables, out, 0, items.size(), stats);
    return out;
}

}  // namespace neo::crypto
