#include "apps/kvstore.hpp"

#include "common/assert.hpp"

namespace neo::app {

namespace {

constexpr std::int64_t kBadRequestCostNs = 1'400;

/// Cost of a transaction whose u32 op count sits at `off`: `base` plus
/// kBadRequestCostNs per op. A count KvTxnOp::parse rejects (0, above
/// kMaxTxnOps, or cut off) executes as kBadRequest and costs that alone.
/// Reads the count only, so the host does not parse every op twice.
std::int64_t txn_cost_ns(BytesView data, std::size_t off, std::int64_t base) {
    if (data.size() < off + 4) return kBadRequestCostNs;
    std::uint32_t n = 0;
    for (int i = 0; i < 4; ++i) n |= static_cast<std::uint32_t>(data[off + i]) << (8 * i);
    if (n == 0 || n > kMaxTxnOps) return kBadRequestCostNs;
    return base + kBadRequestCostNs * static_cast<std::int64_t>(n);
}

/// A serialized result.
Bytes result_bytes(KvStatus status, Bytes value = {}) {
    KvResult r;
    r.status = status;
    r.value = std::move(value);
    return r.serialize();
}
}  // namespace

KvResult KvStateMachine::apply_single(const KvOp& op, UndoRecord& undo) {
    undo.type = op.type;
    undo.key = op.key;
    KvResult result;

    switch (op.type) {
        case KvOpType::kGet: {
            const Bytes* v = store_.get(op.key);
            if (v != nullptr) {
                result.status = KvStatus::kOk;
                result.value = *v;
            } else {
                result.status = KvStatus::kNotFound;
            }
            break;
        }
        case KvOpType::kPut: {
            const Bytes* old = store_.get(op.key);
            undo.existed = old != nullptr;
            if (old != nullptr) undo.old_value = *old;
            store_.put(op.key, op.value);
            result.status = KvStatus::kOk;
            break;
        }
        case KvOpType::kDelete: {
            const Bytes* old = store_.get(op.key);
            undo.existed = old != nullptr;
            if (old != nullptr) undo.old_value = *old;
            bool erased = store_.erase(op.key);
            result.status = erased ? KvStatus::kOk : KvStatus::kNotFound;
            break;
        }
        default:
            result.status = KvStatus::kBadRequest;
            break;
    }
    return result;
}

void KvStateMachine::undo_single(UndoRecord& rec) {
    switch (rec.type) {
        case KvOpType::kGet:
            break;  // reads mutate nothing
        case KvOpType::kPut:
            if (rec.existed) {
                store_.put(rec.key, rec.old_value);
            } else {
                store_.erase(rec.key);
            }
            break;
        case KvOpType::kDelete:
            if (rec.existed) store_.put(rec.key, rec.old_value);
            break;
        default:
            break;
    }
}

namespace {
/// Positional per-op results: u32 n, then n x blob(KvResult).
Bytes pack_results(const std::vector<KvResult>& results) {
    Writer w(8 + results.size() * 16);
    w.u32(static_cast<std::uint32_t>(results.size()));
    for (const KvResult& r : results) w.blob(r.serialize());
    return std::move(w).take();
}
}  // namespace

Bytes KvStateMachine::txn_local(const KvTxnOp& txn, UndoRecord& undo) {
    undo.type = KvOpType::kTxnLocal;
    // A one-shot transaction conflicts with any in-flight 2PC lock: its
    // keys could be part of a staged write-set, so touching them would
    // break prepared-transaction isolation.
    for (const KvOp& op : txn.ops) {
        if (locks_.contains(op.key)) {
            return result_bytes(KvStatus::kTxnAborted);
        }
    }
    std::vector<KvResult> results;
    results.reserve(txn.ops.size());
    for (const KvOp& op : txn.ops) {
        UndoRecord sub;
        results.push_back(apply_single(op, sub));
        undo.multi.push_back(std::move(sub));
    }
    return result_bytes(KvStatus::kOk, pack_results(results));
}

Bytes KvStateMachine::txn_prepare(const KvTxnOp& txn, UndoRecord& undo) {
    undo.type = KvOpType::kTxnPrepare;
    undo.txn_id = txn.txn_id;

    if (byz_prepare_) {
        // Equivocation: the reply claims PREPARED, but this replica records
        // an abort vote and holds no locks — a later commit finds nothing
        // staged (kTxnUnknown) while honest shards apply theirs.
        notify_txn(txn.txn_id, 0, false);
        return result_bytes(KvStatus::kTxnPrepared);
    }

    if (auto sit = staged_.find(txn.txn_id); sit != staged_.end()) {
        // Duplicate prepare (coordinator retry after a lost vote): the
        // stage already holds this transaction's locks. Re-read under them
        // and refresh the stage age; no second undo stash is taken.
        sit->second.staged_at = executed_;
        std::vector<KvResult> results;
        results.reserve(txn.ops.size());
        for (const KvOp& op : txn.ops) {
            if (op.type == KvOpType::kGet) {
                UndoRecord scratch;
                results.push_back(apply_single(op, scratch));
            } else {
                results.emplace_back();  // kOk
            }
        }
        return result_bytes(KvStatus::kTxnPrepared, pack_results(results));
    }

    for (const KvOp& op : txn.ops) {
        auto it = locks_.find(op.key);
        if (it != locks_.end() && it->second != txn.txn_id) {
            if (wait_die_ && txn.txn_id < it->second) {
                // Wait-die: an OLDER transaction (smaller id) blocked by a
                // younger lock holder waits — no locks taken, no vote
                // recorded; the coordinator retries the same txn_id, so its
                // seniority is preserved and it cannot starve.
                return result_bytes(KvStatus::kTxnWait);
            }
            // Younger (or no-wait mode): die. Restarting with the same id
            // keeps the transaction's age, so it eventually outranks.
            notify_txn(txn.txn_id, 0, false);
            return result_bytes(KvStatus::kTxnAborted);
        }
    }

    StagedTxn staged;
    staged.staged_at = executed_;
    std::vector<KvResult> results;
    results.reserve(txn.ops.size());
    for (const KvOp& op : txn.ops) {
        if (!locks_.contains(op.key)) {
            locks_.emplace(op.key, txn.txn_id);
            staged.locked_keys.push_back(op.key);
        }
        if (op.type == KvOpType::kGet) {
            // Reads execute under the lock at prepare time (2PL): the
            // values returned are the ones the commit point serialises.
            UndoRecord scratch;
            results.push_back(apply_single(op, scratch));
        } else {
            staged.writes.push_back(op);
            results.emplace_back();  // kOk
        }
    }
    staged_[txn.txn_id] = std::move(staged);
    undo.took_effect = true;
    notify_txn(txn.txn_id, 0, true);
    return result_bytes(KvStatus::kTxnPrepared, pack_results(results));
}

Bytes KvStateMachine::txn_commit(const KvTxnOp& txn, UndoRecord& undo) {
    undo.type = KvOpType::kTxnCommit;
    undo.txn_id = txn.txn_id;

    auto it = staged_.find(txn.txn_id);
    if (it == staged_.end()) {
        notify_txn(txn.txn_id, 1, false);
        return result_bytes(KvStatus::kTxnUnknown);
    }
    for (const KvOp& op : it->second.writes) {
        UndoRecord sub;
        apply_single(op, sub);
        undo.multi.push_back(std::move(sub));
    }
    for (const Bytes& key : it->second.locked_keys) locks_.erase(key);
    undo.took_effect = true;
    undo.staged = std::move(it->second);
    staged_.erase(it);
    notify_txn(txn.txn_id, 1, true);
    return result_bytes(KvStatus::kOk);
}

Bytes KvStateMachine::txn_abort(const KvTxnOp& txn, UndoRecord& undo) {
    undo.type = KvOpType::kTxnAbort;
    undo.txn_id = txn.txn_id;

    auto it = staged_.find(txn.txn_id);
    if (it != staged_.end()) {
        for (const Bytes& key : it->second.locked_keys) locks_.erase(key);
        undo.took_effect = true;
        undo.staged = std::move(it->second);
        staged_.erase(it);
    }
    // Aborting an unknown transaction is the idempotent no-op the retry
    // path relies on; both cases count as the abort taking effect.
    notify_txn(txn.txn_id, 2, true);
    return result_bytes(KvStatus::kOk);
}

void KvStateMachine::expire_stale_prepares(UndoRecord& undo) {
    if (abort_after_ops_ == 0) return;
    // std::map iteration = ascending txn_id: deterministic across replicas,
    // which is what lets every replica presume the same aborts at the same
    // log position without any coordination.
    for (auto it = staged_.begin(); it != staged_.end();) {
        if (executed_ - it->second.staged_at <= abort_after_ops_) {
            ++it;
            continue;
        }
        const std::uint64_t txn_id = it->first;
        for (const Bytes& key : it->second.locked_keys) locks_.erase(key);
        undo.expired.emplace_back(txn_id, std::move(it->second));
        it = staged_.erase(it);
        ++expired_txns_;
        // Presumed abort: recorded as an applied abort so the auditor's
        // orphan check sees every participant resolve the transaction.
        notify_txn(txn_id, 2, true);
    }
}

Bytes KvStateMachine::execute(BytesView op_bytes) {
    ++executed_;
    UndoRecord undo;
    Bytes result_wire;

    // Presumed-abort sweep runs BEFORE the op: a decision arriving for an
    // already-expired transaction is uniformly rejected on every replica.
    std::vector<std::pair<std::uint64_t, StagedTxn>> expired;
    {
        UndoRecord sweep;
        expire_stale_prepares(sweep);
        expired = std::move(sweep.expired);
    }

    std::uint8_t t = op_bytes.empty() ? 0 : op_bytes[0];
    if (t >= 1 && t <= 3) {
        auto op = KvOp::parse(op_bytes);
        if (op.has_value()) {
            result_wire = apply_single(*op, undo).serialize();
        }
    } else if (t >= 4 && t <= 7) {
        auto txn = KvTxnOp::parse(op_bytes);
        if (txn.has_value()) {
            switch (txn->type) {
                case KvOpType::kTxnLocal: result_wire = txn_local(*txn, undo); break;
                case KvOpType::kTxnPrepare: result_wire = txn_prepare(*txn, undo); break;
                case KvOpType::kTxnCommit: result_wire = txn_commit(*txn, undo); break;
                default: result_wire = txn_abort(*txn, undo); break;
            }
        }
    }
    if (result_wire.empty()) {
        // Malformed ops still consume a log position deterministically.
        undo = UndoRecord{};
        result_wire = result_bytes(KvStatus::kBadRequest);
    }
    undo.expired = std::move(expired);
    undo_log_.push_back(std::move(undo));
    return result_wire;
}

void KvStateMachine::undo_last() {
    NEO_ASSERT_MSG(!undo_log_.empty(), "undo without history");
    UndoRecord rec = std::move(undo_log_.back());
    undo_log_.pop_back();
    --executed_;

    switch (rec.type) {
        case KvOpType::kTxnLocal:
            for (auto it = rec.multi.rbegin(); it != rec.multi.rend(); ++it) undo_single(*it);
            break;
        case KvOpType::kTxnPrepare:
            if (rec.took_effect) {
                auto it = staged_.find(rec.txn_id);
                NEO_ASSERT_MSG(it != staged_.end(), "prepare undo without stash");
                for (const Bytes& key : it->second.locked_keys) locks_.erase(key);
                staged_.erase(it);
            }
            break;
        case KvOpType::kTxnCommit:
            if (rec.took_effect) {
                for (auto it = rec.multi.rbegin(); it != rec.multi.rend(); ++it) {
                    undo_single(*it);
                }
                for (const Bytes& key : rec.staged.locked_keys) {
                    locks_.emplace(key, rec.txn_id);
                }
                staged_[rec.txn_id] = std::move(rec.staged);
            }
            break;
        case KvOpType::kTxnAbort:
            if (rec.took_effect) {
                for (const Bytes& key : rec.staged.locked_keys) {
                    locks_.emplace(key, rec.txn_id);
                }
                staged_[rec.txn_id] = std::move(rec.staged);
            }
            break;
        default:
            undo_single(rec);
            break;
    }

    // Reinstate prepares the op's presumed-abort sweep expired (the sweep
    // ran first in execute(), so it is reverted last).
    for (auto it = rec.expired.rbegin(); it != rec.expired.rend(); ++it) {
        for (const Bytes& key : it->second.locked_keys) locks_.emplace(key, it->first);
        staged_[it->first] = std::move(it->second);
        --expired_txns_;
    }
}

void KvStateMachine::commit_prefix(std::uint64_t n) {
    NEO_ASSERT(n >= committed_);
    std::uint64_t newly = n - committed_;
    committed_ = n;
    // Drop undo records for committed ops (oldest first).
    while (newly-- > 0 && !undo_log_.empty()) undo_log_.pop_front();
}

Bytes KvStateMachine::snapshot() const {
    // Deterministic image of everything execute() can observe: every replica
    // at the same log position serialises byte-identical state (BTreeMap
    // iterates in key order, std::map in txn_id order). Config knobs
    // (wait_die_, abort timeouts, Byzantine doubles) are NOT state.
    Writer w(64 + store_.size() * 32);
    w.u64(executed_);
    w.u64(expired_txns_);
    w.u64(static_cast<std::uint64_t>(store_.size()));
    store_.for_each([&w](const Bytes& key, const Bytes& value) {
        w.blob(key);
        w.blob(value);
    });
    w.u32(static_cast<std::uint32_t>(locks_.size()));
    for (const auto& [key, txn] : locks_) {
        w.blob(key);
        w.u64(txn);
    }
    w.u32(static_cast<std::uint32_t>(staged_.size()));
    for (const auto& [txn_id, staged] : staged_) {
        w.u64(txn_id);
        w.u64(staged.staged_at);
        w.u32(static_cast<std::uint32_t>(staged.writes.size()));
        for (const KvOp& op : staged.writes) w.blob(op.serialize());
        w.u32(static_cast<std::uint32_t>(staged.locked_keys.size()));
        for (const Bytes& key : staged.locked_keys) w.blob(key);
    }
    return std::move(w).take();
}

void KvStateMachine::restore(BytesView snap) {
    // The caller verified the image against a certified Merkle root, so a
    // parse failure here is a local bug, not Byzantine input.
    try {
        Reader r(snap);
        BTreeMap store;
        std::map<Bytes, std::uint64_t> locks;
        std::map<std::uint64_t, StagedTxn> staged;
        const std::uint64_t executed = r.u64();
        const std::uint64_t expired = r.u64();
        for (std::uint64_t i = 0, n = r.u64(); i < n; ++i) {
            Bytes key = r.blob(kMaxKey);
            store.put(key, r.blob(kMaxValue));
        }
        for (std::uint32_t i = 0, n = r.u32(); i < n; ++i) {
            Bytes key = r.blob(kMaxKey);
            locks.emplace(std::move(key), r.u64());
        }
        for (std::uint32_t i = 0, n = r.u32(); i < n; ++i) {
            const std::uint64_t txn_id = r.u64();
            StagedTxn st;
            st.staged_at = r.u64();
            for (std::uint32_t j = 0, m = r.u32(); j < m; ++j) {
                auto op = KvOp::parse(r.blob(8 + kMaxKey + kMaxValue));
                NEO_ASSERT_MSG(op.has_value(), "kv restore: bad staged op");
                st.writes.push_back(std::move(*op));
            }
            for (std::uint32_t j = 0, m = r.u32(); j < m; ++j)
                st.locked_keys.push_back(r.blob(kMaxKey));
            staged.emplace(txn_id, std::move(st));
        }
        r.expect_end();

        store_ = std::move(store);
        locks_ = std::move(locks);
        staged_ = std::move(staged);
        executed_ = executed;
        expired_txns_ = expired;
        // Restored state is a committed checkpoint: no rollback across it.
        committed_ = executed;
        undo_log_.clear();
    } catch (const CodecError&) {
        NEO_ASSERT_MSG(false, "kv restore: malformed snapshot");
    }
}

std::int64_t KvStateMachine::execute_cost_ns(BytesView op) const {
    // B-Tree traversal over ~100K records plus value copies: of the order
    // of a microsecond on the testbed CPUs; writes cost a bit more, and
    // multi-key transactions pay per touched key.
    if (op.empty()) return kBadRequestCostNs;
    switch (op[0]) {
        case static_cast<std::uint8_t>(KvOpType::kGet):
            return 900;
        case static_cast<std::uint8_t>(KvOpType::kTxnLocal):
            return txn_cost_ns(op, 1, 600);
        case static_cast<std::uint8_t>(KvOpType::kTxnPrepare):
            return txn_cost_ns(op, 9, 800);
        case static_cast<std::uint8_t>(KvOpType::kTxnCommit):
            return 1'600;
        case static_cast<std::uint8_t>(KvOpType::kTxnAbort):
            return 600;
        default:
            return kBadRequestCostNs;
    }
}

}  // namespace neo::app
