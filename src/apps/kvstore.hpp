// Replicated key-value store (the paper's §6.5 application): a B-Tree
// backed state machine with GET/PUT/DELETE operations, the undo support
// speculative protocols need, and multi-key transactions for sharded
// deployments — a one-shot local form plus the participant half of
// two-phase commit (prepare locks + stages, commit/abort resolves), all
// fully undo-capable so speculative rollback composes with 2PC.
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "apps/btree.hpp"
#include "apps/state_machine.hpp"
#include "common/codec.hpp"

namespace neo::app {

enum class KvOpType : std::uint8_t {
    kGet = 1,
    kPut = 2,
    kDelete = 3,
    // Multi-key transactions (share the leading type-byte namespace).
    kTxnLocal = 4,    // all keys on one shard: applied atomically in one op
    kTxnPrepare = 5,  // 2PC phase 1: lock keys, read, stage writes, vote
    kTxnCommit = 6,   // 2PC phase 2: apply the staged write-set
    kTxnAbort = 7,    // 2PC phase 2: discard the staged write-set
};

/// Decoding caps.
constexpr std::size_t kMaxKey = 1'024;
constexpr std::size_t kMaxValue = 64 * 1'024;
constexpr std::size_t kMaxTxnOps = 1'024;

struct KvOp : wire::Message<KvOp> {
    KvOpType type = KvOpType::kGet;
    Bytes key;
    Bytes value;  // kPut only

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.type);
        io.check(m.type >= KvOpType::kGet && m.type <= KvOpType::kDelete, "bad kv op type");
        io.blob(m.key, kMaxKey);
        if (m.type == KvOpType::kPut) io.blob(m.value, kMaxValue);
    }
    /// Returns nullopt on malformed input (Byzantine clients). Parses the
    /// single-key forms only; transactions use KvTxnOp.
    static std::optional<KvOp> parse(BytesView data) { return wire::try_decode<KvOp>(data); }
};

/// Transaction wire forms:
///   kTxnLocal:   type, u32 n, n x blob(KvOp)
///   kTxnPrepare: type, u64 txn_id, u32 n, n x blob(KvOp)
///   kTxnCommit / kTxnAbort: type, u64 txn_id
struct KvTxnOp : wire::Message<KvTxnOp> {
    KvOpType type = KvOpType::kTxnLocal;
    std::uint64_t txn_id = 0;  // globally unique; 0 for kTxnLocal
    std::vector<KvOp> ops;     // the single-key ops (empty for commit/abort)

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.type);
        io.check(m.type >= KvOpType::kTxnLocal && m.type <= KvOpType::kTxnAbort, "bad txn type");
        if (m.type != KvOpType::kTxnLocal) io(m.txn_id);
        if (m.type == KvOpType::kTxnLocal || m.type == KvOpType::kTxnPrepare) {
            io.framed(m.ops, kMaxTxnOps, 8 + kMaxKey + kMaxValue);
            io.check(!m.ops.empty(), "empty transaction");
        }
    }
    static std::optional<KvTxnOp> parse(BytesView data) { return wire::try_decode<KvTxnOp>(data); }
};

/// Result encoding: status byte + optional value.
enum class KvStatus : std::uint8_t {
    kOk = 0,
    kNotFound = 1,
    kBadRequest = 2,
    kTxnPrepared = 3,  // prepare vote: locks held, write-set staged
    kTxnAborted = 4,   // prepare vote: lock conflict (or local-txn conflict)
    kTxnUnknown = 5,   // commit for a transaction this shard never prepared
    kTxnWait = 6,      // wait-die: older txn blocked by a younger lock holder;
                       // no locks were taken, the coordinator should retry
};

struct KvResult : wire::Message<KvResult> {
    KvStatus status = KvStatus::kOk;
    Bytes value;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.status);
        io.check(m.status <= KvStatus::kTxnWait, "bad kv status");
        io.blob(m.value, kMaxValue);
    }
    static std::optional<KvResult> parse(BytesView data) { return wire::try_decode<KvResult>(data); }
};

class KvStateMachine : public StateMachine {
  public:
    Bytes execute(BytesView op) override;
    void undo_last() override;
    void commit_prefix(std::uint64_t n) override;
    std::int64_t execute_cost_ns(BytesView op) const override;
    void set_txn_observer(TxnObserver obs) override { txn_obs_ = std::move(obs); }
    Bytes snapshot() const override;
    void restore(BytesView snap) override;

    /// Byzantine test double: the prepare reply claims PREPARED while the
    /// replica internally records an abort vote and stages nothing — the
    /// forged-vote equivocation the auditor must catch.
    void set_byzantine_prepare_equivocation(bool v) { byz_prepare_ = v; }

    /// Wait-die deadlock avoidance (on by default): a prepare that hits a
    /// lock held by a YOUNGER transaction (larger txn_id) votes kTxnWait —
    /// no locks taken, coordinator retries the same txn_id — instead of
    /// aborting. A prepare blocked by an OLDER holder still dies
    /// (kTxnAborted). Combined with canonical-order lock acquisition in
    /// ShardClient this makes 2PC livelock-free under contention. Off =
    /// the original no-wait 2PL (any conflict aborts).
    void set_wait_die(bool v) { wait_die_ = v; }

    /// Presumed-abort timeout for orphaned prepares: a staged transaction
    /// whose decision has not arrived within `n` subsequent executed ops is
    /// deterministically aborted (locks released, abort recorded with the
    /// txn observer) — the coordinator-crash lock-leak fix. Deterministic
    /// across replicas because it is driven by the executed-op count, not
    /// time. 0 disables.
    void set_presumed_abort_after(std::uint64_t n) { abort_after_ops_ = n; }

    const BTreeMap& store() const { return store_; }
    BTreeMap& store() { return store_; }
    std::uint64_t executed() const { return executed_; }
    std::size_t locked_keys() const { return locks_.size(); }
    std::size_t staged_txns() const { return staged_.size(); }
    std::uint64_t expired_txns() const { return expired_txns_; }

  private:
    struct StagedTxn {
        std::vector<KvOp> writes;       // puts/deletes to apply at commit
        std::vector<Bytes> locked_keys; // every key the txn locked
        std::uint64_t staged_at = 0;    // executed_ when the prepare ran
    };

    struct UndoRecord {
        KvOpType type = KvOpType::kGet;
        // Single-key ops.
        Bytes key;
        bool existed = false;
        Bytes old_value;
        // Transactions.
        std::uint64_t txn_id = 0;
        std::vector<UndoRecord> multi;  // per-write undos, applied LIFO
        bool took_effect = false;       // prepare locked / commit-abort had a stash
        StagedTxn staged;               // stash to restore on commit/abort undo
        // Prepares presumed-aborted as a side effect of this op; restored
        // (re-locked, re-staged) when this op is undone.
        std::vector<std::pair<std::uint64_t, StagedTxn>> expired;
    };

    KvResult apply_single(const KvOp& op, UndoRecord& undo);
    void undo_single(UndoRecord& rec);
    void expire_stale_prepares(UndoRecord& undo);
    Bytes txn_local(const KvTxnOp& txn, UndoRecord& undo);
    Bytes txn_prepare(const KvTxnOp& txn, UndoRecord& undo);
    Bytes txn_commit(const KvTxnOp& txn, UndoRecord& undo);
    Bytes txn_abort(const KvTxnOp& txn, UndoRecord& undo);
    void notify_txn(std::uint64_t txn_id, int phase, bool applied) {
        if (txn_obs_) txn_obs_(txn_id, phase, applied);
    }

    BTreeMap store_;
    std::deque<UndoRecord> undo_log_;
    std::map<Bytes, std::uint64_t> locks_;    // key -> holding txn
    std::map<std::uint64_t, StagedTxn> staged_;
    TxnObserver txn_obs_;
    bool byz_prepare_ = false;
    bool wait_die_ = true;
    std::uint64_t abort_after_ops_ = 50'000;
    std::uint64_t expired_txns_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t committed_ = 0;
};

}  // namespace neo::app
