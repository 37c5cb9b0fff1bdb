// KvStateMachine multi-key transaction semantics: local atomic txns, the
// 2PC participant half (prepare locks + stages, commit/abort resolves),
// full undo-compatibility with speculative rollback, and the Byzantine
// forged-prepare test double.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "apps/kvstore.hpp"

namespace neo::app {
namespace {

KvOp put(const char* k, const char* v) {
    KvOp op;
    op.type = KvOpType::kPut;
    op.key = to_bytes(k);
    op.value = to_bytes(v);
    return op;
}

KvOp get(const char* k) {
    KvOp op;
    op.type = KvOpType::kGet;
    op.key = to_bytes(k);
    return op;
}

KvOp del(const char* k) {
    KvOp op;
    op.type = KvOpType::kDelete;
    op.key = to_bytes(k);
    return op;
}

KvResult exec(KvStateMachine& sm, const KvTxnOp& txn) {
    auto res = KvResult::parse(sm.execute(txn.serialize()));
    EXPECT_TRUE(res.has_value());
    return res.value_or(KvResult{{}, KvStatus::kBadRequest, {}});
}

KvTxnOp local(std::vector<KvOp> ops) {
    KvTxnOp t;
    t.type = KvOpType::kTxnLocal;
    t.ops = std::move(ops);
    return t;
}

KvTxnOp prepare(std::uint64_t id, std::vector<KvOp> ops) {
    KvTxnOp t;
    t.type = KvOpType::kTxnPrepare;
    t.txn_id = id;
    t.ops = std::move(ops);
    return t;
}

KvTxnOp decide(KvOpType type, std::uint64_t id) {
    KvTxnOp t;
    t.type = type;
    t.txn_id = id;
    return t;
}

const Bytes* store_get(KvStateMachine& sm, const char* k) {
    return sm.store().get(to_bytes(k));
}

TEST(KvTxn, WireRoundTrip) {
    KvTxnOp t = prepare(0xdeadbeef12345678ull, {put("a", "1"), get("b"), del("c")});
    auto back = KvTxnOp::parse(t.serialize());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->type, KvOpType::kTxnPrepare);
    EXPECT_EQ(back->txn_id, t.txn_id);
    ASSERT_EQ(back->ops.size(), 3u);
    EXPECT_EQ(back->ops[0].value, to_bytes("1"));
    EXPECT_EQ(back->ops[2].type, KvOpType::kDelete);

    KvTxnOp c = decide(KvOpType::kTxnCommit, 42);
    auto back2 = KvTxnOp::parse(c.serialize());
    ASSERT_TRUE(back2.has_value());
    EXPECT_EQ(back2->txn_id, 42u);
    EXPECT_TRUE(back2->ops.empty());

    EXPECT_FALSE(KvTxnOp::parse(to_bytes("\x05garbage")).has_value());
}

TEST(KvTxn, LocalAppliesAtomicallyAndUndoes) {
    KvStateMachine sm;
    sm.store().put(to_bytes("x"), to_bytes("old"));

    KvResult r = exec(sm, local({put("x", "new"), put("y", "1"), del("missing")}));
    EXPECT_EQ(r.status, KvStatus::kOk);
    EXPECT_EQ(*store_get(sm, "x"), to_bytes("new"));
    EXPECT_EQ(*store_get(sm, "y"), to_bytes("1"));

    sm.undo_last();
    EXPECT_EQ(*store_get(sm, "x"), to_bytes("old"));
    EXPECT_EQ(store_get(sm, "y"), nullptr);
}

TEST(KvTxn, LocalAbortsOnLockedKeyAndLeavesNoTrace) {
    KvStateMachine sm;
    exec(sm, prepare(1, {put("locked", "v")}));
    ASSERT_EQ(sm.locked_keys(), 1u);

    KvResult r = exec(sm, local({put("other", "1"), put("locked", "2")}));
    EXPECT_EQ(r.status, KvStatus::kTxnAborted);
    EXPECT_EQ(store_get(sm, "other"), nullptr);  // nothing applied

    sm.undo_last();  // the aborted local txn still consumed a log slot
    EXPECT_EQ(sm.locked_keys(), 1u);
}

TEST(KvTxn, PrepareLocksStagesAndReadsUnderLock) {
    KvStateMachine sm;
    sm.store().put(to_bytes("r"), to_bytes("val"));

    KvResult r = exec(sm, prepare(9, {get("r"), put("w", "staged")}));
    EXPECT_EQ(r.status, KvStatus::kTxnPrepared);
    EXPECT_EQ(sm.locked_keys(), 2u);
    EXPECT_EQ(sm.staged_txns(), 1u);
    EXPECT_EQ(store_get(sm, "w"), nullptr);  // staged, not applied

    // The prepare reply carries the read results (2PL reads at lock time).
    Reader packed(BytesView(r.value));
    std::uint32_t n = packed.u32();
    ASSERT_EQ(n, 2u);
    auto read0 = KvResult::parse(packed.blob(1 << 20));
    ASSERT_TRUE(read0.has_value());
    EXPECT_EQ(read0->status, KvStatus::kOk);
    EXPECT_EQ(read0->value, to_bytes("val"));
}

TEST(KvTxn, PrepareConflictVotesAbort) {
    KvStateMachine sm;
    exec(sm, prepare(1, {put("k", "a")}));
    KvResult r = exec(sm, prepare(2, {put("k", "b")}));
    EXPECT_EQ(r.status, KvStatus::kTxnAborted);
    EXPECT_EQ(sm.staged_txns(), 1u);  // only txn 1
}

TEST(KvTxn, CommitAppliesStagedWritesAndReleasesLocks) {
    KvStateMachine sm;
    sm.store().put(to_bytes("d"), to_bytes("doomed"));
    exec(sm, prepare(5, {put("k", "v"), del("d")}));

    KvResult r = exec(sm, decide(KvOpType::kTxnCommit, 5));
    EXPECT_EQ(r.status, KvStatus::kOk);
    EXPECT_EQ(*store_get(sm, "k"), to_bytes("v"));
    EXPECT_EQ(store_get(sm, "d"), nullptr);
    EXPECT_EQ(sm.locked_keys(), 0u);
    EXPECT_EQ(sm.staged_txns(), 0u);
}

TEST(KvTxn, CommitUnknownTxnIsRejected) {
    KvStateMachine sm;
    KvResult r = exec(sm, decide(KvOpType::kTxnCommit, 404));
    EXPECT_EQ(r.status, KvStatus::kTxnUnknown);
}

TEST(KvTxn, AbortReleasesLocksAndIsIdempotent) {
    KvStateMachine sm;
    exec(sm, prepare(7, {put("k", "v")}));
    ASSERT_EQ(sm.locked_keys(), 1u);

    EXPECT_EQ(exec(sm, decide(KvOpType::kTxnAbort, 7)).status, KvStatus::kOk);
    EXPECT_EQ(sm.locked_keys(), 0u);
    EXPECT_EQ(store_get(sm, "k"), nullptr);  // staged write discarded

    // Retried / unknown abort: still kOk, still a no-op.
    EXPECT_EQ(exec(sm, decide(KvOpType::kTxnAbort, 7)).status, KvStatus::kOk);
}

TEST(KvTxn, UndoRestoresPrepareCommitAbortExactly) {
    // Speculative rollback must be able to unwind any phase: undo commit
    // -> staged txn and locks return; undo abort -> same; undo prepare ->
    // locks and stash vanish.
    KvStateMachine sm;
    sm.store().put(to_bytes("a"), to_bytes("0"));

    exec(sm, prepare(11, {put("a", "1"), put("b", "2")}));
    exec(sm, decide(KvOpType::kTxnCommit, 11));
    EXPECT_EQ(*store_get(sm, "a"), to_bytes("1"));

    sm.undo_last();  // undo commit
    EXPECT_EQ(*store_get(sm, "a"), to_bytes("0"));
    EXPECT_EQ(store_get(sm, "b"), nullptr);
    EXPECT_EQ(sm.locked_keys(), 2u);
    EXPECT_EQ(sm.staged_txns(), 1u);

    sm.undo_last();  // undo prepare
    EXPECT_EQ(sm.locked_keys(), 0u);
    EXPECT_EQ(sm.staged_txns(), 0u);

    // Same dance through the abort path.
    exec(sm, prepare(12, {put("c", "3")}));
    exec(sm, decide(KvOpType::kTxnAbort, 12));
    EXPECT_EQ(sm.locked_keys(), 0u);
    sm.undo_last();  // undo abort
    EXPECT_EQ(sm.locked_keys(), 1u);
    EXPECT_EQ(sm.staged_txns(), 1u);
    sm.undo_last();  // undo prepare
    EXPECT_EQ(sm.locked_keys(), 0u);
    EXPECT_EQ(sm.staged_txns(), 0u);
    EXPECT_EQ(sm.executed(), 0u);
}

TEST(KvTxn, ObserverSeesEveryPhaseWithOutcome) {
    KvStateMachine sm;
    struct Event {
        std::uint64_t txn;
        int phase;
        bool applied;
    };
    std::vector<Event> events;
    sm.set_txn_observer([&](std::uint64_t t, int p, bool a) { events.push_back({t, p, a}); });

    exec(sm, prepare(1, {put("k", "v")}));
    exec(sm, prepare(2, {put("k", "clash")}));  // lock conflict
    exec(sm, decide(KvOpType::kTxnCommit, 1));
    exec(sm, decide(KvOpType::kTxnCommit, 99));  // unknown
    exec(sm, decide(KvOpType::kTxnAbort, 2));

    ASSERT_EQ(events.size(), 5u);
    EXPECT_TRUE(events[0].txn == 1 && events[0].phase == 0 && events[0].applied);
    EXPECT_TRUE(events[1].txn == 2 && events[1].phase == 0 && !events[1].applied);
    EXPECT_TRUE(events[2].txn == 1 && events[2].phase == 1 && events[2].applied);
    EXPECT_TRUE(events[3].txn == 99 && events[3].phase == 1 && !events[3].applied);
    EXPECT_TRUE(events[4].txn == 2 && events[4].phase == 2 && events[4].applied);
}

TEST(KvTxn, ByzantinePrepareEquivocates) {
    // The double claims PREPARED on the wire while recording an abort vote
    // and staging nothing — a later commit finds the txn unknown.
    KvStateMachine sm;
    sm.set_byzantine_prepare_equivocation(true);
    bool saw_abort_vote = false;
    sm.set_txn_observer([&](std::uint64_t t, int phase, bool applied) {
        if (t == 66 && phase == 0 && !applied) saw_abort_vote = true;
    });

    KvResult r = exec(sm, prepare(66, {put("k", "v")}));
    EXPECT_EQ(r.status, KvStatus::kTxnPrepared);  // the lie
    EXPECT_TRUE(saw_abort_vote);                  // the truth
    EXPECT_EQ(sm.locked_keys(), 0u);
    EXPECT_EQ(sm.staged_txns(), 0u);
    EXPECT_EQ(exec(sm, decide(KvOpType::kTxnCommit, 66)).status, KvStatus::kTxnUnknown);
}

}  // namespace
}  // namespace neo::app
