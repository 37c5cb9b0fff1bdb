#include "apps/kvstore.hpp"

#include <gtest/gtest.h>

namespace neo::app {
namespace {

KvOp put(std::string_view key, std::string_view value) {
    KvOp op;
    op.type = KvOpType::kPut;
    op.key = to_bytes(key);
    op.value = to_bytes(value);
    return op;
}

KvOp get(std::string_view key) {
    KvOp op;
    op.type = KvOpType::kGet;
    op.key = to_bytes(key);
    return op;
}

KvOp del(std::string_view key) {
    KvOp op;
    op.type = KvOpType::kDelete;
    op.key = to_bytes(key);
    return op;
}

KvResult run(KvStateMachine& sm, const KvOp& op) {
    Bytes res = sm.execute(op.serialize());
    auto parsed = KvResult::parse(res);
    EXPECT_TRUE(parsed.has_value());
    return *parsed;
}

TEST(KvOpWire, RoundTrip) {
    KvOp op = put("key", "value");
    auto back = KvOp::parse(op.serialize());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->type, KvOpType::kPut);
    EXPECT_EQ(back->key, to_bytes("key"));
    EXPECT_EQ(back->value, to_bytes("value"));

    KvOp g = get("k");
    auto back2 = KvOp::parse(g.serialize());
    ASSERT_TRUE(back2.has_value());
    EXPECT_EQ(back2->type, KvOpType::kGet);
}

TEST(KvOpWire, MalformedRejected) {
    EXPECT_FALSE(KvOp::parse({}).has_value());
    Bytes bad{9, 0, 0};
    EXPECT_FALSE(KvOp::parse(bad).has_value());
    KvOp op = put("k", "v");
    Bytes wire = op.serialize();
    wire.pop_back();
    EXPECT_FALSE(KvOp::parse(wire).has_value());
    wire = op.serialize();
    wire.push_back(0);
    EXPECT_FALSE(KvOp::parse(wire).has_value());
}

TEST(KvStateMachine, PutThenGet) {
    KvStateMachine sm;
    EXPECT_EQ(run(sm, put("a", "1")).status, KvStatus::kOk);
    KvResult r = run(sm, get("a"));
    EXPECT_EQ(r.status, KvStatus::kOk);
    EXPECT_EQ(r.value, to_bytes("1"));
}

TEST(KvStateMachine, GetMissing) {
    KvStateMachine sm;
    EXPECT_EQ(run(sm, get("nope")).status, KvStatus::kNotFound);
}

TEST(KvStateMachine, DeleteSemantics) {
    KvStateMachine sm;
    run(sm, put("a", "1"));
    EXPECT_EQ(run(sm, del("a")).status, KvStatus::kOk);
    EXPECT_EQ(run(sm, get("a")).status, KvStatus::kNotFound);
    EXPECT_EQ(run(sm, del("a")).status, KvStatus::kNotFound);
}

TEST(KvStateMachine, MalformedOpReturnsBadRequest) {
    KvStateMachine sm;
    Bytes res = sm.execute(to_bytes("garbage"));
    auto parsed = KvResult::parse(res);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->status, KvStatus::kBadRequest);
    // Still undoable (no-op).
    sm.undo_last();
    EXPECT_EQ(sm.executed(), 0u);
}

TEST(KvStateMachine, UndoPutNewKey) {
    KvStateMachine sm;
    run(sm, put("a", "1"));
    sm.undo_last();
    EXPECT_EQ(run(sm, get("a")).status, KvStatus::kNotFound);
}

TEST(KvStateMachine, UndoPutOverwrite) {
    KvStateMachine sm;
    run(sm, put("a", "old"));
    run(sm, put("a", "new"));
    sm.undo_last();
    EXPECT_EQ(run(sm, get("a")).value, to_bytes("old"));
}

TEST(KvStateMachine, UndoDelete) {
    KvStateMachine sm;
    run(sm, put("a", "kept"));
    run(sm, del("a"));
    sm.undo_last();
    EXPECT_EQ(run(sm, get("a")).value, to_bytes("kept"));
}

TEST(KvStateMachine, UndoStackLifoOrder) {
    KvStateMachine sm;
    run(sm, put("x", "1"));
    run(sm, put("x", "2"));
    run(sm, del("x"));
    run(sm, put("x", "3"));
    sm.undo_last();  // -> deleted
    sm.undo_last();  // -> "2"
    sm.undo_last();  // -> "1"
    EXPECT_EQ(*sm.store().get(to_bytes("x")), to_bytes("1"));
    sm.undo_last();  // -> missing
    EXPECT_EQ(sm.store().get(to_bytes("x")), nullptr);
    EXPECT_EQ(sm.executed(), 0u);
}

TEST(KvStateMachine, CommitPrefixTrimsUndo) {
    KvStateMachine sm;
    for (int i = 0; i < 10; ++i) run(sm, put("k" + std::to_string(i), "v"));
    sm.commit_prefix(10);
    // All history trimmed; rolling back the next op still works.
    run(sm, put("fresh", "1"));
    sm.undo_last();
    EXPECT_EQ(run(sm, get("fresh")).status, KvStatus::kNotFound);
}

TEST(KvStateMachine, ExecuteCostDistinguishesReadsWrites) {
    KvStateMachine sm;
    EXPECT_LT(sm.execute_cost_ns(get("a").serialize()), sm.execute_cost_ns(put("a", "b").serialize()));
}

TEST(KvStateMachine, MalformedTxnCountChargesBadRequestCost) {
    // A declared op count KvTxnOp::parse rejects executes as kBadRequest
    // and costs one bad request (1,400 ns), not 1,400 ns per declared op.
    KvStateMachine sm;
    auto with_count = [](KvOpType type, std::uint32_t n) {
        Writer w;
        w.u8(static_cast<std::uint8_t>(type));
        if (type == KvOpType::kTxnPrepare) w.u64(9);
        w.u32(n);
        return std::move(w).take();
    };
    for (KvOpType type : {KvOpType::kTxnLocal, KvOpType::kTxnPrepare}) {
        for (std::uint32_t n : {0u, 1'025u, 0xffffffffu}) {
            Bytes op = with_count(type, n);
            EXPECT_EQ(sm.execute_cost_ns(op), 1'400) << static_cast<int>(type) << " n=" << n;
            auto res = KvResult::parse(sm.execute(op));
            ASSERT_TRUE(res.has_value());
            EXPECT_EQ(res->status, KvStatus::kBadRequest);
        }
    }

    // Well-formed transactions pay per op, as before.
    KvTxnOp local;
    local.type = KvOpType::kTxnLocal;
    local.ops = {put("a", "1"), put("b", "2"), get("c"), del("d")};
    EXPECT_EQ(sm.execute_cost_ns(local.serialize()), 6'200);
    KvTxnOp prepare = local;
    prepare.type = KvOpType::kTxnPrepare;
    prepare.txn_id = 9;
    EXPECT_EQ(sm.execute_cost_ns(prepare.serialize()), 6'400);
}

TEST(KvStateMachine, SpeculativeRollbackScenario) {
    // Mirrors NeoBFT's rollback: execute a suffix, undo it, re-execute a
    // different suffix, and end consistent.
    KvStateMachine sm;
    run(sm, put("acct", "100"));
    sm.commit_prefix(1);

    // Speculative: two ops that will be rolled back.
    run(sm, put("acct", "50"));
    run(sm, put("other", "1"));
    sm.undo_last();
    sm.undo_last();

    // Re-execute the agreed history.
    run(sm, put("acct", "75"));
    EXPECT_EQ(run(sm, get("acct")).value, to_bytes("75"));
    EXPECT_EQ(run(sm, get("other")).status, KvStatus::kNotFound);
}

}  // namespace
}  // namespace neo::app
