#include "neobft/shard_client.hpp"

#include <map>

#include "common/assert.hpp"

namespace neo::neobft {

namespace {

/// Wait-die retry: backoff before re-asking a shard that said wait, and
/// how many times one transaction may do so (suits the simulated latency
/// profile).
constexpr sim::Time kWaitBackoff = 300 * sim::kMicrosecond;
constexpr int kMaxWaitRetries = 32;

app::KvStatus parse_status(BytesView reply) {
    auto res = app::KvResult::parse(reply);
    // A malformed reply can only come from our own replica quorum, so it
    // indicates a harness bug rather than a Byzantine peer.
    NEO_ASSERT_MSG(res.has_value(), "unparseable KvResult from replica quorum");
    return res->status;
}

}  // namespace

ShardClient::ShardClient(const ShardRouter* router, std::vector<Client*> children,
                         std::uint32_t coordinator_tag)
    : router_(router), children_(std::move(children)), coordinator_tag_(coordinator_tag) {
    NEO_ASSERT(router_ != nullptr);
    NEO_ASSERT_MSG(children_.size() == router_->shards(),
                   "one child client per router shard");
}

void ShardClient::invoke(Bytes txn_op, Callback cb) {
    NEO_ASSERT_MSG(!pending_.has_value(), "one outstanding transaction per client");

    auto txn = app::KvTxnOp::parse(txn_op);
    NEO_ASSERT_MSG(txn.has_value() && txn->type == app::KvOpType::kTxnLocal,
                   "ShardClient expects a kTxnLocal transaction");
    ++stats_.txns_started;

    // Partition the ops by shard, preserving per-shard op order.
    std::map<std::size_t, std::vector<app::KvOp>> by_shard;
    for (app::KvOp& op : txn->ops) {
        by_shard[router_->shard_index(BytesView(op.key))].push_back(std::move(op));
    }
    const std::size_t n_ops = txn->ops.size();

    if (by_shard.size() == 1) {
        // Fast path: one shard holds every key — a single ordered op is
        // already atomic, no 2PC needed.
        auto& [shard, ops] = *by_shard.begin();
        app::KvTxnOp local;
        local.type = app::KvOpType::kTxnLocal;
        local.ops = std::move(ops);
        Pending p;
        p.n_ops = n_ops;
        p.cb = std::move(cb);
        pending_ = std::move(p);
        children_[shard]->invoke(local.serialize(), [this](Bytes reply) {
            finish(parse_status(reply) == app::KvStatus::kOk);
        });
        return;
    }

    ++stats_.cross_shard_txns;
    Pending p;
    p.txn_id = (coordinator_tag_ << 32) | next_txn_++;
    p.n_ops = n_ops;
    p.wait_retries_left = kMaxWaitRetries;
    p.cb = std::move(cb);
    // by_shard is a std::map: participants come out in ascending shard
    // index — the canonical lock-acquisition order every coordinator
    // shares, so concurrent transactions collide on a common prefix
    // instead of deadlocking on disjoint ones.
    for (auto& [shard, ops] : by_shard) {
        app::KvTxnOp prep;
        prep.type = app::KvOpType::kTxnPrepare;
        prep.txn_id = p.txn_id;
        prep.ops = std::move(ops);
        p.participants.push_back(shard);
        p.prepare_wires.push_back(prep.serialize());
    }
    pending_ = std::move(p);

    // Phase 1: PREPARE each participant in canonical order, one at a time.
    send_next_prepare();
}

void ShardClient::send_next_prepare() {
    NEO_ASSERT(pending_.has_value());
    pending_->backoff_timer = 0;
    pending_->backoff_child = nullptr;
    const std::size_t i = pending_->next_prepare;
    // Retries resend the same wire, so keep it (copy, don't move).
    children_[pending_->participants[i]]->invoke(
        pending_->prepare_wires[i],
        [this](Bytes reply) { on_prepare_vote(parse_status(reply)); });
}

void ShardClient::on_prepare_vote(app::KvStatus vote) {
    NEO_ASSERT(pending_.has_value());
    if (vote == app::KvStatus::kTxnPrepared) {
        if (++pending_->next_prepare == pending_->participants.size()) {
            start_phase2();
        } else {
            send_next_prepare();
        }
        return;
    }
    if (vote == app::KvStatus::kTxnWait && pending_->wait_retries_left-- > 0) {
        // Wait-die: we are older than the lock holder; retry the same shard
        // with the same txn_id after a backoff. Seniority is preserved, so
        // the wait is bounded by the holder's 2PC round.
        ++stats_.wait_retries;
        Client* child = children_[pending_->participants[pending_->next_prepare]];
        pending_->backoff_child = child;
        pending_->backoff_timer = child->set_timer(
            kWaitBackoff, [this] { send_next_prepare(); }, "client-run-after");
        return;
    }
    // Abort vote (lock conflict with an older holder, bad request, or the
    // wait-retry budget ran out).
    pending_->any_abort = true;
    start_phase2();
}

void ShardClient::start_phase2() {
    // Phase 2: the decision is commit iff every shard voted PREPARED.
    // ABORT also goes to shards that voted abort themselves — it is
    // idempotent on a shard with nothing staged, and the explicit op keeps
    // every participant's decision in the ordered log for the auditor.
    pending_->waiting = pending_->participants.size();
    app::KvTxnOp decide;
    decide.type = pending_->any_abort ? app::KvOpType::kTxnAbort : app::KvOpType::kTxnCommit;
    decide.txn_id = pending_->txn_id;
    Bytes wire = decide.serialize();
    for (std::size_t shard : pending_->participants) {
        children_[shard]->invoke(wire, [this](Bytes) { on_phase2_done(); });
    }
}

void ShardClient::on_phase2_done() {
    NEO_ASSERT(pending_.has_value() && pending_->waiting > 0);
    if (--pending_->waiting == 0) finish(!pending_->any_abort);
}

void ShardClient::abandon() {
    if (!pending_.has_value()) return;
    if (pending_->backoff_timer != 0 && pending_->backoff_child != nullptr) {
        pending_->backoff_child->cancel_timer(pending_->backoff_timer);
    }
    for (Client* c : children_) c->abandon();
    ++stats_.abandoned_txns;
    pending_.reset();
}

void ShardClient::finish(bool committed) {
    if (committed) {
        ++stats_.committed_txns;
        stats_.committed_ops += pending_->n_ops;
    } else {
        ++stats_.aborted_txns;
    }
    Callback cb = std::move(pending_->cb);
    pending_.reset();
    app::KvResult result;
    result.status = committed ? app::KvStatus::kOk : app::KvStatus::kTxnAborted;
    cb(result.serialize());
}

}  // namespace neo::neobft
