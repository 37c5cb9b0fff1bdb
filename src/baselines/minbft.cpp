#include "baselines/minbft.hpp"

#include "obs/metrics.hpp"

#include "common/assert.hpp"
#include "crypto/sha256.hpp"

namespace neo::baselines {

MinbftReplica::MinbftReplica(BaseConfig cfg, std::unique_ptr<crypto::NodeCrypto> crypto,
                             std::uint64_t usig_seed)
    : LeaderReplica(std::move(cfg), std::move(crypto)), usig_(usig_seed, 0) {}

void MinbftReplica::on_message(Kind kind, NodeId from, Reader& r) {
    switch (kind) {
        case Kind::kMbPrepare: on_prepare(from, MbPrepare::parse(r)); break;
        case Kind::kMbCommit: on_commit(from, MbCommit::parse(r)); break;
        default: break;
    }
}

Usig::UI MinbftReplica::metered_create(const Digest32& digest) {
    usig_.set_owner(id());
    charge(kUsigCallNs);
    ++usig_calls_;
    return usig_.create(digest);
}

bool MinbftReplica::metered_verify(NodeId owner, const Digest32& digest, const Usig::UI& ui) {
    charge(kUsigCallNs);
    ++usig_calls_;
    return usig_.verify(owner, digest, ui);
}

Digest32 MinbftReplica::prepare_digest(std::uint64_t view, std::uint64_t seq,
                                       const Digest32& batch_d) const {
    Writer w(56);
    w.str("minbft-prepare");
    w.u64(view);
    w.u64(seq);
    w.raw(BytesView(batch_d.data(), batch_d.size()));
    return crypto::sha256(w.bytes());
}

void MinbftReplica::send_commit(std::uint64_t seq, const Digest32& digest) {
    MbCommit m;
    m.ui = metered_create(digest);
    m.view = view_;
    m.seq = seq;
    m.digest = digest;
    m.replica = id();
    broadcast(cfg_.others(id()), m.serialize());
}

void MinbftReplica::order_batch(std::vector<Request> batch) {
    MbPrepare m;
    m.view = view_;
    m.seq = next_seq_++;
    const Digest32 bd = batch_digest(batch);
    m.ui = metered_create(prepare_digest(view_, m.seq, bd));
    m.batch = std::move(batch);
    broadcast(cfg_.others(id()), m.serialize());

    Slot& slot = slots_[m.seq];
    slot.batch = std::move(m.batch);
    slot.digest = bd;
    slot.have_prepare = true;

    // Primary's own commit.
    send_commit(m.seq, slot.digest);
    slot.commits.insert(id());
    slot.commit_sent = true;
    try_execute();
}

void MinbftReplica::on_prepare(NodeId from, MbPrepare m) {
    if (m.view != view_ || from != cfg_.primary(view_)) return;
    if (m.seq <= stable_checkpoint_) return;  // pre-checkpoint: slot GC'd
    Digest32 bd = batch_digest(m.batch);
    if (!metered_verify(from, prepare_digest(m.view, m.seq, bd), m.ui)) return;
    // Sequentiality: the trusted counter must strictly advance, so the
    // primary cannot equivocate or replay prepares.
    std::uint64_t& last = peer_counters_[from];
    if (m.ui.counter <= last) return;
    last = m.ui.counter;

    Slot& slot = slots_[m.seq];
    slot.batch = std::move(m.batch);
    slot.digest = bd;
    slot.have_prepare = true;

    if (!slot.commit_sent) {
        slot.commit_sent = true;
        send_commit(m.seq, slot.digest);
        slot.commits.insert(id());
    }
    try_execute();
}

void MinbftReplica::on_commit(NodeId from, const MbCommit& m) {
    if (m.view != view_ || m.replica != from || !cfg_.is_replica(from)) return;
    if (m.seq <= stable_checkpoint_) return;  // stale commit for a GC'd slot
    if (!metered_verify(from, m.digest, m.ui)) return;

    Slot& slot = slots_[m.seq];
    if (slot.have_prepare && slot.digest != m.digest) return;
    slot.commits.insert(from);
    try_execute();
}

void MinbftReplica::try_execute() {
    while (true) {
        auto it = slots_.find(last_executed_ + 1);
        if (it == slots_.end()) break;
        Slot& slot = it->second;
        // MinBFT commits with f+1 matching commits (2f+1 replicas total).
        if (!slot.have_prepare || slot.executed ||
            slot.commits.size() < static_cast<std::size_t>(cfg_.f + 1)) {
            break;
        }

        execute_batch(slot.batch);
        slot.executed = true;
        ++last_executed_;
        ++batches_committed_;
        if (obs::TraceSink* tr = sim().trace()) {
            tr->phase(sim().now(), id(), "commit_batch", last_executed_);
        }
        slots_.erase(slots_.begin(), slots_.find(last_executed_));
    }
    maybe_checkpoint();
}

void MinbftReplica::maybe_checkpoint() {
    std::uint64_t target = due_checkpoint();
    if (target == 0) return;
    stable_checkpoint_ = target;
    ++checkpoints_;
    slots_.erase(slots_.begin(), slots_.upper_bound(target));
}

void MinbftReplica::publish_metrics(obs::Registry& r, const std::string& prefix) const {
    r.set_value(prefix + ".batches_committed", static_cast<double>(batches_committed_));
    r.set_value(prefix + ".usig_calls", static_cast<double>(usig_calls_));
}

}  // namespace neo::baselines
