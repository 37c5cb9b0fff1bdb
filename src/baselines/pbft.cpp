#include "baselines/pbft.hpp"

#include "obs/metrics.hpp"

#include "common/assert.hpp"

namespace neo::baselines {

PbftReplica::PbftReplica(BaseConfig cfg, std::unique_ptr<crypto::NodeCrypto> crypto)
    : LeaderReplica(std::move(cfg), std::move(crypto)) {}

void PbftReplica::on_message(Kind kind, NodeId from, Reader& r) {
    switch (kind) {
        case Kind::kPrePrepare: on_preprepare(from, PrePrepare::parse(r)); break;
        case Kind::kPrepare: on_vote(from, Prepare::parse(r)); break;
        case Kind::kCommit: on_vote(from, Commit::parse(r)); break;
        case Kind::kCheckpoint: on_checkpoint(from, Checkpoint::parse(r)); break;
        default: break;
    }
}

template <class Vote>
Bytes PbftReplica::vote(std::uint64_t seq, const Digest32& digest) {
    Vote m;
    m.view = view_;
    m.seq = seq;
    m.digest = digest;
    m.replica = id();
    m.signature = crypto_->sign(m.signed_body());
    return m.serialize();
}

void PbftReplica::order_batch(std::vector<Request> batch) {
    PrePrepare m;
    m.view = view_;
    m.seq = next_seq_++;
    m.digest = batch_digest(batch);
    m.batch = std::move(batch);
    m.signature = crypto_->sign(m.signed_body());
    broadcast(cfg_.others(id()), m.serialize());

    Slot& slot = slots_[m.seq];
    slot.batch = std::move(m.batch);
    slot.digest = m.digest;
    slot.have_preprepare = true;
    try_progress(m.seq);
}

void PbftReplica::on_preprepare(NodeId from, PrePrepare m) {
    if (m.view != view_ || from != cfg_.primary(view_)) return;
    if (m.seq <= last_executed_) return;
    if (batch_digest(m.batch) != m.digest) return;
    if (!crypto_->verify(from, m.signed_body(), m.signature)) return;

    Slot& slot = slots_[m.seq];
    if (slot.have_preprepare && slot.digest != m.digest) return;  // equivocation: ignore
    slot.batch = std::move(m.batch);
    slot.digest = m.digest;
    slot.have_preprepare = true;
    try_progress(m.seq);
}

template <class Vote>
void PbftReplica::on_vote(NodeId from, const Vote& m) {
    if (m.view != view_ || m.replica != from || !cfg_.is_replica(from)) return;
    if (!crypto_->verify(from, m.signed_body(), m.signature)) return;
    Slot& slot = slots_[m.seq];
    if (slot.have_preprepare && slot.digest != m.digest) return;
    (std::is_same_v<Vote, Prepare> ? slot.prepares : slot.commits).insert(from);
    try_progress(m.seq);
}

void PbftReplica::try_progress(std::uint64_t seq) {
    Slot& slot = slots_[seq];
    if (!slot.have_preprepare) return;

    // The primary's pre-prepare stands in for its prepare.
    slot.prepares.insert(cfg_.primary(view_));

    if (!slot.prepare_sent) {
        slot.prepare_sent = true;
        if (!is_primary()) broadcast(cfg_.others(id()), vote<Prepare>(seq, slot.digest));
        slot.prepares.insert(id());
    }

    // Prepared: pre-prepare + 2f prepares (2f+1 counting the primary).
    if (!slot.commit_sent && slot.prepares.size() >= static_cast<std::size_t>(2 * cfg_.f + 1)) {
        slot.commit_sent = true;
        broadcast(cfg_.others(id()), vote<Commit>(seq, slot.digest));
        slot.commits.insert(id());
    }

    if (!slot.executed && slot.commits.size() >= static_cast<std::size_t>(2 * cfg_.f + 1)) {
        try_execute();
    }
}

void PbftReplica::try_execute() {
    while (true) {
        auto it = slots_.find(last_executed_ + 1);
        if (it == slots_.end() || it->second.executed || !it->second.have_preprepare ||
            it->second.commits.size() < static_cast<std::size_t>(2 * cfg_.f + 1)) {
            break;
        }
        execute_batch(it->second.batch);
        it->second.executed = true;
        ++last_executed_;
        ++batches_committed_;
        if (obs::TraceSink* tr = sim().trace()) {
            tr->phase(sim().now(), id(), "commit_batch", last_executed_);
        }
    }
    maybe_checkpoint();
}

void PbftReplica::maybe_checkpoint() {
    std::uint64_t target = due_checkpoint();
    if (target == 0 || checkpoint_votes_[target].contains(id())) return;

    Checkpoint m;
    m.seq = target;
    m.replica = id();
    m.signature = crypto_->sign(m.signed_body());
    broadcast(cfg_.others(id()), m.serialize());
    checkpoint_votes_[target].insert(id());
    on_checkpoint_quorum(target);
}

void PbftReplica::on_checkpoint(NodeId from, const Checkpoint& m) {
    if (m.replica != from || !cfg_.is_replica(from)) return;
    if (!crypto_->verify(from, m.signed_body(), m.signature)) return;
    checkpoint_votes_[m.seq].insert(from);
    on_checkpoint_quorum(m.seq);
}

void PbftReplica::on_checkpoint_quorum(std::uint64_t seq) {
    if (seq <= stable_checkpoint_) return;
    if (checkpoint_votes_[seq].size() < static_cast<std::size_t>(2 * cfg_.f + 1)) return;
    stable_checkpoint_ = seq;
    ++checkpoints_;
    // Garbage-collect slots and votes at or below the stable checkpoint.
    slots_.erase(slots_.begin(), slots_.upper_bound(seq));
    checkpoint_votes_.erase(checkpoint_votes_.begin(), checkpoint_votes_.upper_bound(seq));
}

void PbftReplica::publish_metrics(obs::Registry& r, const std::string& prefix) const {
    r.set_value(prefix + ".batches_committed", static_cast<double>(batches_committed_));
}

}  // namespace neo::baselines
