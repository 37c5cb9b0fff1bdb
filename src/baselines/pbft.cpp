#include "baselines/pbft.hpp"

#include "obs/metrics.hpp"

#include "common/assert.hpp"

namespace neo::baselines {

PbftReplica::PbftReplica(BaseConfig cfg, std::unique_ptr<crypto::NodeCrypto> crypto)
    : LeaderReplica(std::move(cfg), std::move(crypto)) {}

void PbftReplica::on_message(Kind kind, NodeId from, Reader& r) {
    switch (kind) {
        case Kind::kPrePrepare: on_preprepare(from, r); break;
        case Kind::kPrepare: on_prepare(from, r); break;
        case Kind::kCommit: on_commit(from, r); break;
        case Kind::kCheckpoint: on_checkpoint(from, r); break;
        default: break;
    }
}

Bytes PbftReplica::preprepare_body(std::uint64_t seq, const Digest32& digest) const {
    Writer w(64);
    w.str("pbft-preprepare");
    w.u64(view_);
    w.u64(seq);
    w.raw(BytesView(digest.data(), digest.size()));
    return std::move(w).take();
}

Bytes PbftReplica::phase_body(std::string_view tag, std::uint64_t seq, const Digest32& digest,
                              NodeId replica) const {
    Writer w(64);
    w.str(tag);
    w.u64(view_);
    w.u64(seq);
    w.raw(BytesView(digest.data(), digest.size()));
    w.u32(replica);
    return std::move(w).take();
}

void PbftReplica::order_batch(std::vector<Request> batch) {
    std::uint64_t seq = next_seq_++;
    Digest32 digest = batch_digest(batch);

    Writer w(256);
    w.u8(static_cast<std::uint8_t>(Kind::kPrePrepare));
    w.u64(view_);
    w.u64(seq);
    w.raw(BytesView(digest.data(), digest.size()));
    put_batch(w, batch);
    w.blob(crypto_->sign(preprepare_body(seq, digest)));
    broadcast(cfg_.others(id()), std::move(w).take());

    Slot& slot = slots_[seq];
    slot.batch = std::move(batch);
    slot.digest = digest;
    slot.have_preprepare = true;
    try_progress(seq);
}

void PbftReplica::on_preprepare(NodeId from, Reader& r) {
    std::uint64_t view = r.u64();
    std::uint64_t seq = r.u64();
    Digest32 digest = r.digest32();
    std::vector<Request> batch = get_batch(r);
    Bytes sig = r.blob(256);
    r.expect_end();

    if (view != view_ || from != cfg_.primary(view_)) return;
    if (seq <= last_executed_) return;
    if (batch_digest(batch) != digest) return;
    if (!crypto_->verify(from, preprepare_body(seq, digest), sig)) return;

    Slot& slot = slots_[seq];
    if (slot.have_preprepare && slot.digest != digest) return;  // equivocation: ignore
    slot.batch = std::move(batch);
    slot.digest = digest;
    slot.have_preprepare = true;
    try_progress(seq);
}

void PbftReplica::on_prepare(NodeId from, Reader& r) {
    std::uint64_t view = r.u64();
    std::uint64_t seq = r.u64();
    Digest32 digest = r.digest32();
    NodeId replica = r.u32();
    Bytes sig = r.blob(256);
    r.expect_end();

    if (view != view_ || replica != from || !cfg_.is_replica(from)) return;
    if (!crypto_->verify(from, phase_body("pbft-prepare", seq, digest, replica), sig)) return;
    Slot& slot = slots_[seq];
    if (slot.have_preprepare && slot.digest != digest) return;
    slot.prepares.insert(from);
    try_progress(seq);
}

void PbftReplica::on_commit(NodeId from, Reader& r) {
    std::uint64_t view = r.u64();
    std::uint64_t seq = r.u64();
    Digest32 digest = r.digest32();
    NodeId replica = r.u32();
    Bytes sig = r.blob(256);
    r.expect_end();

    if (view != view_ || replica != from || !cfg_.is_replica(from)) return;
    if (!crypto_->verify(from, phase_body("pbft-commit", seq, digest, replica), sig)) return;
    Slot& slot = slots_[seq];
    if (slot.have_preprepare && slot.digest != digest) return;
    slot.commits.insert(from);
    try_progress(seq);
}

void PbftReplica::try_progress(std::uint64_t seq) {
    Slot& slot = slots_[seq];
    if (!slot.have_preprepare) return;

    // The primary's pre-prepare stands in for its prepare.
    slot.prepares.insert(cfg_.primary(view_));

    if (!slot.prepare_sent) {
        slot.prepare_sent = true;
        if (!is_primary()) {
            Writer w(128);
            w.u8(static_cast<std::uint8_t>(Kind::kPrepare));
            w.u64(view_);
            w.u64(seq);
            w.raw(BytesView(slot.digest.data(), slot.digest.size()));
            w.u32(id());
            w.blob(crypto_->sign(phase_body("pbft-prepare", seq, slot.digest, id())));
            broadcast(cfg_.others(id()), std::move(w).take());
        }
        slot.prepares.insert(id());
    }

    // Prepared: pre-prepare + 2f prepares (2f+1 counting the primary).
    if (!slot.commit_sent && slot.prepares.size() >= static_cast<std::size_t>(2 * cfg_.f + 1)) {
        slot.commit_sent = true;
        Writer w(128);
        w.u8(static_cast<std::uint8_t>(Kind::kCommit));
        w.u64(view_);
        w.u64(seq);
        w.raw(BytesView(slot.digest.data(), slot.digest.size()));
        w.u32(id());
        w.blob(crypto_->sign(phase_body("pbft-commit", seq, slot.digest, id())));
        broadcast(cfg_.others(id()), std::move(w).take());
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

    Writer w(64);
    w.u8(static_cast<std::uint8_t>(Kind::kCheckpoint));
    w.u64(target);
    w.u32(id());
    Writer body(32);
    body.str("pbft-checkpoint");
    body.u64(target);
    w.blob(crypto_->sign(body.bytes()));
    broadcast(cfg_.others(id()), std::move(w).take());
    checkpoint_votes_[target].insert(id());
    on_checkpoint_quorum(target);
}

void PbftReplica::on_checkpoint(NodeId from, Reader& r) {
    std::uint64_t seq = r.u64();
    NodeId replica = r.u32();
    Bytes sig = r.blob(256);
    r.expect_end();
    if (replica != from || !cfg_.is_replica(from)) return;
    Writer body(32);
    body.str("pbft-checkpoint");
    body.u64(seq);
    if (!crypto_->verify(from, body.bytes(), sig)) return;
    checkpoint_votes_[seq].insert(from);
    on_checkpoint_quorum(seq);
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
