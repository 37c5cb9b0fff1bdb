#include "baselines/hotstuff.hpp"

#include "obs/metrics.hpp"

#include "common/assert.hpp"

namespace neo::baselines {

HotStuffReplica::HotStuffReplica(BaseConfig cfg, std::unique_ptr<crypto::NodeCrypto> crypto)
    : LeaderReplica(std::move(cfg), std::move(crypto)) {}

void HotStuffReplica::on_message(Kind kind, NodeId from, Reader& r) {
    switch (kind) {
        case Kind::kHsProposal: on_proposal(from, r); break;
        case Kind::kHsVote: on_vote(from, r); break;
        default: break;
    }
}

Bytes HotStuffReplica::vote_body(int phase, std::uint64_t seq, const Digest32& digest,
                                 NodeId replica) const {
    Writer w(64);
    w.str("hotstuff-vote");
    w.u8(static_cast<std::uint8_t>(phase));
    w.u64(view_);
    w.u64(seq);
    w.raw(BytesView(digest.data(), digest.size()));
    w.u32(replica);
    return std::move(w).take();
}

Bytes HotStuffReplica::proposal_body(int phase, std::uint64_t seq, const Digest32& digest) const {
    Writer w(64);
    w.str("hotstuff-proposal");
    w.u8(static_cast<std::uint8_t>(phase));
    w.u64(view_);
    w.u64(seq);
    w.raw(BytesView(digest.data(), digest.size()));
    return std::move(w).take();
}

bool HotStuffReplica::verify_qc(int phase, std::uint64_t seq, const Digest32& digest,
                                const std::vector<crypto::SignerSig>& qc) {
    std::set<NodeId> seen;
    std::size_t valid = 0;
    for (const auto& s : qc) {
        if (!cfg_.is_replica(s.replica) || !seen.insert(s.replica).second) continue;
        if (!crypto_->verify(s.replica, vote_body(phase, seq, digest, s.replica), s.signature)) {
            continue;
        }
        ++valid;
    }
    return valid >= static_cast<std::size_t>(2 * cfg_.f + 1);
}

void HotStuffReplica::order_batch(std::vector<Request> batch) {
    std::uint64_t seq = next_seq_++;
    Digest32 digest = batch_digest(batch);

    Instance& inst = instances_[seq];
    inst.batch = batch;
    inst.digest = digest;

    // PREPARE proposal carries the batch; later phases carry QCs only.
    Writer w(256);
    w.u8(static_cast<std::uint8_t>(Kind::kHsProposal));
    w.u8(0);  // phase
    w.u64(view_);
    w.u64(seq);
    w.raw(BytesView(digest.data(), digest.size()));
    put_batch(w, batch);
    crypto::put_signer_sigs(w, {});  // no justify QC for the prepare phase
    w.blob(crypto_->sign(proposal_body(0, seq, digest)));
    broadcast(cfg_.others(id()), std::move(w).take());

    // Leader votes for its own proposal.
    inst.votes[0][id()] = crypto_->sign(vote_body(0, seq, digest, id()));
    inst.phase = 0;
    leader_try_advance(seq);
}

void HotStuffReplica::on_proposal(NodeId from, Reader& r) {
    int phase = r.u8();
    std::uint64_t view = r.u64();
    std::uint64_t seq = r.u64();
    Digest32 digest = r.digest32();
    std::vector<Request> batch;
    if (phase == 0) batch = get_batch(r);
    std::vector<crypto::SignerSig> qc = crypto::get_signer_sigs(r);
    Bytes sig = r.blob(256);
    r.expect_end();

    if (view != view_ || from != cfg_.primary(view_)) return;
    if (phase < 0 || phase > 3) return;
    if (seq <= stable_checkpoint_) return;  // pre-checkpoint: instance GC'd
    if (!crypto_->verify(from, proposal_body(phase, seq, digest), sig)) return;

    Instance& inst = instances_[seq];
    if (phase == 0) {
        if (batch_digest(batch) != digest) return;
        if (!inst.batch.empty() && inst.digest != digest) return;
        inst.batch = std::move(batch);
        inst.digest = digest;
        send_vote(seq, 0, digest);
        return;
    }
    if (inst.digest != digest || inst.batch.empty()) return;
    // Phases 1..3 justify with the previous phase's QC.
    if (!verify_qc(phase - 1, seq, digest, qc)) return;

    if (phase < 3) {
        send_vote(seq, phase, digest);
    } else {
        inst.decided = true;
        try_execute();
    }
}

void HotStuffReplica::send_vote(std::uint64_t seq, int phase, const Digest32& digest) {
    Writer w(128);
    w.u8(static_cast<std::uint8_t>(Kind::kHsVote));
    w.u8(static_cast<std::uint8_t>(phase));
    w.u64(view_);
    w.u64(seq);
    w.raw(BytesView(digest.data(), digest.size()));
    w.u32(id());
    w.blob(crypto_->sign(vote_body(phase, seq, digest, id())));
    send_to(cfg_.primary(view_), std::move(w).take());
    instances_[seq].phase = phase;
}

void HotStuffReplica::on_vote(NodeId from, Reader& r) {
    int phase = r.u8();
    std::uint64_t view = r.u64();
    std::uint64_t seq = r.u64();
    Digest32 digest = r.digest32();
    NodeId replica = r.u32();
    Bytes sig = r.blob(256);
    r.expect_end();

    if (view != view_ || !is_primary()) return;
    if (replica != from || !cfg_.is_replica(from)) return;
    if (phase < 0 || phase > 2) return;
    if (seq <= stable_checkpoint_) return;  // stale vote for a GC'd instance
    Instance& inst = instances_[seq];
    if (inst.digest != digest) return;
    if (!crypto_->verify(from, vote_body(phase, seq, digest, replica), sig)) return;
    inst.votes[phase][from] = std::move(sig);
    leader_try_advance(seq);
}

void HotStuffReplica::leader_try_advance(std::uint64_t seq) {
    Instance& inst = instances_[seq];
    for (int phase = 0; phase <= 2; ++phase) {
        if (inst.qc_sent[phase]) continue;
        if (inst.votes[phase].size() < static_cast<std::size_t>(2 * cfg_.f + 1)) return;
        inst.qc_sent[phase] = true;

        std::vector<crypto::SignerSig> qc;
        for (const auto& [node, sig] : inst.votes[phase]) {
            qc.push_back({node, sig});
            if (qc.size() == static_cast<std::size_t>(2 * cfg_.f + 1)) break;
        }

        int next_phase = phase + 1;
        Writer w(512);
        w.u8(static_cast<std::uint8_t>(Kind::kHsProposal));
        w.u8(static_cast<std::uint8_t>(next_phase));
        w.u64(view_);
        w.u64(seq);
        w.raw(BytesView(inst.digest.data(), inst.digest.size()));
        crypto::put_signer_sigs(w, qc);
        w.blob(crypto_->sign(proposal_body(next_phase, seq, inst.digest)));
        broadcast(cfg_.others(id()), std::move(w).take());

        if (next_phase < 3) {
            // Leader's own vote for the next phase.
            inst.votes[next_phase][id()] =
                crypto_->sign(vote_body(next_phase, seq, inst.digest, id()));
        } else {
            inst.decided = true;
            try_execute();
        }
    }
}

void HotStuffReplica::try_execute() {
    while (true) {
        auto it = instances_.find(last_executed_ + 1);
        if (it == instances_.end() || it->second.executed || it->second.batch.empty()) break;
        Instance& inst = it->second;
        if (!inst.decided) break;

        execute_batch(inst.batch);
        inst.executed = true;
        ++last_executed_;
        ++batches_decided_;
        if (obs::TraceSink* tr = sim().trace()) {
            tr->phase(sim().now(), id(), "decide_batch", last_executed_);
        }
        // Garbage-collect decided instances.
        instances_.erase(instances_.begin(), instances_.find(last_executed_));
    }
    maybe_checkpoint();
}

void HotStuffReplica::maybe_checkpoint() {
    std::uint64_t target = due_checkpoint();
    if (target == 0) return;
    stable_checkpoint_ = target;
    ++checkpoints_;
    instances_.erase(instances_.begin(), instances_.upper_bound(target));
}

void HotStuffReplica::publish_metrics(obs::Registry& r, const std::string& prefix) const {
    r.set_value(prefix + ".batches_decided", static_cast<double>(batches_decided_));
}

}  // namespace neo::baselines
