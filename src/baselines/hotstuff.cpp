#include "baselines/hotstuff.hpp"

#include "obs/metrics.hpp"

#include "common/assert.hpp"

namespace neo::baselines {

HotStuffReplica::HotStuffReplica(BaseConfig cfg, std::unique_ptr<crypto::NodeCrypto> crypto)
    : LeaderReplica(std::move(cfg), std::move(crypto)) {}

void HotStuffReplica::on_message(Kind kind, NodeId from, Reader& r) {
    switch (kind) {
        case Kind::kHsProposal: on_proposal(from, HsProposal::parse(r)); break;
        case Kind::kHsVote: on_vote(from, HsVote::parse(r)); break;
        default: break;
    }
}

HsVote HotStuffReplica::vote(int phase, std::uint64_t seq, const Digest32& digest,
                             NodeId replica) const {
    HsVote v;
    v.phase = static_cast<std::uint8_t>(phase);
    v.view = view_;
    v.seq = seq;
    v.digest = digest;
    v.replica = replica;
    return v;
}

bool HotStuffReplica::verify_qc(int phase, std::uint64_t seq, const Digest32& digest,
                                const std::vector<crypto::SignerSig>& qc) {
    std::set<NodeId> seen;
    std::size_t valid = 0;
    for (const auto& s : qc) {
        if (!cfg_.is_replica(s.replica) || !seen.insert(s.replica).second) continue;
        if (!crypto_->verify(s.replica, vote(phase, seq, digest, s.replica).signed_body(),
                             s.signature)) {
            continue;
        }
        ++valid;
    }
    return valid >= static_cast<std::size_t>(2 * cfg_.f + 1);
}

void HotStuffReplica::propose(int phase, std::uint64_t seq, const Digest32& digest,
                              std::vector<Request> batch, std::vector<crypto::SignerSig> qc) {
    HsProposal p;
    p.phase = static_cast<std::uint8_t>(phase);
    p.view = view_;
    p.seq = seq;
    p.digest = digest;
    p.batch = std::move(batch);
    p.qc = std::move(qc);
    p.signature = crypto_->sign(p.signed_body());
    broadcast(cfg_.others(id()), p.serialize());
}

void HotStuffReplica::order_batch(std::vector<Request> batch) {
    std::uint64_t seq = next_seq_++;
    Digest32 digest = batch_digest(batch);

    Instance& inst = instances_[seq];
    inst.batch = batch;
    inst.digest = digest;

    // PREPARE proposal carries the batch and no justify QC; later phases
    // carry QCs only.
    propose(0, seq, digest, std::move(batch), {});

    // Leader votes for its own proposal.
    inst.votes[0][id()] = crypto_->sign(vote(0, seq, digest, id()).signed_body());
    inst.phase = 0;
    leader_try_advance(seq);
}

void HotStuffReplica::on_proposal(NodeId from, HsProposal m) {
    if (m.view != view_ || from != cfg_.primary(view_)) return;
    if (m.phase > 3) return;
    if (m.seq <= stable_checkpoint_) return;  // pre-checkpoint: instance GC'd
    if (!crypto_->verify(from, m.signed_body(), m.signature)) return;

    Instance& inst = instances_[m.seq];
    if (m.phase == 0) {
        if (batch_digest(m.batch) != m.digest) return;
        if (!inst.batch.empty() && inst.digest != m.digest) return;
        inst.batch = std::move(m.batch);
        inst.digest = m.digest;
        send_vote(m.seq, 0, m.digest);
        return;
    }
    if (inst.digest != m.digest || inst.batch.empty()) return;
    // Phases 1..3 justify with the previous phase's QC.
    if (!verify_qc(m.phase - 1, m.seq, m.digest, m.qc)) return;

    if (m.phase < 3) {
        send_vote(m.seq, m.phase, m.digest);
    } else {
        inst.decided = true;
        try_execute();
    }
}

void HotStuffReplica::send_vote(std::uint64_t seq, int phase, const Digest32& digest) {
    HsVote v = vote(phase, seq, digest, id());
    v.signature = crypto_->sign(v.signed_body());
    send_to(cfg_.primary(view_), v.serialize());
    instances_[seq].phase = phase;
}

void HotStuffReplica::on_vote(NodeId from, HsVote m) {
    if (m.view != view_ || !is_primary()) return;
    if (m.replica != from || !cfg_.is_replica(from)) return;
    if (m.phase > 2) return;
    if (m.seq <= stable_checkpoint_) return;  // stale vote for a GC'd instance
    Instance& inst = instances_[m.seq];
    if (inst.digest != m.digest) return;
    if (!crypto_->verify(from, m.signed_body(), m.signature)) return;
    inst.votes[m.phase][from] = std::move(m.signature);
    leader_try_advance(m.seq);
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
        propose(next_phase, seq, inst.digest, {}, std::move(qc));

        if (next_phase < 3) {
            // Leader's own vote for the next phase.
            inst.votes[next_phase][id()] =
                crypto_->sign(vote(next_phase, seq, inst.digest, id()).signed_body());
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
