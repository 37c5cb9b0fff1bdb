#include "baselines/hotstuff.hpp"

#include "obs/metrics.hpp"

#include "common/assert.hpp"

namespace neo::baselines {

HotStuffReplica::HotStuffReplica(HotStuffConfig cfg, std::unique_ptr<crypto::NodeCrypto> crypto)
    : cfg_(cfg), crypto_(std::move(crypto)), batcher_(cfg.batch_policy()) {
    set_meter(&crypto_->meter());
    set_processing_config(sim::host_processing());
}

void HotStuffReplica::handle(NodeId from, BytesView data) {
    if (data.empty()) return;
    try {
        Reader r(data.subspan(1));
        switch (static_cast<Kind>(data[0])) {
            case Kind::kRequest: on_request(from, r); break;
            case Kind::kHsProposal: on_proposal(from, r); break;
            case Kind::kHsVote: on_vote(from, r); break;
            default: break;
        }
    } catch (const CodecError&) {
    }
}

void HotStuffReplica::on_request(NodeId from, Reader& r) {
    Request req = Request::parse(r);
    if (req.client != from) return;
    auto it = clients_.find(req.client);
    if (it != clients_.end() && req.request_id <= it->second.first) {
        if (req.request_id == it->second.first && !it->second.second.empty()) {
            send_to(req.client, it->second.second);
        }
        return;
    }
    if (!is_leader()) return;
    if (!crypto_->check_mac_from(req.client, req.mac_body(), req.mac)) return;

    trace_batch_add(*this, req);
    batcher_.add(std::move(req));
    if (batcher_.should_seal_by_size()) {
        seal_batch();
    } else if (!batch_timer_armed_) {
        batch_timer_armed_ = true;
        set_timer(batcher_.delay(), [this] {
            batch_timer_armed_ = false;
            if (!batcher_.empty()) seal_batch();
        }, "batch_flush");
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
                                const std::vector<SignerSig>& qc) {
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

void HotStuffReplica::seal_batch() {
    std::vector<Request> batch = batcher_.seal();
    if (obs::TraceSink* tr = sim().trace()) tr->batch(sim().now(), id(), "seal_batch", batch.size());
    trace_batch_seal(*this, batch);
    charge_batch_seal(*crypto_);
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
    put_signer_sigs(w, {});  // no justify QC for the prepare phase
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
    std::vector<SignerSig> qc = get_signer_sigs(r);
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

    if (view != view_ || !is_leader()) return;
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

        std::vector<SignerSig> qc;
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
        put_signer_sigs(w, qc);
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

        for (const Request& req : inst.batch) {
            auto cit = clients_.find(req.client);
            if (cit != clients_.end() && req.request_id <= cit->second.first) continue;
            charge(sim::kPerBatchedRequestNs);
            // Client authenticator (MAC-vector entry) verification: PBFT-
            // lineage protocols verify one entry per request per replica.
            crypto_->meter().macs++;
            crypto_->meter().charge(crypto_->root().costs().mac_ns);
            Bytes result = app_->execute(req.op);
            charge(app_->execute_cost_ns(req.op));
            app_->commit_prefix(++stats_.requests_executed);
            probe_.on_execute(*this, req);

            Reply reply;
            reply.view = view_;
            reply.replica = id();
            reply.request_id = req.request_id;
            reply.result = std::move(result);
            reply.mac = crypto_->mac_for(req.client, reply.mac_body());
            sim::Packet wire(reply.serialize());
            clients_[req.client] = {req.request_id, wire};
            send_to(req.client, std::move(wire));
        }
        inst.executed = true;
        ++last_executed_;
        ++stats_.batches_decided;
        if (obs::TraceSink* tr = sim().trace()) {
            tr->phase(sim().now(), id(), "decide_batch", last_executed_);
        }
        // Garbage-collect decided instances.
        instances_.erase(instances_.begin(), instances_.find(last_executed_));
    }
    maybe_checkpoint();
}

void HotStuffReplica::maybe_checkpoint() {
    if (cfg_.checkpoint_interval == 0) return;
    std::uint64_t target =
        (last_executed_ / cfg_.checkpoint_interval) * cfg_.checkpoint_interval;
    if (target == 0 || target <= stable_checkpoint_) return;
    stable_checkpoint_ = target;
    ++stats_.checkpoints;
    instances_.erase(instances_.begin(), instances_.upper_bound(target));
}


void HotStuffReplica::register_metrics(obs::Registry& reg, const std::string& prefix) {
    reg.add_collector([this, prefix](obs::Registry& r) {
        r.set_value(prefix + ".batches_decided", static_cast<double>(stats_.batches_decided));
        r.set_value(prefix + ".requests_executed", static_cast<double>(stats_.requests_executed));
        r.set_value(prefix + ".checkpoints", static_cast<double>(stats_.checkpoints));
        r.set_value(prefix + ".executed_seq", static_cast<double>(last_executed_));
    });
    register_rx_metrics(reg, prefix, &kind_name);
}

}  // namespace neo::baselines
