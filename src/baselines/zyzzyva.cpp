#include "baselines/zyzzyva.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#include "common/assert.hpp"
#include "crypto/sha256.hpp"

namespace neo::baselines {

// ---------------------------------------------------------------- Replica

ZyzzyvaReplica::ZyzzyvaReplica(BaseConfig cfg, std::unique_ptr<crypto::NodeCrypto> crypto)
    : LeaderReplica(std::move(cfg), std::move(crypto)) {}

void ZyzzyvaReplica::handle(NodeId from, BytesView data) {
    if (!silent_) LeaderReplica::handle(from, data);
}

void ZyzzyvaReplica::on_message(Kind kind, NodeId from, Reader& r) {
    switch (kind) {
        case Kind::kOrderReq: on_order_req(from, OrderReq::parse(r)); break;
        case Kind::kCommitCert: on_commit_cert(from, CommitCert::parse(r)); break;
        default: break;
    }
}

void ZyzzyvaReplica::order_batch(std::vector<Request> batch) {
    OrderReq m;
    m.view = view_;
    m.seq = next_seq_++;
    m.digest = batch_digest(batch);
    m.history = crypto::sha256_pair(BytesView(history_.data(), history_.size()),
                                    BytesView(m.digest.data(), m.digest.size()));
    m.batch = std::move(batch);
    m.signature = crypto_->sign(m.signed_body());
    broadcast(cfg_.others(id()), m.serialize());

    ++batches_ordered_;
    if (obs::TraceSink* tr = sim().trace()) tr->phase(sim().now(), id(), "order_batch", m.seq);
    execute_ordered(m.seq, std::move(m.batch));
}

void ZyzzyvaReplica::on_order_req(NodeId from, OrderReq m) {
    if (m.view != view_ || from != cfg_.primary(view_)) return;
    if (m.seq <= last_executed_ || m.seq <= stable_checkpoint_) return;
    if (batch_digest(m.batch) != m.digest) return;
    if (!crypto_->verify(from, m.signed_body(), m.signature)) return;

    pending_[m.seq] = {m.digest, std::move(m.batch)};
    // Execute contiguously in order (speculation requires gap-free history).
    while (true) {
        auto it = pending_.find(last_executed_ + 1);
        if (it == pending_.end()) break;
        // Verify the primary's history chain.
        Digest32 expect = crypto::sha256_pair(BytesView(history_.data(), history_.size()),
                                              BytesView(it->second.first.data(), 32));
        if (last_executed_ + 1 == m.seq && expect != m.history) {
            pending_.erase(it);
            return;  // primary equivocated on history; drop
        }
        std::vector<Request> b = std::move(it->second.second);
        pending_.erase(it);
        execute_ordered(last_executed_ + 1, std::move(b));
    }
}

void ZyzzyvaReplica::execute_ordered(std::uint64_t seq, std::vector<Request> batch) {
    NEO_ASSERT(seq == last_executed_ + 1);
    Digest32 digest = batch_digest(batch);
    history_ = crypto::sha256_pair(BytesView(history_.data(), history_.size()),
                                   BytesView(digest.data(), digest.size()));
    history_at_[seq] = history_;
    last_executed_ = seq;

    execute_batch(batch);
    maybe_checkpoint();
    // Backstop when checkpointing is disabled: bound the history anchors.
    while (history_at_.size() > 8'192) history_at_.erase(history_at_.begin());
}

sim::Packet ZyzzyvaReplica::make_reply(const Request& req, Bytes result) {
    // execute_ordered sets last_executed_ to the batch's seq before it runs.
    SpecResponse m;
    m.view = view_;
    m.seq = last_executed_;
    m.history = history_;
    m.replica = id();
    m.request_id = req.request_id;
    m.result = std::move(result);
    m.mac = crypto_->mac_for(req.client, m.signed_body());
    return sim::Packet(m.serialize());
}

void ZyzzyvaReplica::maybe_checkpoint() {
    std::uint64_t target = due_checkpoint();
    if (target == 0) return;
    stable_checkpoint_ = target;
    ++checkpoints_;
    // Keep one interval of history anchors below the floor so slow-path
    // commit certificates for just-checkpointed seqs still resolve.
    std::uint64_t keep_above =
        target > cfg_.checkpoint_interval ? target - cfg_.checkpoint_interval : 0;
    history_at_.erase(history_at_.begin(), history_at_.upper_bound(keep_above));
    pending_.erase(pending_.begin(), pending_.upper_bound(target));
}

void ZyzzyvaReplica::on_commit_cert(NodeId from, const CommitCert& m) {
    // ⟨commit, client, cert⟩: cert identifies (view, seq, history) with
    // 2f+1 matching speculative responses. Replicas that have executed up
    // to seq with that history acknowledge with local-commit.
    if (m.view != view_) return;
    auto it = history_at_.find(m.seq);
    if (it == history_at_.end() || it->second != m.history) return;

    LocalCommit ack;
    ack.view = view_;
    ack.seq = m.seq;
    ack.replica = id();
    ack.request_id = m.request_id;
    ack.mac = crypto_->mac_for(from, ack.signed_body());
    send_to(from, ack.serialize());
    ++local_commits_;
}

void ZyzzyvaReplica::publish_metrics(obs::Registry& r, const std::string& prefix) const {
    r.set_value(prefix + ".batches_ordered", static_cast<double>(batches_ordered_));
    r.set_value(prefix + ".local_commits", static_cast<double>(local_commits_));
}

// ---------------------------------------------------------------- Client

ZyzzyvaClient::ZyzzyvaClient(BaseConfig cfg, std::unique_ptr<crypto::NodeCrypto> crypto)
    : ClientCore(std::move(crypto), kClientRetryTimeout), cfg_(std::move(cfg)) {}

sim::Packet ZyzzyvaClient::make_request(std::uint64_t request_id, Bytes op) {
    slow_ = SlowPath{};
    slow_.request_id = request_id;
    return mac_request(*crypto_, id(), cfg_.primary(0), request_id, std::move(op));
}

void ZyzzyvaClient::send_request(const sim::Packet& wire) {
    send_to(cfg_.primary(0), wire);
    arm(kFastPathTimeout, [this] {
        slow_.timed_out = true;
        if (const Vote* vote = leading()) maybe_certify(*vote);
    }, "fast_path");
}

void ZyzzyvaClient::handle(NodeId from, BytesView data) {
    if (data.empty()) return;
    try {
        Reader r(data.subspan(1));
        switch (static_cast<Kind>(data[0])) {
            case Kind::kSpecResponse: on_spec_response(from, SpecResponse::parse(r)); break;
            case Kind::kLocalCommit: on_local_commit(from, LocalCommit::parse(r)); break;
            default: break;
        }
    } catch (const CodecError&) {
    }
}

void ZyzzyvaClient::on_spec_response(NodeId from, SpecResponse m) {
    if (!awaiting(m.request_id)) return;
    if (m.replica != from || !cfg_.is_replica(from)) return;
    if (!crypto_->check_mac_from(from, m.signed_body(), m.mac)) return;

    Writer key(96);
    key.u64(m.view);
    key.u64(m.seq);
    key.raw(BytesView(m.history.data(), m.history.size()));
    Digest32 rd = crypto::sha256(m.result);
    key.raw(BytesView(rd.data(), rd.size()));

    const Vote& vote = tally(from, std::move(key).take(), std::move(m.result));
    if (vote.senders.size() >= static_cast<std::size_t>(3 * cfg_.f + 1)) {
        ++fast_commits_;
        complete(vote.result, from);
    } else if (slow_.timed_out) {
        maybe_certify(vote);
    }
}

void ZyzzyvaClient::maybe_certify(const Vote& vote) {
    if (slow_.result || vote.senders.size() < static_cast<std::size_t>(2 * cfg_.f + 1)) return;
    slow_.result = vote.result;
    // The key starts with (view, seq, history).
    Reader kr(vote.key);
    CommitCert cert;
    cert.view = kr.u64();
    cert.seq = kr.u64();
    cert.history = kr.digest32();
    cert.request_id = slow_.request_id;
    broadcast(cfg_.replicas, cert.serialize());
}

void ZyzzyvaClient::on_local_commit(NodeId from, const LocalCommit& m) {
    if (!awaiting(m.request_id)) return;
    if (m.replica != from || !cfg_.is_replica(from)) return;
    if (!slow_.result) return;
    if (!crypto_->check_mac_from(from, m.signed_body(), m.mac)) return;

    slow_.local_commits.insert(from);
    if (slow_.local_commits.size() >= static_cast<std::size_t>(2 * cfg_.f + 1)) {
        ++slow_commits_;
        complete(std::move(*slow_.result), from);
    }
}

}  // namespace neo::baselines
