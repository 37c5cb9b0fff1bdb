#include "baselines/zyzzyva.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#include "common/assert.hpp"
#include "crypto/sha256.hpp"

namespace neo::baselines {

// ---------------------------------------------------------------- Replica

ZyzzyvaReplica::ZyzzyvaReplica(ZyzzyvaConfig cfg, std::unique_ptr<crypto::NodeCrypto> crypto)
    : cfg_(cfg), crypto_(std::move(crypto)), batcher_(cfg.batch_policy()) {
    set_meter(&crypto_->meter());
    set_processing_config(sim::host_processing());
}

void ZyzzyvaReplica::handle(NodeId from, BytesView data) {
    if (silent_ || data.empty()) return;
    try {
        Reader r(data.subspan(1));
        switch (static_cast<Kind>(data[0])) {
            case Kind::kRequest: on_request(from, r); break;
            case Kind::kOrderReq: on_order_req(from, r); break;
            case Kind::kCommitCert: on_commit_cert(from, r); break;
            default: break;
        }
    } catch (const CodecError&) {
    }
}

void ZyzzyvaReplica::on_request(NodeId from, Reader& r) {
    Request req = Request::parse(r);
    if (req.client != from) return;

    auto it = clients_.find(req.client);
    if (it != clients_.end() && req.request_id <= it->second.first) {
        if (req.request_id == it->second.first && !it->second.second.empty()) {
            send_to(req.client, it->second.second);
        }
        return;
    }
    if (!is_primary()) return;
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

Bytes ZyzzyvaReplica::order_body(std::uint64_t seq, const Digest32& history,
                                 const Digest32& digest) const {
    Writer w(96);
    w.str("zyzzyva-order");
    w.u64(view_);
    w.u64(seq);
    w.raw(BytesView(history.data(), history.size()));
    w.raw(BytesView(digest.data(), digest.size()));
    return std::move(w).take();
}

void ZyzzyvaReplica::seal_batch() {
    std::vector<Request> batch = batcher_.seal();
    if (obs::TraceSink* tr = sim().trace()) tr->batch(sim().now(), id(), "seal_batch", batch.size());
    trace_batch_seal(*this, batch);
    charge_batch_seal(*crypto_);
    std::uint64_t seq = next_seq_++;
    Digest32 digest = batch_digest(batch);
    Digest32 new_history =
        crypto::sha256_pair(BytesView(history_.data(), history_.size()),
                            BytesView(digest.data(), digest.size()));

    Writer w(256);
    w.u8(static_cast<std::uint8_t>(Kind::kOrderReq));
    w.u64(view_);
    w.u64(seq);
    w.raw(BytesView(new_history.data(), new_history.size()));
    w.raw(BytesView(digest.data(), digest.size()));
    put_batch(w, batch);
    w.blob(crypto_->sign(order_body(seq, new_history, digest)));
    broadcast(cfg_.others(id()), std::move(w).take());

    ++stats_.batches_ordered;
    if (obs::TraceSink* tr = sim().trace()) tr->phase(sim().now(), id(), "order_batch", seq);
    execute_ordered(seq, std::move(batch));
}

void ZyzzyvaReplica::on_order_req(NodeId from, Reader& r) {
    std::uint64_t view = r.u64();
    std::uint64_t seq = r.u64();
    Digest32 history = r.digest32();
    Digest32 digest = r.digest32();
    std::vector<Request> batch = get_batch(r);
    Bytes sig = r.blob(256);
    r.expect_end();

    if (view != view_ || from != cfg_.primary(view_)) return;
    if (seq <= max_executed_ || seq <= stable_checkpoint_) return;
    if (batch_digest(batch) != digest) return;
    if (!crypto_->verify(from, order_body(seq, history, digest), sig)) return;

    pending_[seq] = {digest, std::move(batch)};
    // Execute contiguously in order (speculation requires gap-free history).
    while (true) {
        auto it = pending_.find(max_executed_ + 1);
        if (it == pending_.end()) break;
        // Verify the primary's history chain.
        Digest32 expect = crypto::sha256_pair(BytesView(history_.data(), history_.size()),
                                              BytesView(it->second.first.data(), 32));
        if (max_executed_ + 1 == seq && expect != history) {
            pending_.erase(it);
            return;  // primary equivocated on history; drop
        }
        std::vector<Request> b = std::move(it->second.second);
        pending_.erase(it);
        execute_ordered(max_executed_ + 1, std::move(b));
    }
}

void ZyzzyvaReplica::execute_ordered(std::uint64_t seq, std::vector<Request> batch) {
    NEO_ASSERT(seq == max_executed_ + 1);
    Digest32 digest = batch_digest(batch);
    history_ = crypto::sha256_pair(BytesView(history_.data(), history_.size()),
                                   BytesView(digest.data(), digest.size()));
    history_at_[seq] = history_;
    max_executed_ = seq;

    for (const Request& req : batch) {
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

        // Speculative response: carries (view, seq, history) so the client
        // can detect divergence; MAC-authenticated to the client.
        Writer w(160 + result.size());
        w.u8(static_cast<std::uint8_t>(Kind::kSpecResponse));
        w.u64(view_);
        w.u64(seq);
        w.raw(BytesView(history_.data(), history_.size()));
        w.u32(id());
        w.u64(req.request_id);
        w.blob(result);
        Writer body(96 + result.size());
        body.str("zyzzyva-spec");
        body.u64(view_);
        body.u64(seq);
        body.raw(BytesView(history_.data(), history_.size()));
        body.u64(req.request_id);
        body.blob(result);
        w.blob(crypto_->mac_for(req.client, body.bytes()));
        sim::Packet wire(std::move(w).take());
        clients_[req.client] = {req.request_id, wire};
        send_to(req.client, std::move(wire));
    }

    maybe_checkpoint();
    // Backstop when checkpointing is disabled: bound the history anchors.
    while (history_at_.size() > 8'192) history_at_.erase(history_at_.begin());
}

void ZyzzyvaReplica::maybe_checkpoint() {
    if (cfg_.checkpoint_interval == 0) return;
    std::uint64_t target =
        (max_executed_ / cfg_.checkpoint_interval) * cfg_.checkpoint_interval;
    if (target == 0 || target <= stable_checkpoint_) return;
    stable_checkpoint_ = target;
    ++stats_.checkpoints;
    // Keep one interval of history anchors below the floor so slow-path
    // commit certificates for just-checkpointed seqs still resolve.
    std::uint64_t keep_above =
        target > cfg_.checkpoint_interval ? target - cfg_.checkpoint_interval : 0;
    history_at_.erase(history_at_.begin(), history_at_.upper_bound(keep_above));
    pending_.erase(pending_.begin(), pending_.upper_bound(target));
}

void ZyzzyvaReplica::on_commit_cert(NodeId from, Reader& r) {
    // ⟨commit, client, cert⟩: cert identifies (view, seq, history) with
    // 2f+1 matching speculative responses. Replicas that have executed up
    // to seq with that history acknowledge with local-commit.
    std::uint64_t view = r.u64();
    std::uint64_t seq = r.u64();
    Digest32 history = r.digest32();
    std::uint64_t request_id = r.u64();
    r.expect_end();

    if (view != view_) return;
    auto it = history_at_.find(seq);
    if (it == history_at_.end() || it->second != history) return;

    Writer w(96);
    w.u8(static_cast<std::uint8_t>(Kind::kLocalCommit));
    w.u64(view_);
    w.u64(seq);
    w.u32(id());
    w.u64(request_id);
    Writer body(64);
    body.str("zyzzyva-local-commit");
    body.u64(view_);
    body.u64(seq);
    body.u64(request_id);
    w.blob(crypto_->mac_for(from, body.bytes()));
    send_to(from, std::move(w).take());
    ++stats_.local_commits;
}

// ---------------------------------------------------------------- Client

ZyzzyvaClient::ZyzzyvaClient(ZyzzyvaConfig cfg, std::unique_ptr<crypto::NodeCrypto> crypto,
                             Options opts)
    : cfg_(cfg), crypto_(std::move(crypto)), opts_(opts) {
    set_meter(&crypto_->meter());
    set_processing_config(sim::host_processing());
}

void ZyzzyvaClient::invoke(Bytes op, Callback cb) {
    NEO_ASSERT(!outstanding_.has_value());
    Request req;
    req.client = id();
    req.request_id = next_request_id_++;
    req.op = std::move(op);
    req.mac = crypto_->mac_for(cfg_.primary(0), req.mac_body());

    Outstanding out;
    out.request_id = req.request_id;
    out.wire = sim::Packet(req.serialize());
    out.cb = std::move(cb);
    outstanding_ = std::move(out);
    if (obs::TraceSink* tr = sim().trace()) {
        outstanding_->trace_id = obs::trace_id(outstanding_->wire.view());
        tr->span_begin(sim().now(), id(), "request", outstanding_->trace_id);
    }
    send_to(cfg_.primary(0), outstanding_->wire);

    outstanding_->fast_timer = set_timer(opts_.fast_path_timeout, [this] {
        if (outstanding_.has_value() && !outstanding_->slow_path) start_slow_path();
    }, "fast_path");
    outstanding_->retry_timer = set_timer(opts_.retry_timeout, [this] {
        if (!outstanding_.has_value()) return;
        for (NodeId r : cfg_.replicas) send_to(r, outstanding_->wire);
    }, "request_retry");
}

void ZyzzyvaClient::handle(NodeId from, BytesView data) {
    if (data.empty()) return;
    try {
        Reader r(data.subspan(1));
        switch (static_cast<Kind>(data[0])) {
            case Kind::kSpecResponse: on_spec_response(from, r); break;
            case Kind::kLocalCommit: on_local_commit(from, r); break;
            case Kind::kReply: break;  // not used by zyzzyva
            default: break;
        }
    } catch (const CodecError&) {
    }
}

void ZyzzyvaClient::on_spec_response(NodeId from, Reader& r) {
    std::uint64_t view = r.u64();
    std::uint64_t seq = r.u64();
    Digest32 history = r.digest32();
    NodeId replica = r.u32();
    std::uint64_t request_id = r.u64();
    Bytes result = r.blob();
    Bytes mac = r.blob(64);
    r.expect_end();

    if (!outstanding_.has_value() || request_id != outstanding_->request_id) return;
    if (replica != from || !cfg_.is_replica(from)) return;
    Writer body(96 + result.size());
    body.str("zyzzyva-spec");
    body.u64(view);
    body.u64(seq);
    body.raw(BytesView(history.data(), history.size()));
    body.u64(request_id);
    body.blob(result);
    if (!crypto_->check_mac_from(from, body.bytes(), mac)) return;

    Writer key(96);
    key.u64(view);
    key.u64(seq);
    key.raw(BytesView(history.data(), history.size()));
    Digest32 rd = crypto::sha256(result);
    key.raw(BytesView(rd.data(), rd.size()));

    SpecVote& vote = outstanding_->votes[key.bytes()];
    vote.replicas.insert(from);
    vote.result = std::move(result);
    if (obs::TraceSink* tr = sim().trace();
        tr != nullptr && !outstanding_->quorum_span_open) {
        outstanding_->quorum_span_open = true;
        tr->span_begin(sim().now(), id(), "quorum", outstanding_->trace_id, from);
    }
    try_fast_commit(from);
}

void ZyzzyvaClient::try_fast_commit(NodeId from) {
    if (!outstanding_.has_value()) return;
    std::size_t all = static_cast<std::size_t>(3 * cfg_.f + 1);
    for (auto& [key, vote] : outstanding_->votes) {
        if (vote.replicas.size() >= all) {
            ++fast_commits_;
            complete(vote.result, from);
            return;
        }
    }
    // Already on the slow path: a late 2f+1 match triggers the certificate.
    if (outstanding_->slow_path && outstanding_->slow_key.empty()) start_slow_path();
}

void ZyzzyvaClient::start_slow_path() {
    if (!outstanding_.has_value()) return;
    outstanding_->slow_path = true;
    // Find a 2f+1 matching set.
    std::size_t need = static_cast<std::size_t>(2 * cfg_.f + 1);
    for (auto& [key, vote] : outstanding_->votes) {
        if (vote.replicas.size() >= need) {
            outstanding_->slow_key = key;
            // Reconstruct (view, seq, history) from the key and broadcast a
            // commit certificate.
            Reader kr(key);
            std::uint64_t view = kr.u64();
            std::uint64_t seq = kr.u64();
            Digest32 history = kr.digest32();

            Writer w(96);
            w.u8(static_cast<std::uint8_t>(Kind::kCommitCert));
            w.u64(view);
            w.u64(seq);
            w.raw(BytesView(history.data(), history.size()));
            w.u64(outstanding_->request_id);
            sim::Packet wire(std::move(w).take());
            for (NodeId r : cfg_.replicas) send_to(r, wire);
            return;
        }
    }
    // Not enough matching responses yet: re-check as more arrive.
    outstanding_->fast_timer = set_timer(opts_.fast_path_timeout, [this] {
        if (outstanding_.has_value() && outstanding_->slow_key.empty()) start_slow_path();
    }, "fast_path");
}

void ZyzzyvaClient::on_local_commit(NodeId from, Reader& r) {
    std::uint64_t view = r.u64();
    std::uint64_t seq = r.u64();
    NodeId replica = r.u32();
    std::uint64_t request_id = r.u64();
    Bytes mac = r.blob(64);
    r.expect_end();

    if (!outstanding_.has_value() || request_id != outstanding_->request_id) return;
    if (replica != from || !cfg_.is_replica(from)) return;
    if (outstanding_->slow_key.empty()) return;
    Writer body(64);
    body.str("zyzzyva-local-commit");
    body.u64(view);
    body.u64(seq);
    body.u64(request_id);
    if (!crypto_->check_mac_from(from, body.bytes(), mac)) return;

    outstanding_->local_commits.insert(from);
    if (outstanding_->local_commits.size() >= static_cast<std::size_t>(2 * cfg_.f + 1)) {
        ++slow_commits_;
        complete(outstanding_->votes[outstanding_->slow_key].result, from);
    }
}

void ZyzzyvaClient::complete(Bytes result, NodeId peer) {
    Callback cb = std::move(outstanding_->cb);
    if (obs::TraceSink* tr = sim().trace()) {
        // peer = the replica whose response completed the commit (fast or
        // slow path alike).
        if (outstanding_->quorum_span_open) {
            tr->span_end(sim().now(), id(), "quorum", outstanding_->trace_id, peer);
        }
        tr->span_end(sim().now(), id(), "request", outstanding_->trace_id, peer);
    }
    cancel_timer(outstanding_->fast_timer);
    cancel_timer(outstanding_->retry_timer);
    outstanding_.reset();
    cb(std::move(result));
}


void ZyzzyvaReplica::register_metrics(obs::Registry& reg, const std::string& prefix) {
    reg.add_collector([this, prefix](obs::Registry& r) {
        r.set_value(prefix + ".batches_ordered", static_cast<double>(stats_.batches_ordered));
        r.set_value(prefix + ".requests_executed", static_cast<double>(stats_.requests_executed));
        r.set_value(prefix + ".local_commits", static_cast<double>(stats_.local_commits));
        r.set_value(prefix + ".checkpoints", static_cast<double>(stats_.checkpoints));
        r.set_value(prefix + ".executed_seq", static_cast<double>(max_executed_));
    });
    register_rx_metrics(reg, prefix, &kind_name);
}

}  // namespace neo::baselines
