#include "baselines/pbft.hpp"

#include "obs/metrics.hpp"

#include "common/assert.hpp"

namespace neo::baselines {

PbftReplica::PbftReplica(PbftConfig cfg, std::unique_ptr<crypto::NodeCrypto> crypto)
    : cfg_(cfg), crypto_(std::move(crypto)), batcher_(cfg.batch_policy()) {
    set_meter(&crypto_->meter());
    set_processing_config(sim::host_processing());
}

void PbftReplica::handle(NodeId from, BytesView data) {
    if (data.empty()) return;
    try {
        Reader r(data.subspan(1));
        switch (static_cast<Kind>(data[0])) {
            case Kind::kRequest: on_request(from, r); break;
            case Kind::kPrePrepare: on_preprepare(from, r); break;
            case Kind::kPrepare: on_prepare(from, r); break;
            case Kind::kCommit: on_commit(from, r); break;
            case Kind::kCheckpoint: on_checkpoint(from, r); break;
            default: break;
        }
    } catch (const CodecError&) {
    }
}

void PbftReplica::on_request(NodeId from, Reader& r) {
    Request req = Request::parse(r);
    if (req.client != from) return;

    auto it = clients_.find(req.client);
    if (it != clients_.end() && req.request_id <= it->second.first) {
        if (req.request_id == it->second.first && !it->second.second.empty()) {
            send_to(req.client, it->second.second);
        }
        return;
    }
    if (!is_primary()) return;  // backups rely on the client retry/broadcast
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

void PbftReplica::seal_batch() {
    std::vector<Request> batch = batcher_.seal();
    if (obs::TraceSink* tr = sim().trace()) tr->batch(sim().now(), id(), "seal_batch", batch.size());
    trace_batch_seal(*this, batch);
    charge_batch_seal(*crypto_);
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
        execute_batch(it->second);
        it->second.executed = true;
        ++last_executed_;
        ++stats_.batches_committed;
        if (obs::TraceSink* tr = sim().trace()) {
            tr->phase(sim().now(), id(), "commit_batch", last_executed_);
        }
    }
    maybe_checkpoint();
}

void PbftReplica::execute_batch(Slot& slot) {
    for (const Request& req : slot.batch) {
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
}

void PbftReplica::maybe_checkpoint() {
    std::uint64_t target = (last_executed_ / cfg_.checkpoint_interval) * cfg_.checkpoint_interval;
    if (target == 0 || target <= stable_checkpoint_) return;
    if (checkpoint_votes_[target].contains(id())) return;

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
    ++stats_.checkpoints;
    // Garbage-collect slots and votes at or below the stable checkpoint.
    slots_.erase(slots_.begin(), slots_.upper_bound(seq));
    checkpoint_votes_.erase(checkpoint_votes_.begin(), checkpoint_votes_.upper_bound(seq));
}


void PbftReplica::register_metrics(obs::Registry& reg, const std::string& prefix) {
    reg.add_collector([this, prefix](obs::Registry& r) {
        r.set_value(prefix + ".batches_committed", static_cast<double>(stats_.batches_committed));
        r.set_value(prefix + ".requests_executed", static_cast<double>(stats_.requests_executed));
        r.set_value(prefix + ".checkpoints", static_cast<double>(stats_.checkpoints));
        r.set_value(prefix + ".executed_seq", static_cast<double>(last_executed_));
    });
    register_rx_metrics(reg, prefix, &kind_name);
}

}  // namespace neo::baselines
