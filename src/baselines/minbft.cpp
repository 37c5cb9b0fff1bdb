#include "baselines/minbft.hpp"

#include "obs/metrics.hpp"

#include "common/assert.hpp"
#include "crypto/sha256.hpp"

namespace neo::baselines {

MinbftReplica::MinbftReplica(MinbftConfig cfg, std::unique_ptr<crypto::NodeCrypto> crypto,
                             std::uint64_t usig_seed)
    : cfg_(cfg), crypto_(std::move(crypto)), usig_(usig_seed, 0),
      batcher_(cfg.batch_policy()) {
    set_meter(&crypto_->meter());
    set_processing_config(sim::host_processing());
}

void MinbftReplica::handle(NodeId from, BytesView data) {
    if (data.empty()) return;
    try {
        Reader r(data.subspan(1));
        switch (static_cast<Kind>(data[0])) {
            case Kind::kRequest: on_request(from, r); break;
            case Kind::kMbPrepare: on_prepare(from, r); break;
            case Kind::kMbCommit: on_commit(from, r); break;
            default: break;
        }
    } catch (const CodecError&) {
    }
}

Usig::UI MinbftReplica::metered_create(const Digest32& digest) {
    usig_.set_owner(id());
    charge(cfg_.usig_call_ns);
    ++stats_.usig_calls;
    return usig_.create(digest);
}

bool MinbftReplica::metered_verify(NodeId owner, const Digest32& digest, const Usig::UI& ui) {
    charge(cfg_.usig_call_ns);
    ++stats_.usig_calls;
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

void MinbftReplica::on_request(NodeId from, Reader& r) {
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

void MinbftReplica::seal_batch() {
    std::vector<Request> batch = batcher_.seal();
    if (obs::TraceSink* tr = sim().trace()) tr->batch(sim().now(), id(), "seal_batch", batch.size());
    trace_batch_seal(*this, batch);
    charge_batch_seal(*crypto_);
    Digest32 bd = batch_digest(batch);
    std::uint64_t seq = next_seq_++;
    Usig::UI ui = metered_create(prepare_digest(view_, seq, bd));

    Writer w(256);
    w.u8(static_cast<std::uint8_t>(Kind::kMbPrepare));
    w.u64(view_);
    w.u64(seq);
    put_batch(w, batch);
    ui.put(w);
    broadcast(cfg_.others(id()), std::move(w).take());

    Slot& slot = slots_[seq];
    slot.batch = std::move(batch);
    slot.digest = bd;
    slot.have_prepare = true;

    // Primary's own commit.
    Usig::UI commit_ui = metered_create(slot.digest);
    Writer cw(128);
    cw.u8(static_cast<std::uint8_t>(Kind::kMbCommit));
    cw.u64(view_);
    cw.u64(seq);
    cw.raw(BytesView(slot.digest.data(), slot.digest.size()));
    cw.u32(id());
    commit_ui.put(cw);
    broadcast(cfg_.others(id()), std::move(cw).take());
    slot.commits.insert(id());
    slot.commit_sent = true;
    try_execute();
}

void MinbftReplica::on_prepare(NodeId from, Reader& r) {
    std::uint64_t view = r.u64();
    std::uint64_t seq = r.u64();
    std::vector<Request> batch = get_batch(r);
    Usig::UI ui = Usig::UI::get(r);
    r.expect_end();

    if (view != view_ || from != cfg_.primary(view_)) return;
    if (seq <= stable_checkpoint_) return;  // pre-checkpoint: slot GC'd
    Digest32 bd = batch_digest(batch);
    if (!metered_verify(from, prepare_digest(view, seq, bd), ui)) return;
    // Sequentiality: the trusted counter must strictly advance, so the
    // primary cannot equivocate or replay prepares.
    std::uint64_t& last = peer_counters_[from];
    if (ui.counter <= last) return;
    last = ui.counter;

    Slot& slot = slots_[seq];
    slot.batch = std::move(batch);
    slot.digest = bd;
    slot.have_prepare = true;

    if (!slot.commit_sent) {
        slot.commit_sent = true;
        Usig::UI commit_ui = metered_create(slot.digest);
        Writer w(128);
        w.u8(static_cast<std::uint8_t>(Kind::kMbCommit));
        w.u64(view_);
        w.u64(seq);
        w.raw(BytesView(slot.digest.data(), slot.digest.size()));
        w.u32(id());
        commit_ui.put(w);
        broadcast(cfg_.others(id()), std::move(w).take());
        slot.commits.insert(id());
    }
    try_execute();
}

void MinbftReplica::on_commit(NodeId from, Reader& r) {
    std::uint64_t view = r.u64();
    std::uint64_t seq = r.u64();
    Digest32 digest = r.digest32();
    NodeId replica = r.u32();
    Usig::UI ui = Usig::UI::get(r);
    r.expect_end();

    if (view != view_ || replica != from || !cfg_.is_replica(from)) return;
    if (seq <= stable_checkpoint_) return;  // stale commit for a GC'd slot
    if (!metered_verify(from, digest, ui)) return;

    Slot& slot = slots_[seq];
    if (slot.have_prepare && slot.digest != digest) return;
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
        slot.executed = true;
        ++last_executed_;
        ++stats_.batches_committed;
        if (obs::TraceSink* tr = sim().trace()) {
            tr->phase(sim().now(), id(), "commit_batch", last_executed_);
        }
        slots_.erase(slots_.begin(), slots_.find(last_executed_));
    }
    maybe_checkpoint();
}

void MinbftReplica::maybe_checkpoint() {
    if (cfg_.checkpoint_interval == 0) return;
    std::uint64_t target =
        (last_executed_ / cfg_.checkpoint_interval) * cfg_.checkpoint_interval;
    if (target == 0 || target <= stable_checkpoint_) return;
    stable_checkpoint_ = target;
    ++stats_.checkpoints;
    slots_.erase(slots_.begin(), slots_.upper_bound(target));
}


void MinbftReplica::register_metrics(obs::Registry& reg, const std::string& prefix) {
    reg.add_collector([this, prefix](obs::Registry& r) {
        r.set_value(prefix + ".batches_committed", static_cast<double>(stats_.batches_committed));
        r.set_value(prefix + ".requests_executed", static_cast<double>(stats_.requests_executed));
        r.set_value(prefix + ".usig_calls", static_cast<double>(stats_.usig_calls));
        r.set_value(prefix + ".checkpoints", static_cast<double>(stats_.checkpoints));
        r.set_value(prefix + ".executed_seq", static_cast<double>(last_executed_));
    });
    register_rx_metrics(reg, prefix, &kind_name);
}

}  // namespace neo::baselines
