#include "baselines/common.hpp"

#include "crypto/sha256.hpp"
#include "obs/auditor.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace neo::baselines {

const char* kind_name(std::uint8_t kind) {
    switch (static_cast<Kind>(kind)) {
        case Kind::kRequest: return "request";
        case Kind::kReply: return "reply";
        case Kind::kPrePrepare: return "preprepare";
        case Kind::kPrepare: return "prepare";
        case Kind::kCommit: return "commit";
        case Kind::kCheckpoint: return "checkpoint";
        case Kind::kOrderReq: return "order_req";
        case Kind::kSpecResponse: return "spec_response";
        case Kind::kCommitCert: return "commit_cert";
        case Kind::kLocalCommit: return "local_commit";
        case Kind::kHsProposal: return "hs_proposal";
        case Kind::kHsVote: return "hs_vote";
        case Kind::kMbPrepare: return "mb_prepare";
        case Kind::kMbCommit: return "mb_commit";
        case Kind::kUnrepRequest: return "unrep_request";
        case Kind::kUnrepReply: return "unrep_reply";
        default: return nullptr;
    }
}

Digest32 Request::digest() const { return crypto::sha256(signed_body()); }

Digest32 batch_digest(const std::vector<Request>& batch) {
    crypto::Sha256 ctx;
    ctx.update("bft-batch");
    for (const auto& req : batch) {
        Digest32 d = req.digest();
        ctx.update(BytesView(d.data(), d.size()));
    }
    return ctx.finish();
}

// ---------------- ExecProbe ----------------

void ExecProbe::on_execute(sim::ProcessingNode& node, const Request& req) {
    if (node.sim().trace() == nullptr && auditor_ == nullptr) {
        ++next_slot_;
        return;
    }
    on_execute_wire(node, req.serialize());
}

void ExecProbe::on_execute_wire(sim::ProcessingNode& node, BytesView wire) {
    std::uint64_t slot = ++next_slot_;
    obs::TraceSink* tr = node.sim().trace();
    if (tr == nullptr && auditor_ == nullptr) return;
    std::uint64_t tid = obs::trace_id(wire);
    if (auditor_) {
        std::uint64_t audited = equivocate_ ? (tid ^ 0x6571756976ull) : tid;
        auditor_->on_execute(node.sim().current_shard(), node.sim().now(), node.id(), slot,
                             audited, /*noop=*/false);
    }
    if (tr) {
        tr->span_begin(node.sim().now(), node.id(), "execute", tid, slot);
        tr->span_end(node.sim().now(), node.id(), "execute", tid, slot);
    }
}

// ---------------- LeaderReplica ----------------

LeaderReplica::LeaderReplica(BaseConfig cfg, std::unique_ptr<crypto::NodeCrypto> crypto)
    : cfg_(std::move(cfg)), crypto_(std::move(crypto)), batcher_(cfg_.batch_policy()) {
    set_meter(&crypto_->meter());
}

void LeaderReplica::handle(NodeId from, BytesView data) {
    if (data.empty()) return;
    try {
        Reader r(data.subspan(1));
        const auto kind = static_cast<Kind>(data[0]);
        if (kind == Kind::kRequest) {
            on_request(from, Request::parse(r));
        } else {
            on_message(kind, from, r);
        }
    } catch (const CodecError&) {
    }
}

void LeaderReplica::on_request(NodeId from, Request req) {
    if (req.client != from) return;

    auto it = clients_.find(req.client);
    if (it != clients_.end() && req.request_id <= it->second.first) {
        if (req.request_id == it->second.first && !it->second.second.empty()) {
            send_to(req.client, it->second.second);
        }
        return;
    }
    if (!is_primary()) return;  // backups rely on the client retry/broadcast
    if (!crypto_->check_mac_from(req.client, req.signed_body(), req.mac)) return;

    // Request-scoped "batch" span: begins when the leader queues the
    // request and ends at the seal; the critical-path analyzer reports the
    // interval as the phase_batch wait.
    if (obs::TraceSink* tr = sim().trace()) {
        tr->span_begin(sim().now(), id(), "batch", obs::trace_id(req.serialize()));
    }
    batcher_.add(std::move(req));
    if (batcher_.should_seal_by_size()) {
        seal_batch();
    } else if (!timer_armed(batch_timer_)) {
        batch_timer_ = set_timer(batcher_.delay(), [this] {
            if (!batcher_.empty()) seal_batch();
        }, "batch_flush");
    }
}

void LeaderReplica::seal_batch() {
    std::vector<Request> batch = batcher_.seal();
    if (obs::TraceSink* tr = sim().trace()) {
        tr->batch(sim().now(), id(), "seal_batch", batch.size());
        for (const Request& req : batch) {
            tr->span_end(sim().now(), id(), "batch", obs::trace_id(req.serialize()));
        }
    }
    crypto_->meter().charge(crypto_->root().costs().batch_seal_ns);
    order_batch(std::move(batch));
}

void LeaderReplica::execute_batch(const std::vector<Request>& batch) {
    for (const Request& req : batch) {
        auto it = clients_.find(req.client);
        if (it != clients_.end() && req.request_id <= it->second.first) continue;

        charge(sim::kPerBatchedRequestNs);
        // Client authenticator (MAC-vector entry) verification: PBFT-
        // lineage protocols verify one entry per request per replica.
        crypto_->meter().macs++;
        crypto_->meter().charge(crypto_->root().costs().mac_ns);
        Bytes result = app_->execute(req.op);
        charge(app_->execute_cost_ns(req.op));
        app_->commit_prefix(++requests_executed_);
        probe_.on_execute(*this, req);

        sim::Packet wire = make_reply(req, std::move(result));
        clients_[req.client] = {req.request_id, wire};
        send_to(req.client, std::move(wire));
    }
}

sim::Packet LeaderReplica::make_reply(const Request& req, Bytes result) {
    Reply reply;
    reply.view = view_;
    reply.replica = id();
    reply.request_id = req.request_id;
    reply.result = std::move(result);
    reply.mac = crypto_->mac_for(req.client, reply.signed_body());
    return sim::Packet(reply.serialize());
}

std::uint64_t LeaderReplica::due_checkpoint() const {
    const std::uint64_t interval = cfg_.checkpoint_interval;
    if (interval == 0) return 0;
    const std::uint64_t target = last_executed_ / interval * interval;
    return target > stable_checkpoint_ ? target : 0;
}

void LeaderReplica::register_metrics(obs::Registry& reg, const std::string& prefix) {
    reg.add_collector([this, prefix](obs::Registry& r) {
        publish_metrics(r, prefix);
        r.set_value(prefix + ".requests_executed", static_cast<double>(requests_executed_));
        r.set_value(prefix + ".checkpoints", static_cast<double>(checkpoints_));
        r.set_value(prefix + ".executed_seq", static_cast<double>(last_executed_));
    });
    register_rx_metrics(reg, prefix, &kind_name);
}

// ---------------- Clients ----------------

sim::Packet mac_request(crypto::NodeCrypto& crypto, NodeId client, NodeId primary,
                        std::uint64_t request_id, Bytes op) {
    Request req;
    req.client = client;
    req.request_id = request_id;
    req.op = std::move(op);
    req.mac = crypto.mac_for(primary, req.signed_body());
    return req.serialize();
}

QuorumClient::QuorumClient(BaseConfig cfg, std::unique_ptr<crypto::NodeCrypto> crypto)
    : ClientCore(std::move(crypto), kClientRetryTimeout), cfg_(std::move(cfg)) {}

sim::Packet QuorumClient::make_request(std::uint64_t request_id, Bytes op) {
    return mac_request(*crypto_, id(), cfg_.primary(0), request_id, std::move(op));
}

void QuorumClient::handle(NodeId from, BytesView data) {
    if (data.empty() || data[0] != static_cast<std::uint8_t>(Kind::kReply)) return;
    try {
        Reader r(data.subspan(1));
        Reply reply = Reply::parse(r);
        if (!awaiting(reply.request_id)) return;
        if (reply.replica != from || !cfg_.is_replica(from)) return;
        if (!crypto_->check_mac_from(from, reply.signed_body(), reply.mac)) return;

        const Vote& vote = tally(from, reply.result, reply.result);
        if (vote.senders.size() >= static_cast<std::size_t>(cfg_.f + 1)) {
            complete(vote.result, from);
        }
    } catch (const CodecError&) {
    }
}

// ---------------- Unreplicated ----------------

UnreplicatedServer::UnreplicatedServer(std::unique_ptr<crypto::NodeCrypto> crypto)
    : crypto_(std::move(crypto)) {
    set_meter(&crypto_->meter());
}

void UnreplicatedServer::handle(NodeId from, BytesView data) {
    if (data.empty() || data[0] != static_cast<std::uint8_t>(Kind::kUnrepRequest)) return;
    try {
        Reader r(data.subspan(1));
        UnrepRequest req = UnrepRequest::parse(r);
        if (!crypto_->check_mac_from(from, req.op, req.mac)) return;
        ++handled_;
        probe_.on_execute_wire(*this, data);

        UnrepReply reply;
        reply.request_id = req.request_id;
        reply.mac = crypto_->mac_for(from, req.op);
        reply.result = std::move(req.op);  // echo
        send_to(from, reply.serialize());
    } catch (const CodecError&) {
    }
}

UnreplicatedClient::UnreplicatedClient(NodeId server, std::unique_ptr<crypto::NodeCrypto> crypto)
    : ClientCore(std::move(crypto), kClientRetryTimeout), server_(server) {}

sim::Packet UnreplicatedClient::make_request(std::uint64_t request_id, Bytes op) {
    UnrepRequest req;
    req.request_id = request_id;
    req.mac = crypto_->mac_for(server_, op);
    req.op = std::move(op);
    return req.serialize();
}

void UnreplicatedClient::handle(NodeId from, BytesView data) {
    if (from != server_ || data.empty() ||
        data[0] != static_cast<std::uint8_t>(Kind::kUnrepReply)) {
        return;
    }
    try {
        Reader r(data.subspan(1));
        UnrepReply reply = UnrepReply::parse(r);
        if (!awaiting(reply.request_id)) return;
        if (!crypto_->check_mac_from(from, reply.result, reply.mac)) return;
        complete(std::move(reply.result), from);
    } catch (const CodecError&) {
    }
}

}  // namespace neo::baselines
