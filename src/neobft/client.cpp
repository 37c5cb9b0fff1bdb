#include "neobft/client.hpp"

#include "common/assert.hpp"
#include "sim/costs.hpp"

namespace neo::neobft {

Client::Client(Config cfg, std::unique_ptr<crypto::NodeCrypto> crypto,
               const aom::SequencerDirectory* directory, Options opts)
    : cfg_(std::move(cfg)), crypto_(std::move(crypto)),
      sender_(cfg_.group, crypto_.get(), directory), opts_(opts) {
    set_meter(&crypto_->meter());
    set_processing_config(sim::host_processing());
}

void Client::invoke(Bytes op, Callback cb) {
    NEO_ASSERT_MSG(!outstanding_.has_value(), "one outstanding request per client");

    Request req;
    req.client = id();
    req.request_id = next_request_id_++;
    req.op = std::move(op);
    req.signature = crypto_->sign(req.signed_body());

    Outstanding out;
    out.request_id = req.request_id;
    out.request_wire = sim::Packet(req.serialize());
    out.aom_packet = sim::Packet(sender_.make_packet(out.request_wire.view()));
    out.cb = std::move(cb);
    outstanding_ = std::move(out);

    if (obs::TraceSink* tr = sim().trace()) {
        tr->phase(sim().now(), id(), "request_invoke", outstanding_->request_id);
        outstanding_->trace_id = obs::trace_id(outstanding_->request_wire.view());
        tr->span_begin(sim().now(), id(), "request", outstanding_->trace_id);
    }
    send_request();
}

void Client::send_request() {
    NEO_ASSERT(outstanding_.has_value());
    send_to(sender_.route(), outstanding_->aom_packet);

    outstanding_->retry_timer = set_timer(opts_.retry_timeout, [this] {
        if (!outstanding_.has_value()) return;
        ++retries_;
        // §5.3: keep re-sending through aom and additionally unicast the
        // request to every replica so a faulty sequencer is detected.
        for (NodeId r : cfg_.replicas) send_to(r, outstanding_->request_wire);
        // Re-wrap: the route may have changed after a failover.
        outstanding_->aom_packet = sim::Packet(sender_.make_packet(outstanding_->request_wire.view()));
        send_request();
    }, "request_retry");
}

void Client::abandon() {
    if (!outstanding_.has_value()) return;
    if (obs::TraceSink* tr = sim().trace()) {
        tr->phase(sim().now(), id(), "request_abandon", outstanding_->request_id);
        if (outstanding_->quorum_span_open)
            tr->span_end(sim().now(), id(), "quorum", outstanding_->trace_id);
        tr->span_end(sim().now(), id(), "request", outstanding_->trace_id);
    }
    cancel_timer(outstanding_->retry_timer);
    outstanding_.reset();
}

void Client::handle(NodeId from, BytesView data) {
    auto kind = aom::peek_kind(data);
    if (!kind || *kind != static_cast<std::uint8_t>(MsgKind::kReply)) return;
    try {
        Reader r(data.subspan(1));
        on_reply(from, r);
    } catch (const CodecError&) {
    }
}

void Client::on_reply(NodeId from, Reader& r) {
    Reply reply = Reply::parse(r);
    if (!outstanding_.has_value()) return;
    if (reply.request_id != outstanding_->request_id) return;
    if (reply.replica != from || !cfg_.is_replica(from)) return;
    if (!crypto_->check_mac_from(from, reply.signed_body(), reply.mac)) return;

    // Group matching replies by (view, slot, log hash, result).
    Writer key(80 + reply.result.size());
    key.u64(reply.view.epoch);
    key.u64(reply.view.leader);
    key.u64(reply.slot);
    key.raw(BytesView(reply.log_hash.data(), reply.log_hash.size()));
    key.blob(reply.result);

    auto& vote = outstanding_->votes[key.bytes()];
    vote.replicas.insert(from);
    vote.result = reply.result;

    if (obs::TraceSink* tr = sim().trace();
        tr != nullptr && !outstanding_->quorum_span_open) {
        outstanding_->quorum_span_open = true;
        tr->span_begin(sim().now(), id(), "quorum", outstanding_->trace_id, from);
    }

    if (vote.replicas.size() >= cfg_.quorum()) {
        Bytes result = vote.result;
        Callback cb = std::move(outstanding_->cb);
        if (obs::TraceSink* tr = sim().trace()) {
            tr->phase(sim().now(), id(), "request_complete", outstanding_->request_id);
            // peer = the replica whose reply completed the quorum: the
            // critical-path analyzer reads phase boundaries off its spans.
            tr->span_end(sim().now(), id(), "quorum", outstanding_->trace_id, from);
            tr->span_end(sim().now(), id(), "request", outstanding_->trace_id, from);
        }
        cancel_timer(outstanding_->retry_timer);
        outstanding_.reset();
        cb(std::move(result));
    }
}

}  // namespace neo::neobft
