#include "neobft/client.hpp"

namespace neo::neobft {

Client::Client(Config cfg, std::unique_ptr<crypto::NodeCrypto> crypto,
               const aom::SequencerDirectory* directory, Options opts)
    : ClientCore(std::move(crypto), opts.retry_timeout), cfg_(std::move(cfg)),
      sender_(cfg_.group, crypto_.get(), directory) {}

sim::Packet Client::make_request(std::uint64_t request_id, Bytes op) {
    Request req;
    req.client = id();
    req.request_id = request_id;
    req.op = std::move(op);
    req.signature = crypto_->sign(req.signed_body());
    return req.serialize();
}

void Client::send_request(const sim::Packet& wire) {
    send_to(sender_.route(), sender_.make_packet(wire.view()));
}

void Client::resend(const sim::Packet& wire) {
    for (NodeId r : cfg_.replicas) send_to(r, wire);
    send_request(wire);
}

void Client::handle(NodeId from, BytesView data) {
    auto kind = aom::peek_kind(data);
    if (!kind || *kind != static_cast<std::uint8_t>(MsgKind::kReply)) return;
    try {
        Reader r(data.subspan(1));
        Reply reply = Reply::parse(r);
        if (!awaiting(reply.request_id)) return;
        if (reply.replica != from || !cfg_.is_replica(from)) return;
        if (!crypto_->check_mac_from(from, reply.signed_body(), reply.mac)) return;

        // Group matching replies by (view, slot, log hash, result).
        Writer key(80 + reply.result.size());
        key.u64(reply.view.epoch);
        key.u64(reply.view.leader);
        key.u64(reply.slot);
        key.raw(BytesView(reply.log_hash.data(), reply.log_hash.size()));
        key.blob(reply.result);
        const Vote& vote = tally(from, std::move(key).take(), std::move(reply.result));
        if (vote.senders.size() >= cfg_.quorum()) complete(vote.result, from);
    } catch (const CodecError&) {
    }
}

}  // namespace neo::neobft
