#include "sim/client_core.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "obs/trace.hpp"

namespace neo::sim {

ClientCore::ClientCore(std::unique_ptr<crypto::NodeCrypto> crypto, Time retry_timeout)
    : crypto_(std::move(crypto)), retry_timeout_(retry_timeout) {
    set_meter(&crypto_->meter());
}

void ClientCore::invoke(Bytes op, Callback cb) {
    NEO_ASSERT_MSG(!out_.has_value(), "one outstanding request per client");
    Outstanding& out = out_.emplace();
    out.request_id = next_request_id_++;
    out.wire = make_request(out.request_id, std::move(op));
    out.cb = std::move(cb);
    if (obs::TraceSink* tr = sim().trace()) {
        out.trace_id = obs::trace_id(out.wire.view());
        tr->span_begin(sim().now(), id(), "request", out.trace_id);
    }
    send_request(out.wire);
    arm_retry();
}

void ClientCore::arm_retry() {
    out_->retry = set_timer(retry_timeout_, [this] {
        NEO_ASSERT_MSG(out_.has_value(), "retry timer outlived its request");
        ++retries_;
        resend(out_->wire);
        arm_retry();
    }, "request_retry");
}

void ClientCore::abandon() {
    if (out_.has_value()) close(0);
}

const ClientCore::Vote& ClientCore::tally(NodeId from, Bytes key, Bytes result) {
    auto it = std::find_if(out_->votes.begin(), out_->votes.end(),
                           [&](const Vote& v) { return v.key == key; });
    if (it == out_->votes.end()) {
        it = out_->votes.insert(out_->votes.end(), Vote{std::move(key), std::move(result), {}});
    }
    if (std::find(it->senders.begin(), it->senders.end(), from) == it->senders.end()) {
        it->senders.push_back(from);
    }
    if (obs::TraceSink* tr = sim().trace(); tr != nullptr && !out_->quorum_open) {
        out_->quorum_open = true;
        tr->span_begin(sim().now(), id(), "quorum", out_->trace_id, from);
    }
    return *it;
}

const ClientCore::Vote* ClientCore::leading() const {
    const Vote* best = nullptr;
    for (const Vote& v : out_->votes) {
        if (best == nullptr || v.senders.size() > best->senders.size()) best = &v;
    }
    return best;
}

void ClientCore::arm(Time delay, std::function<void()> fn, const char* label) {
    out_->timers.push_back(set_timer(delay, std::move(fn), label));
}

void ClientCore::complete(Bytes result, NodeId peer) {
    Callback cb = std::move(out_->cb);
    close(peer);
    cb(std::move(result));
}

void ClientCore::close(std::uint64_t peer) {
    if (obs::TraceSink* tr = sim().trace()) {
        if (out_->quorum_open) tr->span_end(sim().now(), id(), "quorum", out_->trace_id, peer);
        tr->span_end(sim().now(), id(), "request", out_->trace_id, peer);
    }
    for (TimerId t : out_->timers) cancel_timer(t);
    cancel_timer(out_->retry);
    out_.reset();
}

}  // namespace neo::sim
