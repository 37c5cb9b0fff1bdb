// Closed-loop client core shared by every protocol's client (NeoBFT, the
// baselines and the unreplicated echo): one outstanding request at a time,
// a retry timer that re-sends it until it completes, the client's
// "request" and "quorum" spans, and a tally of matching replies.
//
// A protocol client derives from it and supplies three hooks: how a request
// is authenticated and serialized (make_request), how it is first sent
// (send_request) and how it is re-sent (resend). Its reply handler checks
// each reply, tallies it under a protocol-computed match key and calls
// complete() once enough distinct senders agree.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "crypto/identity.hpp"
#include "sim/processing_node.hpp"

namespace neo::sim {

class ClientCore : public ProcessingNode {
  public:
    using Callback = std::function<void(Bytes result)>;

    /// Issues one operation; `cb` fires with the accepted result. One
    /// outstanding operation at a time (closed loop).
    void invoke(Bytes op, Callback cb);

    /// Drops the outstanding operation without running its callback: ends
    /// its spans, cancels its timers and frees the slot. Late replies for
    /// it are ignored.
    void abandon();

    bool busy() const { return out_.has_value(); }
    /// Retry-timer expiries so far.
    std::uint64_t retries() const { return retries_; }
    crypto::NodeCrypto& node_crypto() { return *crypto_; }

  protected:
    /// The replies tallied under one match key.
    struct Vote {
        Bytes key;
        Bytes result;  // as carried by the first reply counted
        std::vector<NodeId> senders;
    };

    ClientCore(std::unique_ptr<crypto::NodeCrypto> crypto, Time retry_timeout);

    /// Signs or MACs request `request_id` carrying `op` and returns its
    /// wire image. Request ids count from 1.
    virtual Packet make_request(std::uint64_t request_id, Bytes op) = 0;
    /// The first transmission of a request.
    virtual void send_request(const Packet& wire) = 0;
    /// Each retransmission, when the retry timer fires.
    virtual void resend(const Packet& wire) = 0;

    /// True while request `request_id` is outstanding.
    bool awaiting(std::uint64_t request_id) const {
        return out_.has_value() && out_->request_id == request_id;
    }

    /// Counts `from` once under `key` and returns that key's vote. The
    /// first reply counted opens the "quorum" span. The reference is valid
    /// until the next tally or the request's end.
    const Vote& tally(NodeId from, Bytes key, Bytes result);
    /// The vote with the most senders; nullptr before any reply.
    const Vote* leading() const;

    /// A timer owned by the outstanding request: complete() and abandon()
    /// cancel it.
    void arm(Time delay, std::function<void()> fn, const char* label);

    /// Accepts `result`: ends the spans, cancels the request's timers,
    /// frees the slot and runs the callback. `peer` is the sender whose
    /// reply completed the request; the critical-path analyzer reads phase
    /// boundaries off its spans.
    void complete(Bytes result, NodeId peer);

    std::unique_ptr<crypto::NodeCrypto> crypto_;

  private:
    struct Outstanding {
        std::uint64_t request_id = 0;
        Packet wire;  // shared by every (re)transmission
        Callback cb;
        std::uint64_t trace_id = 0;  // obs::trace_id(wire); 0 = untraced
        bool quorum_open = false;
        std::vector<Vote> votes;  // at most one per distinct match key
        std::vector<TimerId> timers;  // armed through arm()
        TimerId retry = 0;
    };

    void arm_retry();
    /// Ends the spans, cancels the timers and frees the slot.
    void close(std::uint64_t peer);

    Time retry_timeout_;
    std::uint64_t next_request_id_ = 1;
    std::optional<Outstanding> out_;
    std::uint64_t retries_ = 0;
};

}  // namespace neo::sim
