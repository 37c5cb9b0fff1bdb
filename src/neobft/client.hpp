// NeoBFT client library (§5.3): multicasts signed requests through aom,
// falls back to unicast on timeout, and accepts a result once 2f+1 replicas
// reply with matching view, slot, log hash and result.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>

#include "aom/sender.hpp"
#include "neobft/log.hpp"
#include "sim/processing_node.hpp"

namespace neo::neobft {

struct ClientOptions {
    sim::Time retry_timeout = 10 * sim::kMillisecond;
};

class Client : public sim::ProcessingNode {
  public:
    using Callback = std::function<void(Bytes result)>;
    using Options = ClientOptions;

    Client(Config cfg, std::unique_ptr<crypto::NodeCrypto> crypto,
           const aom::SequencerDirectory* directory, Options opts = {});

    /// Issues one operation; `cb` fires when 2f+1 matching replies arrive.
    /// One outstanding operation at a time (closed loop).
    void invoke(Bytes op, Callback cb);

    /// Abandons the outstanding operation without firing its callback:
    /// stops the retry timer and frees the in-flight slot. Late replies for
    /// the abandoned request id are ignored. Used by ShardClient to model a
    /// coordinator crash mid-2PC, and by the crash-recover lifecycle.
    void abandon();

    /// Schedules `fn` on this client's node after `delay` (a public wrapper
    /// over the protected ProcessingNode timer, for coordinators that own
    /// this client and share its simulator partition). Returns a timer id
    /// for cancel_after().
    TimerId run_after(sim::Time delay, std::function<void()> fn) {
        return set_timer(delay, std::move(fn), "client-run-after");
    }
    void cancel_after(TimerId id) { cancel_timer(id); }

    bool busy() const { return outstanding_.has_value(); }
    std::uint64_t retries() const { return retries_; }
    crypto::NodeCrypto& node_crypto() { return *crypto_; }

  protected:
    void handle(NodeId from, BytesView data) override;

  private:
    struct Outstanding {
        std::uint64_t request_id;
        sim::Packet request_wire;  // serialized signed Request (shared on resends)
        sim::Packet aom_packet;    // aom-wrapped copy
        std::uint64_t trace_id = 0;      // obs::trace_id(request_wire); 0 = untraced
        bool quorum_span_open = false;   // first matching reply seen
        Callback cb;
        // Match key -> replicas that voted for it.
        struct Vote {
            std::set<NodeId> replicas;
            Bytes result;
        };
        std::map<Bytes, Vote> votes;  // key = serialized (view, slot, hash, result digest)
        TimerId retry_timer = 0;
    };

    void send_request();
    void on_reply(NodeId from, Reader& r);

    Config cfg_;
    std::unique_ptr<crypto::NodeCrypto> crypto_;
    aom::AomSender sender_;
    Options opts_;
    std::uint64_t next_request_id_ = 1;
    std::optional<Outstanding> outstanding_;
    std::uint64_t retries_ = 0;
};

}  // namespace neo::neobft
