// NeoBFT client library (§5.3): multicasts signed requests through aom,
// falls back to unicast on timeout, and accepts a result once 2f+1 replicas
// reply with matching view, slot, log hash and result.
#pragma once

#include "aom/sender.hpp"
#include "neobft/log.hpp"
#include "sim/client_core.hpp"

namespace neo::neobft {

struct ClientOptions {
    sim::Time retry_timeout = 10 * sim::kMillisecond;
};

/// One outstanding operation at a time (closed loop); abandon() drops it,
/// which ShardClient uses to model a coordinator crash mid-2PC.
class Client : public sim::ClientCore {
  public:
    using Options = ClientOptions;

    Client(Config cfg, std::unique_ptr<crypto::NodeCrypto> crypto,
           const aom::SequencerDirectory* directory, Options opts = {});

  protected:
    sim::Packet make_request(std::uint64_t request_id, Bytes op) override;
    /// Through aom to the group's current sequencer.
    void send_request(const sim::Packet& wire) override;
    /// §5.3: unicast to every replica, so a faulty sequencer is detected,
    /// and again through aom, re-wrapped since the route may have changed
    /// after a failover.
    void resend(const sim::Packet& wire) override;
    void handle(NodeId from, BytesView data) override;

  private:
    Config cfg_;
    aom::AomSender sender_;
};

}  // namespace neo::neobft
