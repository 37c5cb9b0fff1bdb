// Zyzzyva (Kotla et al., SOSP '07): speculative BFT.
//
// Fast path (3 message delays): the primary orders requests, replicas
// execute speculatively and respond directly to the client, who commits on
// 3f+1 matching speculative responses. Slow path: with only 2f+1 matching
// responses the client assembles a commit certificate, broadcasts it, and
// waits for 2f+1 local-commits. A single non-responsive replica therefore
// pushes every request onto the slow path — the Zyzzyva-F configuration of
// Fig 7.
#pragma once

#include "baselines/common.hpp"

namespace neo::baselines {

/// The primary's ordering of a batch into its history chain; the signature
/// covers (view, seq, history, digest), the batch travels unsigned.
struct OrderReq : wire::Message<OrderReq> {
    static constexpr Kind kKind = Kind::kOrderReq;
    static constexpr std::string_view kTag = "zyzzyva-order";
    std::uint64_t view = 0;
    std::uint64_t seq = 0;
    Digest32 history{};
    Digest32 digest{};
    std::vector<Request> batch;
    Bytes signature;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.view, m.seq, m.history, m.digest);
        if (io.on_wire()) io.framed(m.batch, kMaxBatch);
        io.auth(m.signature, kMaxSignature);
    }
};

/// Replica -> client: the speculative result, MAC'd to the client.
struct SpecResponse : wire::Message<SpecResponse> {
    static constexpr Kind kKind = Kind::kSpecResponse;
    static constexpr std::string_view kTag = "zyzzyva-spec";
    std::uint64_t view = 0;
    std::uint64_t seq = 0;
    Digest32 history{};
    NodeId replica = 0;
    std::uint64_t request_id = 0;
    Bytes result;
    Bytes mac;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.view, m.seq, m.history);
        if (io.on_wire()) io(m.replica);
        io(m.request_id);
        io.blob(m.result, Reader::kDefaultMaxBlob);
        io.auth(m.mac, kMaxMac);
    }
};

/// Client -> replicas: (view, seq, history) has 2f+1 matching speculative
/// responses; replicas that executed it acknowledge with LocalCommit.
struct CommitCert : wire::Message<CommitCert> {
    static constexpr Kind kKind = Kind::kCommitCert;
    std::uint64_t view = 0;
    std::uint64_t seq = 0;
    Digest32 history{};
    std::uint64_t request_id = 0;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.view, m.seq, m.history, m.request_id);
    }
};

struct LocalCommit : wire::Message<LocalCommit> {
    static constexpr Kind kKind = Kind::kLocalCommit;
    static constexpr std::string_view kTag = "zyzzyva-local-commit";
    std::uint64_t view = 0;
    std::uint64_t seq = 0;
    NodeId replica = 0;
    std::uint64_t request_id = 0;
    Bytes mac;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.view, m.seq);
        if (io.on_wire()) io(m.replica);
        io(m.request_id);
        io.auth(m.mac, kMaxMac);
    }
};

class ZyzzyvaReplica : public LeaderReplica {
  public:
    ZyzzyvaReplica(BaseConfig cfg, std::unique_ptr<crypto::NodeCrypto> crypto);

    std::uint64_t batches_ordered() const { return batches_ordered_; }
    std::uint64_t local_commits() const { return local_commits_; }

    /// Zyzzyva-F: the replica stops responding (but the protocol's safety
    /// must be unaffected).
    void set_silent(bool silent) { silent_ = silent; }

  protected:
    void handle(NodeId from, BytesView data) override;
    void on_message(Kind kind, NodeId from, Reader& r) override;
    void order_batch(std::vector<Request> batch) override;
    /// The speculative response: (view, seq, history) lets the client
    /// detect divergence; MAC-authenticated to the client.
    sim::Packet make_reply(const Request& req, Bytes result) override;
    void publish_metrics(obs::Registry& r, const std::string& prefix) const override;

  private:
    void on_order_req(NodeId from, OrderReq m);
    void execute_ordered(std::uint64_t seq, std::vector<Request> batch);
    void on_commit_cert(NodeId from, const CommitCert& m);
    void maybe_checkpoint();

    Digest32 history_{};  // hash chain over ordered batches
    bool silent_ = false;

    std::map<std::uint64_t, std::pair<Digest32, std::vector<Request>>> pending_;  // ooo batches
    std::map<std::uint64_t, Digest32> history_at_;  // seq -> history hash after seq
    std::uint64_t batches_ordered_ = 0;
    std::uint64_t local_commits_ = 0;
};

/// Zyzzyva's client: commits on 3f+1 matching speculative responses. Once
/// the fast-path timeout has passed, the first 2f+1 matching ones get a
/// commit certificate, and 2f+1 local commits commit the request.
class ZyzzyvaClient : public sim::ClientCore {
  public:
    /// How long to wait for 3f+1 matching speculative responses before
    /// falling back to the commit-certificate slow path.
    static constexpr sim::Time kFastPathTimeout = 400 * sim::kMicrosecond;

    ZyzzyvaClient(BaseConfig cfg, std::unique_ptr<crypto::NodeCrypto> crypto);

    std::uint64_t fast_commits() const { return fast_commits_; }
    std::uint64_t slow_commits() const { return slow_commits_; }

  protected:
    sim::Packet make_request(std::uint64_t request_id, Bytes op) override;
    /// To the primary, and arms the fast-path timer.
    void send_request(const sim::Packet& wire) override;
    void resend(const sim::Packet& wire) override { broadcast(cfg_.replicas, wire); }
    void handle(NodeId from, BytesView data) override;

  private:
    /// The outstanding request's slow path; reset when a request starts.
    struct SlowPath {
        std::uint64_t request_id = 0;
        bool timed_out = false;          // the fast-path timer fired
        std::optional<Bytes> result;     // set once the certificate is sent
        std::set<NodeId> local_commits;
    };

    void on_spec_response(NodeId from, SpecResponse m);
    void on_local_commit(NodeId from, const LocalCommit& m);
    /// Sends the commit certificate for `vote` if it has 2f+1 senders and
    /// none was sent yet.
    void maybe_certify(const Vote& vote);

    BaseConfig cfg_;
    SlowPath slow_;
    std::uint64_t fast_commits_ = 0;
    std::uint64_t slow_commits_ = 0;
};

}  // namespace neo::baselines
