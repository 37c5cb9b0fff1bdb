// Shared infrastructure for the four comparison protocols (PBFT, Zyzzyva,
// HotStuff, MinBFT): request/reply field lists, batching, the
// leader-replica core every protocol's replica derives from, a generic
// leader-directed client, and the unreplicated echo server baseline.
//
// All protocols follow the paper's evaluation methodology (§6): the same
// framework, request batching "following the batching techniques proposed
// in their original work", MAC-authenticated client requests/replies, and
// signed replica-to-replica protocol messages. LeaderReplica is that
// framework: it takes, batches, executes and answers client requests, and
// each protocol adds only its agreement phases behind its hooks.
//
// Scope note (see DESIGN.md §6): baseline view-change protocols are not
// exercised by any figure in the paper (only NeoBFT's leader/sequencer is
// ever killed), so the baselines implement their normal-case protocols
// faithfully (message pattern, quorums, authenticator counts) plus
// checkpointing where it affects steady-state cost.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string_view>
#include <vector>

#include "apps/state_machine.hpp"
#include "common/codec.hpp"
#include "common/types.hpp"
#include "crypto/identity.hpp"
#include "sim/adaptive_batch.hpp"
#include "sim/client_core.hpp"
#include "sim/costs.hpp"

namespace neo::obs {
class Auditor;
class Registry;
}

namespace neo::baselines {

enum class Kind : std::uint8_t {
    kRequest = 0x40,
    kReply = 0x41,
    // PBFT
    kPrePrepare = 0x42,
    kPrepare = 0x43,
    kCommit = 0x44,
    kCheckpoint = 0x45,
    // Zyzzyva
    kOrderReq = 0x48,
    kSpecResponse = 0x49,
    kCommitCert = 0x4a,
    kLocalCommit = 0x4b,
    // HotStuff
    kHsProposal = 0x50,
    kHsVote = 0x51,
    // MinBFT
    kMbPrepare = 0x58,
    kMbCommit = 0x59,
    // Unreplicated
    kUnrepRequest = 0x5e,
    kUnrepReply = 0x5f,
};

/// Stable name for a baseline wire kind; nullptr for unknown bytes.
/// Suitable as a metrics key fragment.
const char* kind_name(std::uint8_t kind);

struct BaseConfig {
    std::vector<NodeId> replicas;
    int f = 1;
    /// Adaptive-batching bounds: `batch_max` caps the seal threshold the
    /// controller may grow to, `batch_delay` is the latency budget the
    /// oldest queued request can wait before a forced flush. The threshold
    /// itself tracks load (see sim::AdaptiveBatchController).
    std::size_t batch_max = 16;
    sim::Time batch_delay = 100 * sim::kMicrosecond;
    /// Checkpoint cadence in sequence numbers: crossing a boundary makes it
    /// the stable checkpoint, below which the protocol drops its state and
    /// rejects stale messages. 0 disables checkpoints.
    std::uint64_t checkpoint_interval = 128;

    sim::AdaptiveBatchPolicy batch_policy() const {
        return sim::AdaptiveBatchPolicy{1, batch_max, batch_delay};
    }

    int n() const { return static_cast<int>(replicas.size()); }
    bool is_replica(NodeId node) const {
        for (NodeId r : replicas) {
            if (r == node) return true;
        }
        return false;
    }
    NodeId primary(std::uint64_t view) const {
        return replicas[static_cast<std::size_t>(view % replicas.size())];
    }
    std::vector<NodeId> others(NodeId self) const {
        std::vector<NodeId> out;
        for (NodeId r : replicas) {
            if (r != self) out.push_back(r);
        }
        return out;
    }
};

// ---------------- Request / Reply ----------------

/// Decoding caps.
constexpr std::size_t kMaxOp = 1u << 20;
constexpr std::size_t kMaxBatch = 4'096;
constexpr std::size_t kMaxSignature = 256;
constexpr std::size_t kMaxMac = 64;

struct Request : wire::Message<Request> {
    static constexpr Kind kKind = Kind::kRequest;
    static constexpr std::string_view kTag = "bft-request";
    NodeId client = 0;
    std::uint64_t request_id = 0;
    Bytes op;
    Bytes mac;  // pairwise MAC to the primary (verified and re-MACed on forward)

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.client, m.request_id);
        io.blob(m.op, kMaxOp);
        io.auth(m.mac, kMaxMac);
    }
    /// Digest identifying the request inside batches.
    Digest32 digest() const;
};

struct Reply : wire::Message<Reply> {
    static constexpr Kind kKind = Kind::kReply;
    static constexpr std::string_view kTag = "bft-reply";
    std::uint64_t view = 0;
    NodeId replica = 0;
    std::uint64_t request_id = 0;
    Bytes result;
    Bytes mac;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.view, m.replica, m.request_id);
        io.blob(m.result, kMaxOp);
        io.auth(m.mac, kMaxMac);
    }
};

/// Request batches travel as `io.framed(batch, kMaxBatch)`: a u32 count,
/// then each request's encoding, length-prefixed.
Digest32 batch_digest(const std::vector<Request>& batch);

// ---------------- Batcher ----------------

/// Accumulates client requests at the leader; seals a batch when the
/// adaptive threshold is reached or the latency budget elapsed since the
/// first one. The threshold grows with queue depth and decays when the
/// timer flushes underfull batches (sim::AdaptiveBatchController), so low
/// load pays no batching latency and saturation amortises per-batch
/// protocol cost over up to `policy.max_batch` requests.
class Batcher {
  public:
    using SealFn = std::function<void(std::vector<Request>)>;

    explicit Batcher(sim::AdaptiveBatchPolicy policy) : ctrl_(policy) {}

    void add(Request req) { pending_.push_back(std::move(req)); }
    bool should_seal_by_size() const { return pending_.size() >= ctrl_.target(); }
    bool empty() const { return pending_.empty(); }
    std::size_t size() const { return pending_.size(); }
    sim::Time delay() const { return ctrl_.flush_delay(); }
    const sim::AdaptiveBatchController& controller() const { return ctrl_; }

    /// Seals the pending batch and feeds the controller. A queue at or
    /// above the threshold counts as a size seal even when the flush timer
    /// won the race to call this.
    std::vector<Request> seal() {
        ctrl_.on_seal(pending_.size(), pending_.size() >= ctrl_.target());
        std::vector<Request> out = std::move(pending_);
        pending_.clear();
        return out;
    }

  private:
    sim::AdaptiveBatchController ctrl_;
    std::vector<Request> pending_;
};

// ---------------- Execution probe ----------------

/// Shared execute-side instrumentation for the baseline replicas: assigns a
/// per-node execution index (the audited "slot"), reports each executed
/// request to the deployment's safety Auditor, and emits a request-scoped
/// "execute" span keyed by obs::trace_id over the request's canonical wire
/// bytes (the same id the client derives, so spans correlate end to end).
///
/// All baselines execute requests in commit order, so the execution index is
/// directly comparable across replicas: index k must carry the same request
/// digest everywhere, or the run diverged.
class ExecProbe {
  public:
    void set_auditor(obs::Auditor* a) { auditor_ = a; }

    /// Byzantine strategy hook (scenario engine): report a poisoned digest
    /// for every executed request so the audited execution stream diverges
    /// from the honest replicas'. Request-scoped spans keep the honest id —
    /// only the safety claim lies.
    void set_equivocate(bool on) { equivocate_ = on; }

    /// Call from inside the executing node's event, once per applied
    /// request. Zero-duration execute spans still carry the phase cut the
    /// critical-path analyzer keys on.
    void on_execute(sim::ProcessingNode& node, const Request& req);
    /// Variant for servers that never parse a Request (unreplicated echo):
    /// `wire` is the request's full wire image, kind byte included.
    void on_execute_wire(sim::ProcessingNode& node, BytesView wire);

  private:
    obs::Auditor* auditor_ = nullptr;
    std::uint64_t next_slot_ = 0;
    bool equivocate_ = false;
};

// ---------------- Leader-replica core ----------------

/// The part of a leader-based replica that every baseline shares: client
/// intake with an at-most-once client table, the leader's batcher and its
/// flush timer, execution with its CPU and MAC charges, the client reply,
/// the checkpoint boundary rule and the shared metrics. A protocol derives
/// from it and supplies its agreement phases through the hooks.
class LeaderReplica : public sim::ProcessingNode {
  public:
    /// Replicated application (defaults to app::EchoApp).
    void set_app(std::unique_ptr<app::StateMachine> app) { app_ = std::move(app); }
    crypto::NodeCrypto& node_crypto() { return *crypto_; }
    /// Report executed requests to the deployment's safety Auditor.
    void set_auditor(obs::Auditor* a) { probe_.set_auditor(a); }
    /// Byzantine strategy hook: audited execution digests diverge from the
    /// honest replicas' (the auditor must flag divergent_commit).
    void set_equivocate(bool on) { probe_.set_equivocate(on); }

    std::uint64_t requests_executed() const { return requests_executed_; }
    std::uint64_t checkpoints() const { return checkpoints_; }
    /// Highest contiguously executed sequence number.
    std::uint64_t executed_seq() const { return last_executed_; }

    /// Publishes the shared counters, the protocol's own (publish_metrics)
    /// and per-kind rx counts under `prefix` at every registry dump.
    void register_metrics(obs::Registry& reg, const std::string& prefix);

  protected:
    LeaderReplica(BaseConfig cfg, std::unique_ptr<crypto::NodeCrypto> crypto);

    /// Drops empty packets and malformed ones (CodecError), takes client
    /// requests and passes every other kind to on_message.
    void handle(NodeId from, BytesView data) override;

    /// A protocol message; `r` is positioned after the kind byte. The
    /// protocol parses it into its message struct and handles that.
    virtual void on_message(Kind kind, NodeId from, Reader& r) = 0;
    /// Orders a batch the leader has just sealed.
    virtual void order_batch(std::vector<Request> batch) = 0;
    /// The answer to one executed request, which the client table caches
    /// for retransmissions. Defaults to the MAC'd Reply.
    virtual sim::Packet make_reply(const Request& req, Bytes result);
    /// Publishes the protocol's own counters under `prefix`.
    virtual void publish_metrics(obs::Registry& r, const std::string& prefix) const = 0;

    bool is_primary() const { return cfg_.primary(view_) == id(); }

    /// Executes a committed batch in order, skipping requests the client
    /// table already answered, and replies to each client.
    void execute_batch(const std::vector<Request>& batch);

    /// The checkpoint boundary at or below last_executed_ when it is above
    /// the stable checkpoint; 0 when no checkpoint is due or checkpoints
    /// are off.
    std::uint64_t due_checkpoint() const;

    BaseConfig cfg_;
    std::unique_ptr<crypto::NodeCrypto> crypto_;
    std::uint64_t view_ = 0;
    std::uint64_t next_seq_ = 1;       // leader's sequence counter
    std::uint64_t last_executed_ = 0;  // highest contiguously executed seq
    std::uint64_t stable_checkpoint_ = 0;
    std::uint64_t checkpoints_ = 0;

  private:
    void on_request(NodeId from, Request req);
    void seal_batch();

    std::unique_ptr<app::StateMachine> app_ = std::make_unique<app::EchoApp>();
    ExecProbe probe_;
    Batcher batcher_;
    TimerId batch_timer_ = 0;
    /// Per client: the last executed request id and its cached answer.
    std::map<NodeId, std::pair<std::uint64_t, sim::Packet>> clients_;
    std::uint64_t requests_executed_ = 0;
};

// ---------------- Clients ----------------

/// How long a baseline client waits before re-sending its request to every
/// replica.
constexpr sim::Time kClientRetryTimeout = 20 * sim::kMillisecond;

/// The wire image of `client`'s request `request_id`, MAC'd to `primary`.
sim::Packet mac_request(crypto::NodeCrypto& crypto, NodeId client, NodeId primary,
                        std::uint64_t request_id, Bytes op);

/// Closed-loop client for the leader-directed protocols (PBFT, HotStuff,
/// MinBFT): sends the MAC'd request to the primary, broadcasts it on every
/// retry, and accepts the result once f+1 distinct replicas return it.
class QuorumClient : public sim::ClientCore {
  public:
    QuorumClient(BaseConfig cfg, std::unique_ptr<crypto::NodeCrypto> crypto);

  protected:
    sim::Packet make_request(std::uint64_t request_id, Bytes op) override;
    void send_request(const sim::Packet& wire) override { send_to(cfg_.primary(0), wire); }
    void resend(const sim::Packet& wire) override { broadcast(cfg_.replicas, wire); }
    void handle(NodeId from, BytesView data) override;

  private:
    BaseConfig cfg_;
};

// ---------------- Unreplicated baseline ----------------

/// Client -> server. The MACs cover the op and the echoed result alone.
struct UnrepRequest : wire::Message<UnrepRequest> {
    static constexpr Kind kKind = Kind::kUnrepRequest;
    std::uint64_t request_id = 0;
    Bytes op;
    Bytes mac;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.request_id);
        io.blob(m.op, Reader::kDefaultMaxBlob);
        io.auth(m.mac, kMaxMac);
    }
};

struct UnrepReply : wire::Message<UnrepReply> {
    static constexpr Kind kKind = Kind::kUnrepReply;
    std::uint64_t request_id = 0;
    Bytes result;
    Bytes mac;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.request_id);
        io.blob(m.result, Reader::kDefaultMaxBlob);
        io.auth(m.mac, kMaxMac);
    }
};

/// Plain echo-RPC server: the "Unreplicated" line in Fig 7.
class UnreplicatedServer : public sim::ProcessingNode {
  public:
    explicit UnreplicatedServer(std::unique_ptr<crypto::NodeCrypto> crypto);
    std::uint64_t handled() const { return handled_; }

  protected:
    void handle(NodeId from, BytesView data) override;

  public:
    void set_auditor(obs::Auditor* a) { probe_.set_auditor(a); }

  private:
    std::unique_ptr<crypto::NodeCrypto> crypto_;
    std::uint64_t handled_ = 0;
    ExecProbe probe_;
};

/// Accepts the server's one MAC'd reply; re-sends to the server on retry.
class UnreplicatedClient : public sim::ClientCore {
  public:
    UnreplicatedClient(NodeId server, std::unique_ptr<crypto::NodeCrypto> crypto);

  protected:
    sim::Packet make_request(std::uint64_t request_id, Bytes op) override;
    void send_request(const sim::Packet& wire) override { send_to(server_, wire); }
    void resend(const sim::Packet& wire) override { send_to(server_, wire); }
    void handle(NodeId from, BytesView data) override;

  private:
    NodeId server_;
};

}  // namespace neo::baselines
