// PBFT (Castro & Liskov, OSDI '99): three-phase leader-based BFT with
// 3f+1 replicas. Five message delays; O(N) bottleneck messages; O(N²)
// authenticators (all-to-all prepare/commit).
//
// Per the paper's evaluation framework: batched, signed replica-to-replica
// messages, MAC-authenticated client traffic, periodic checkpoints.
#pragma once

#include "baselines/common.hpp"

namespace neo::baselines {

struct PbftConfig : BaseConfig {
    std::uint64_t checkpoint_interval = 128;  // in sequence numbers
};

class PbftReplica : public sim::ProcessingNode {
  public:
    PbftReplica(PbftConfig cfg, std::unique_ptr<crypto::NodeCrypto> crypto);

    struct Stats {
        std::uint64_t batches_committed = 0;
        std::uint64_t requests_executed = 0;
        std::uint64_t checkpoints = 0;
    };
    const Stats& stats() const { return stats_; }
    /// Publishes protocol counters (and per-kind rx counts) under `prefix`
    /// at every registry dump.
    void register_metrics(obs::Registry& reg, const std::string& prefix);

    /// Replicated application (defaults to app::EchoApp).
    void set_app(std::unique_ptr<app::StateMachine> app) { app_ = std::move(app); }
    std::uint64_t executed_seq() const { return last_executed_; }
    crypto::NodeCrypto& node_crypto() { return *crypto_; }
    /// Report executed requests to the deployment's safety Auditor.
    void set_auditor(obs::Auditor* a) { probe_.set_auditor(a); }
    /// Byzantine strategy hook: audited execution digests diverge from the
    /// honest replicas' (the auditor must flag divergent_commit).
    void set_equivocate(bool on) { probe_.set_equivocate(on); }
    std::uint64_t stable_checkpoint() const { return stable_checkpoint_; }

  protected:
    void handle(NodeId from, BytesView data) override;

  private:
    struct Slot {
        std::vector<Request> batch;
        Digest32 digest{};
        bool have_preprepare = false;
        std::set<NodeId> prepares;
        std::set<NodeId> commits;
        bool prepare_sent = false;
        bool commit_sent = false;
        bool executed = false;
    };

    bool is_primary() const { return cfg_.primary(view_) == id(); }
    void on_request(NodeId from, Reader& r);
    void seal_batch();
    void on_preprepare(NodeId from, Reader& r);
    void on_prepare(NodeId from, Reader& r);
    void on_commit(NodeId from, Reader& r);
    void on_checkpoint(NodeId from, Reader& r);
    void on_checkpoint_quorum(std::uint64_t seq);
    void try_progress(std::uint64_t seq);
    void try_execute();
    void execute_batch(Slot& slot);
    void maybe_checkpoint();

    Bytes preprepare_body(std::uint64_t seq, const Digest32& digest) const;
    Bytes phase_body(std::string_view tag, std::uint64_t seq, const Digest32& digest,
                     NodeId replica) const;

    PbftConfig cfg_;
    std::unique_ptr<crypto::NodeCrypto> crypto_;
    std::uint64_t view_ = 0;
    std::uint64_t next_seq_ = 1;       // primary's sequence counter
    std::uint64_t last_executed_ = 0;  // highest contiguously executed seq
    std::map<std::uint64_t, Slot> slots_;
    Batcher batcher_;
    bool batch_timer_armed_ = false;

    std::map<NodeId, std::pair<std::uint64_t, sim::Packet>> clients_;  // dedup + cached reply
    std::map<std::uint64_t, std::set<NodeId>> checkpoint_votes_;
    std::uint64_t stable_checkpoint_ = 0;
    Stats stats_;
    std::unique_ptr<app::StateMachine> app_ = std::make_unique<app::EchoApp>();
    ExecProbe probe_;
};

}  // namespace neo::baselines
