// HotStuff (Yin et al., PODC '19), basic (non-chained) variant: leader-based
// three-phase BFT with linear authenticator complexity. Each phase collects
// a quorum certificate of 2f+1 votes; the decide broadcast releases
// execution. Batching amortises the phases, at the cost of the extra
// message delays the paper's Fig 7 latency numbers show.
//
// Quorum certificates are signature vectors (the paper's SBFT/HotStuff
// deployments use threshold signatures; a vector has the same
// message-pattern and per-signer costs, see DESIGN.md §6).
#pragma once

#include "baselines/common.hpp"

namespace neo::baselines {

struct HotStuffConfig : BaseConfig {
    /// Checkpoint cadence (sequence numbers): crossing a boundary advances
    /// the stable floor, GCs instances below it and rejects stale
    /// proposals/votes (which would otherwise recreate erased instances).
    /// 0 disables.
    std::uint64_t checkpoint_interval = 128;
};

class HotStuffReplica : public sim::ProcessingNode {
  public:
    HotStuffReplica(HotStuffConfig cfg, std::unique_ptr<crypto::NodeCrypto> crypto);

    /// Replicated application (defaults to app::EchoApp).
    void set_app(std::unique_ptr<app::StateMachine> app) { app_ = std::move(app); }

    struct Stats {
        std::uint64_t batches_decided = 0;
        std::uint64_t requests_executed = 0;
        std::uint64_t checkpoints = 0;
    };
    const Stats& stats() const { return stats_; }
    /// Publishes protocol counters (and per-kind rx counts) under `prefix`
    /// at every registry dump.
    void register_metrics(obs::Registry& reg, const std::string& prefix);
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
    // Phases: 0 = prepare, 1 = pre-commit, 2 = commit, 3 = decide.
    struct Instance {
        std::vector<Request> batch;
        Digest32 digest{};
        int phase = 0;                     // highest phase we voted in
        std::map<NodeId, Bytes> votes[3];  // leader: votes per phase
        bool qc_sent[3] = {false, false, false};
        bool decided = false;
        bool executed = false;
    };

    bool is_leader() const { return cfg_.primary(view_) == id(); }
    void on_request(NodeId from, Reader& r);
    void seal_batch();
    void on_proposal(NodeId from, Reader& r);
    void on_vote(NodeId from, Reader& r);
    void send_vote(std::uint64_t seq, int phase, const Digest32& digest);
    void leader_try_advance(std::uint64_t seq);
    void try_execute();
    void maybe_checkpoint();

    Bytes vote_body(int phase, std::uint64_t seq, const Digest32& digest, NodeId replica) const;
    Bytes proposal_body(int phase, std::uint64_t seq, const Digest32& digest) const;
    bool verify_qc(int phase, std::uint64_t seq, const Digest32& digest,
                   const std::vector<SignerSig>& qc);

    HotStuffConfig cfg_;
    std::unique_ptr<crypto::NodeCrypto> crypto_;
    std::unique_ptr<app::StateMachine> app_ = std::make_unique<app::EchoApp>();
    std::uint64_t view_ = 0;
    std::uint64_t next_seq_ = 1;
    std::uint64_t last_executed_ = 0;
    std::map<std::uint64_t, Instance> instances_;
    std::uint64_t stable_checkpoint_ = 0;
    Batcher batcher_;
    bool batch_timer_armed_ = false;
    std::map<NodeId, std::pair<std::uint64_t, sim::Packet>> clients_;
    Stats stats_;
    ExecProbe probe_;
};

}  // namespace neo::baselines
