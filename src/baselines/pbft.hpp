// PBFT (Castro & Liskov, OSDI '99): three-phase leader-based BFT with
// 3f+1 replicas. Five message delays; O(N) bottleneck messages; O(N²)
// authenticators (all-to-all prepare/commit).
//
// Per the paper's evaluation framework: batched, signed replica-to-replica
// messages, MAC-authenticated client traffic, periodic checkpoints.
#pragma once

#include "baselines/common.hpp"

namespace neo::baselines {

class PbftReplica : public LeaderReplica {
  public:
    PbftReplica(BaseConfig cfg, std::unique_ptr<crypto::NodeCrypto> crypto);

    std::uint64_t batches_committed() const { return batches_committed_; }

  protected:
    void on_message(Kind kind, NodeId from, Reader& r) override;
    void order_batch(std::vector<Request> batch) override;
    void publish_metrics(obs::Registry& r, const std::string& prefix) const override;

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

    void on_preprepare(NodeId from, Reader& r);
    void on_prepare(NodeId from, Reader& r);
    void on_commit(NodeId from, Reader& r);
    void on_checkpoint(NodeId from, Reader& r);
    void on_checkpoint_quorum(std::uint64_t seq);
    void try_progress(std::uint64_t seq);
    void try_execute();
    void maybe_checkpoint();

    Bytes preprepare_body(std::uint64_t seq, const Digest32& digest) const;
    Bytes phase_body(std::string_view tag, std::uint64_t seq, const Digest32& digest,
                     NodeId replica) const;

    std::map<std::uint64_t, Slot> slots_;
    std::map<std::uint64_t, std::set<NodeId>> checkpoint_votes_;
    std::uint64_t batches_committed_ = 0;
};

}  // namespace neo::baselines
