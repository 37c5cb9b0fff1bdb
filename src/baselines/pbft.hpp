// PBFT (Castro & Liskov, OSDI '99): three-phase leader-based BFT with
// 3f+1 replicas. Five message delays; O(N) bottleneck messages; O(N²)
// authenticators (all-to-all prepare/commit).
//
// Per the paper's evaluation framework: batched, signed replica-to-replica
// messages, MAC-authenticated client traffic, periodic checkpoints.
#pragma once

#include "baselines/common.hpp"

namespace neo::baselines {

/// The primary's ordering of a batch; the signature covers (view, seq,
/// digest), the batch travels unsigned and must hash to `digest`.
struct PrePrepare : wire::Message<PrePrepare> {
    static constexpr Kind kKind = Kind::kPrePrepare;
    static constexpr std::string_view kTag = "pbft-preprepare";
    std::uint64_t view = 0;
    std::uint64_t seq = 0;
    Digest32 digest{};
    std::vector<Request> batch;
    Bytes signature;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.view, m.seq, m.digest);
        if (io.on_wire()) io.framed(m.batch, kMaxBatch);
        io.auth(m.signature, kMaxSignature);
    }
};

/// A replica's signed PREPARE or COMMIT vote for (view, seq, digest).
template <Kind K>
struct PbftVote : wire::Message<PbftVote<K>> {
    static constexpr Kind kKind = K;
    static constexpr std::string_view kTag = K == Kind::kPrepare ? "pbft-prepare" : "pbft-commit";
    std::uint64_t view = 0;
    std::uint64_t seq = 0;
    Digest32 digest{};
    NodeId replica = 0;
    Bytes signature;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.view, m.seq, m.digest, m.replica);
        io.auth(m.signature, kMaxSignature);
    }
};
using Prepare = PbftVote<Kind::kPrepare>;
using Commit = PbftVote<Kind::kCommit>;

/// The signature covers the checkpoint's seq alone.
struct Checkpoint : wire::Message<Checkpoint> {
    static constexpr Kind kKind = Kind::kCheckpoint;
    static constexpr std::string_view kTag = "pbft-checkpoint";
    std::uint64_t seq = 0;
    NodeId replica = 0;
    Bytes signature;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.seq);
        if (io.on_wire()) io(m.replica);
        io.auth(m.signature, kMaxSignature);
    }
};

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

    void on_preprepare(NodeId from, PrePrepare m);
    /// A PREPARE or COMMIT vote.
    template <class Vote>
    void on_vote(NodeId from, const Vote& m);
    void on_checkpoint(NodeId from, const Checkpoint& m);
    void on_checkpoint_quorum(std::uint64_t seq);
    void try_progress(std::uint64_t seq);
    void try_execute();
    void maybe_checkpoint();
    /// This replica's signed vote for `seq`.
    template <class Vote>
    Bytes vote(std::uint64_t seq, const Digest32& digest);

    std::map<std::uint64_t, Slot> slots_;
    std::map<std::uint64_t, std::set<NodeId>> checkpoint_votes_;
    std::uint64_t batches_committed_ = 0;
};

}  // namespace neo::baselines
