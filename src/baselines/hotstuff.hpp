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

/// Leader -> replicas. Phase 0 (prepare) carries the batch, phases 1..3
/// the previous phase's quorum certificate; the signature covers (phase,
/// view, seq, digest).
struct HsProposal : wire::Message<HsProposal> {
    static constexpr Kind kKind = Kind::kHsProposal;
    static constexpr std::string_view kTag = "hotstuff-proposal";
    std::uint8_t phase = 0;
    std::uint64_t view = 0;
    std::uint64_t seq = 0;
    Digest32 digest{};
    std::vector<Request> batch;         // phase 0
    std::vector<crypto::SignerSig> qc;  // phases 1..3
    Bytes signature;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.phase, m.view, m.seq, m.digest);
        if (io.on_wire()) {
            if (m.phase == 0) io.framed(m.batch, kMaxBatch);
            io.list(m.qc, crypto::kMaxQuorum);
        }
        io.auth(m.signature, kMaxSignature);
    }
};

/// Replica -> leader; 2f+1 vote signatures form the phase's certificate.
struct HsVote : wire::Message<HsVote> {
    static constexpr Kind kKind = Kind::kHsVote;
    static constexpr std::string_view kTag = "hotstuff-vote";
    std::uint8_t phase = 0;
    std::uint64_t view = 0;
    std::uint64_t seq = 0;
    Digest32 digest{};
    NodeId replica = 0;
    Bytes signature;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.phase, m.view, m.seq, m.digest, m.replica);
        io.auth(m.signature, kMaxSignature);
    }
};

class HotStuffReplica : public LeaderReplica {
  public:
    HotStuffReplica(BaseConfig cfg, std::unique_ptr<crypto::NodeCrypto> crypto);

    std::uint64_t batches_decided() const { return batches_decided_; }

  protected:
    void on_message(Kind kind, NodeId from, Reader& r) override;
    void order_batch(std::vector<Request> batch) override;
    void publish_metrics(obs::Registry& r, const std::string& prefix) const override;

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

    void on_proposal(NodeId from, HsProposal m);
    void on_vote(NodeId from, HsVote m);
    void propose(int phase, std::uint64_t seq, const Digest32& digest, std::vector<Request> batch,
                 std::vector<crypto::SignerSig> qc);
    void send_vote(std::uint64_t seq, int phase, const Digest32& digest);
    void leader_try_advance(std::uint64_t seq);
    void try_execute();
    void maybe_checkpoint();

    /// `replica`'s unsigned vote in `phase` for (view_, seq, digest).
    HsVote vote(int phase, std::uint64_t seq, const Digest32& digest, NodeId replica) const;
    bool verify_qc(int phase, std::uint64_t seq, const Digest32& digest,
                   const std::vector<crypto::SignerSig>& qc);

    std::map<std::uint64_t, Instance> instances_;
    std::uint64_t batches_decided_ = 0;
};

}  // namespace neo::baselines
