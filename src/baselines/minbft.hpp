// MinBFT (Veronese et al., IEEE TC '13): BFT with 2f+1 replicas using the
// USIG (Unique Sequential Identifier Generator) trusted component.
//
// The USIG lives in trusted hardware (the paper's evaluation runs it in
// Intel SGX). Here the trust boundary is structural: the Usig class holds
// the attestation key; replica logic can only call create()/verify(), and
// the monotonic counter cannot be rolled back. Every call costs an
// enclave-transition worth of virtual time — the dominant cost that keeps
// MinBFT's throughput 4.1x below NeoBFT's in Fig 7.
#pragma once

#include "baselines/common.hpp"
#include "crypto/hmac_sha256.hpp"

namespace neo::baselines {

/// Trusted monotonic counter + attestation (TPM/SGX stand-in).
class Usig {
  public:
    struct UI {
        std::uint64_t counter = 0;
        Bytes tag;  // HMAC over (owner, counter, message digest)

        template <class IO, class M>
        static void fields(IO& io, M& m) {
            io(m.counter);
            io.blob(m.tag, kMaxMac);
        }
    };

    /// All USIGs of a deployment share `seed` (models the attestation keys
    /// provisioned into the trusted hardware at setup).
    Usig(std::uint64_t seed, NodeId owner) : owner_(owner) {
        Writer w(16);
        w.str("usig-master");
        w.u64(seed);
        Digest32 d = crypto::hmac_sha256(to_bytes("minbft"), w.bytes());
        master_.assign(d.begin(), d.end());
    }

    /// Assigns the next identifier to `digest`. Monotonic and gap-free.
    UI create(const Digest32& digest) {
        UI ui;
        ui.counter = ++counter_;
        ui.tag = tag_for(owner_, ui.counter, digest);
        return ui;
    }

    /// Verifies another replica's identifier (runs inside the trusted
    /// component, which knows the shared attestation secret).
    bool verify(NodeId claimed_owner, const Digest32& digest, const UI& ui) const {
        return ct_equal(tag_for(claimed_owner, ui.counter, digest), ui.tag);
    }

    std::uint64_t counter() const { return counter_; }
    /// The owning replica learns its node id when attached to the network.
    void set_owner(NodeId owner) { owner_ = owner; }

  private:
    Bytes tag_for(NodeId owner, std::uint64_t counter, const Digest32& digest) const {
        Writer w(56);
        w.u32(owner);
        w.u64(counter);
        w.raw(BytesView(digest.data(), digest.size()));
        Digest32 t = crypto::hmac_sha256(master_, w.bytes());
        return Bytes(t.begin(), t.end());
    }

    NodeId owner_;
    Bytes master_;
    std::uint64_t counter_ = 0;
};

/// Primary -> backups: the batch with the USIG identifier the primary's
/// trusted counter assigned to (view, seq, batch digest).
struct MbPrepare : wire::Message<MbPrepare> {
    static constexpr Kind kKind = Kind::kMbPrepare;
    std::uint64_t view = 0;
    std::uint64_t seq = 0;
    std::vector<Request> batch;
    Usig::UI ui;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.view, m.seq);
        io.framed(m.batch, kMaxBatch);
        io(m.ui);
    }
};

/// Every replica's commit, certified by its own USIG over the batch digest.
struct MbCommit : wire::Message<MbCommit> {
    static constexpr Kind kKind = Kind::kMbCommit;
    std::uint64_t view = 0;
    std::uint64_t seq = 0;
    Digest32 digest{};
    NodeId replica = 0;
    Usig::UI ui;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.view, m.seq, m.digest, m.replica, m.ui);
    }
};

/// Virtual cost of one USIG call: an enclave transition plus the
/// in-enclave HMAC, tens of microseconds on SGX-class hardware.
constexpr sim::Time kUsigCallNs = 18'000;

class MinbftReplica : public LeaderReplica {
  public:
    /// MinBFT tolerates f faults with 2f+1 replicas.
    MinbftReplica(BaseConfig cfg, std::unique_ptr<crypto::NodeCrypto> crypto,
                  std::uint64_t usig_seed);

    std::uint64_t batches_committed() const { return batches_committed_; }
    std::uint64_t usig_calls() const { return usig_calls_; }

  protected:
    void on_message(Kind kind, NodeId from, Reader& r) override;
    void order_batch(std::vector<Request> batch) override;
    void publish_metrics(obs::Registry& r, const std::string& prefix) const override;

  private:
    struct Slot {
        std::vector<Request> batch;
        Digest32 digest{};
        bool have_prepare = false;
        std::set<NodeId> commits;
        bool commit_sent = false;
        bool executed = false;
    };

    void on_prepare(NodeId from, MbPrepare m);
    void on_commit(NodeId from, const MbCommit& m);
    /// Creates this replica's commit for `seq` and sends it to the others.
    void send_commit(std::uint64_t seq, const Digest32& digest);
    void try_execute();
    void maybe_checkpoint();
    Usig::UI metered_create(const Digest32& digest);
    bool metered_verify(NodeId owner, const Digest32& digest, const Usig::UI& ui);
    Digest32 prepare_digest(std::uint64_t view, std::uint64_t seq, const Digest32& batch_d) const;

    Usig usig_;
    std::map<std::uint64_t, Slot> slots_;  // keyed by batch sequence
    std::map<NodeId, std::uint64_t> peer_counters_;  // sequentiality enforcement
    std::uint64_t batches_committed_ = 0;
    std::uint64_t usig_calls_ = 0;
};

}  // namespace neo::baselines
