// NeoBFT replica (§5).
//
// Normal operation (§5.3): aom delivers ordering certificates; the replica
// appends, speculatively executes, and replies — no cross-replica messages.
// Drop-notifications trigger the gap agreement (§5.4); faulty leaders and
// sequencers trigger view changes with epoch certificates (§5.5, §B.1);
// periodic state sync finalises speculative execution (§B.2).
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "aom/receiver.hpp"
#include "apps/merkle.hpp"
#include "apps/state_machine.hpp"
#include "neobft/log.hpp"
#include "sim/processing_node.hpp"

namespace neo::obs {
class Auditor;
}

namespace neo::neobft {

class Replica : public sim::ProcessingNode {
  public:
    enum class Status {
        kNormal,
        kViewChange,      // collecting/waiting for VIEW-START
        kEpochWait,       // VIEW-START done; waiting for epoch cert + new sequencer
        kStateTransfer,   // fetching a committed prefix before entering a view
    };

    struct Stats {
        std::uint64_t requests_executed = 0;
        std::uint64_t replies_sent = 0;
        std::uint64_t rollbacks = 0;
        std::uint64_t gap_agreements_started = 0;
        std::uint64_t gap_noops_committed = 0;
        std::uint64_t queries_sent = 0;
        std::uint64_t view_changes_started = 0;
        std::uint64_t views_entered = 0;
        std::uint64_t syncs_completed = 0;
        std::uint64_t checkpoints_taken = 0;   // eager snapshots at boundaries
        std::uint64_t checkpoints_stable = 0;  // certified + log prefix GC'd
        std::uint64_t ckpt_installs = 0;       // snapshots restored (own or fetched)
        std::uint64_t crashes = 0;
        std::uint64_t recoveries = 0;
    };

    Replica(Config cfg, std::unique_ptr<crypto::NodeCrypto> crypto, const aom::AomKeyService* keys,
            std::unique_ptr<app::StateMachine> app,
            aom::ReceiverOptions recv_opts = {});

    /// Call after the node is attached to the network: builds the aom
    /// receiver and starts epoch 1 on `sequencer`.
    void bootstrap(aom::GroupConfig group, NodeId sequencer);

    const Stats& stats() const { return stats_; }
    const Log& log() const { return log_; }
    Status status() const { return status_; }
    ViewId view() const { return view_; }
    std::uint64_t sync_point() const { return sync_point_; }
    crypto::NodeCrypto& node_crypto() { return *crypto_; }
    aom::AomReceiver& receiver() { return *receiver_; }
    app::StateMachine& app() { return *app_; }

    /// Byzantine fault injection: an equivocating replica reports corrupted
    /// execution digests to the auditor and appends a poison byte to every
    /// client reply result. Honest 2f+1 quorums still commit (liveness
    /// holds); the auditor flags the divergent digests.
    void set_equivocate(bool b) { equivocate_ = b; }

    /// Crash-recover lifecycle (scenario engine; call from at_global
    /// events only — these mutate network node-down state). crash() takes
    /// the node down and wipes all volatile state; durable state survives:
    /// crypto keys, view/epoch bookkeeping, and the latest stable
    /// checkpoint. recover() brings the node back up, restores from the
    /// stable checkpoint (or genesis), resumes the aom stream mid-epoch and
    /// catches up via checkpoint + state transfer.
    void crash();
    void recover();
    bool crashed() const { return crashed_; }
    bool recovering() const { return recovering_; }
    /// Slot of the latest stable (certified, GC'd) checkpoint; 0 = none.
    std::uint64_t stable_checkpoint_slot() const {
        return stable_ckpt_.has_value() ? stable_ckpt_->slot : 0;
    }

    /// Online safety monitor (nullptr disables reporting). The replica
    /// reports every executed slot, aom delivery, view decision and
    /// cross-shard transaction phase (via the application's txn observer);
    /// the deployment finalizes the auditor after the run.
    void set_auditor(obs::Auditor* a);

    /// Publishes protocol counters (Stats, receiver stats, per-kind rx
    /// counts) under `prefix` at every registry dump.
    void register_metrics(obs::Registry& reg, const std::string& prefix);

  protected:
    void handle(NodeId from, BytesView data) override;

  private:
    // ---- normal operation ----
    void on_delivery(aom::Delivery d);
    void process_delivery(aom::Delivery& d);
    std::uint64_t slot_for(EpochNum epoch, SeqNum seq) const;
    void append_request(aom::OrderingCert oc);
    void execute_slot(std::uint64_t slot, const std::optional<Request>& req);
    void send_reply(std::uint64_t slot, Bytes result);
    void drain_backlog();

    // ---- client unicast fallback ----
    void on_request_unicast(NodeId from, Reader& r);

    // ---- gap agreement (§5.4) ----
    /// This replica's own votes sit in the maps beside its peers': the
    /// leader's drop in `drops` once it sent GAP-FIND, and our prepare and
    /// commit once sent.
    struct GapRound {
        std::map<NodeId, GapDrop> drops;
        std::optional<GapDecision> decision;  // validated
        std::map<NodeId, GapPrepare> prepares;
        std::map<NodeId, GapCommit> commits;
        bool resolved = false;
        bool applied = false;         // outcome written into the log
        bool outcome_recv = false;
        std::optional<aom::OrderingCert> outcome_oc;
        GapCertificate outcome_cert;
        bool sent_gap_drop = false;   // we answered GAP-FIND with a drop -> block on decision
        bool find_received = false;   // leader asked before we reached the slot
        TimerId retry_timer = 0;      // retransmission of gap-round messages
    };

    void on_drop_notification(std::uint64_t slot);
    GapDrop signed_drop(std::uint64_t slot);
    GapFind signed_find(std::uint64_t slot);
    void start_query(std::uint64_t slot);
    void on_query(NodeId from, Reader& r);
    void on_query_reply(NodeId from, Reader& r);
    void on_gap_cert_reply(NodeId from, Reader& r);
    void leader_start_gap_agreement(std::uint64_t slot);
    void on_gap_find(NodeId from, Reader& r);
    void on_gap_recv(NodeId from, Reader& r);
    void on_gap_drop(NodeId from, Reader& r);
    void leader_try_decide(std::uint64_t slot);
    void broadcast_decision(std::uint64_t slot, GapDecision decision);
    void on_gap_decision(NodeId from, Reader& r);
    void on_gap_prepare(NodeId from, Reader& r);
    void on_gap_commit(NodeId from, Reader& r);
    void try_gap_progress(std::uint64_t slot);
    void arm_gap_retry(std::uint64_t slot);
    void finalize_gap(std::uint64_t slot, bool recv, const std::optional<aom::OrderingCert>& oc,
                      GapCertificate cert);
    void apply_gap_outcomes();
    bool validate_decision(const GapDecision& d);
    void fill_slot_with_oc(std::uint64_t slot, const aom::OrderingCert& oc);
    void commit_noop(std::uint64_t slot, GapCertificate cert);
    void unblock(std::uint64_t slot);
    bool verify_oc_for_slot(const aom::OrderingCert& oc, std::uint64_t slot);

    // ---- log rewrites ----
    void append_noop(GapCertificate cert);
    void append_entry(const WireLogEntry& w);
    bool valid_entry(const WireLogEntry& w, std::uint64_t slot);
    void undo_from(std::uint64_t slot);
    void rewind_to(std::uint64_t slot);
    void rollback_to_noop(GapCertificate cert);

    // ---- state sync (§B.2) ----
    void maybe_start_sync();
    void on_sync(NodeId from, Reader& r);
    void try_complete_sync(std::uint64_t slot);

    // ---- checkpointing + crash recovery ----
    struct Checkpoint {
        std::uint64_t slot = 0;
        std::uint64_t applied_ops = 0;  // applied app ops in slots 1..slot
        Bytes payload;                  // serialized checkpoint image
        std::unique_ptr<app::MerkleTree> tree;  // over payload; root = app_hash
        Digest32 log_hash{};
        SyncCertificate cert;           // empty until stable
    };
    std::uint64_t audit_digest(const LogEntry& e) const;
    void audit_frontier(std::uint64_t slot);
    void maybe_take_checkpoint(std::uint64_t slot);
    Bytes build_checkpoint_payload(std::uint64_t slot, std::uint64_t applied_ops) const;
    void install_checkpoint(std::uint64_t slot, const Digest32& log_hash,
                            const SyncCertificate& cert, const Bytes& payload,
                            bool adopt_as_stable);
    void send_ckpt_meta(NodeId to);
    void on_ckpt_req(NodeId from, Reader& r);
    void on_ckpt_meta(NodeId from, Reader& r);
    void on_ckpt_chunk_req(NodeId from, Reader& r);
    void on_ckpt_chunk(NodeId from, Reader& r);
    void continue_recovery();
    void finish_recovery();

    // ---- view change (§5.5, §B.1) ----
    void arm_progress_timer();
    void on_progress_timeout();
    void suspect(ViewId next_view);
    void broadcast_view_change();
    void on_view_change(NodeId from, Reader& r);
    void on_view_start(NodeId from, Reader& r);
    void on_epoch_start(NodeId from, Reader& r);
    ViewChange make_view_change() const;
    bool validate_view_change_msg(const ViewChange& vc);
    void leader_try_start_view();
    void adopt_view_start(const ViewStart& vs);
    void apply_merged_log(const std::vector<ViewChange>& msgs, bool epoch_change);
    void enter_view(ViewId v);
    void begin_epoch_wait();
    void maybe_enter_epoch();

    // ---- state transfer ----
    void on_state_req(NodeId from, Reader& r);
    void on_state_reply(NodeId from, Reader& r);
    void request_state(NodeId target, std::uint64_t from_slot, std::uint64_t to_slot);

    Config cfg_;
    std::unique_ptr<crypto::NodeCrypto> crypto_;
    const aom::AomKeyService* keys_;
    std::unique_ptr<app::StateMachine> app_;
    aom::ReceiverOptions recv_opts_;
    std::unique_ptr<aom::AomReceiver> receiver_;
    aom::GroupConfig group_;

    Status status_ = Status::kNormal;
    ViewId view_{1, 0};
    Log log_;
    Stats stats_;
    obs::Auditor* auditor_ = nullptr;
    /// True while re-executing slots already reported once (rollback, view
    /// merge, state transfer): auditor records carry replay=true so the
    /// frontier checks exempt them.
    bool audit_replay_ = false;

    /// First slot of each epoch we have started.
    std::map<EpochNum, std::uint64_t> epoch_start_slot_;
    /// Certificates for epochs we started via the view-change path.
    std::map<EpochNum, EpochCertificate> epoch_certs_;

    /// Execution frontier: slots (1..executed_) have been applied.
    std::uint64_t executed_ = 0;
    /// Committed prefix (sync protocol).
    std::uint64_t sync_point_ = 0;
    std::uint64_t committed_ops_ = 0;       // applied ops at slots <= committed_ops_slot_
    std::uint64_t committed_ops_slot_ = 0;
    SyncCertificate sync_cert_;
    std::uint64_t last_sync_broadcast_slot_ = 0;
    std::map<std::uint64_t, std::map<NodeId, SyncMsg>> pending_syncs_;  // slot -> msgs

    /// Gap certificates for no-ops committed in the current view (shipped
    /// with sync messages).
    std::vector<GapCertificate> view_noop_certs_;

    /// Gap agreement state per slot.
    std::map<std::uint64_t, GapRound> gaps_;
    /// Lowest unresolved slot we are blocked on (nullopt = not blocked).
    std::optional<std::uint64_t> blocked_slot_;
    sim::Time blocked_since_ = 0;
    /// Deliveries queued behind the blocked slot.
    std::deque<aom::Delivery> backlog_;
    /// Queries from other replicas we could not answer yet.
    std::map<std::uint64_t, std::set<NodeId>> pending_queries_;

    /// Client table: last executed request + cached reply per client.
    struct ClientRecord {
        std::uint64_t last_request_id = 0;
        sim::Packet cached_reply;  // serialized Reply (shared buffer on re-sends)
        /// Raw result bytes of the last reply. Checkpointed (cached_reply
        /// carries a per-replica MAC and cannot be transferred); a restored
        /// replica keeps at-most-once semantics but leaves duplicate
        /// re-sends to peers that still hold the MAC'd reply.
        Bytes last_result;
    };
    std::map<NodeId, ClientRecord> clients_;
    /// Requests seen by unicast but not yet via aom (sequencer suspicion).
    struct PendingClientRequest {
        std::uint64_t request_id;
        sim::Time first_seen;
    };
    std::map<NodeId, PendingClientRequest> pending_client_requests_;

    // View change state.
    ViewId target_view_{1, 0};  // highest view we voted for
    std::map<ViewId, std::map<NodeId, ViewChange>> view_changes_;
    std::optional<ViewStart> pending_view_start_;  // waiting on state transfer
    TimerId vc_rebroadcast_timer_ = 0;
    TimerId progress_timer_ = 0;

    // Epoch-wait state.
    std::map<EpochNum, std::map<NodeId, EpochStart>> epoch_starts_;
    std::optional<EpochNum> waiting_epoch_;
    std::uint64_t epoch_wait_slot_ = 0;

    // Leader probe (failure detector backing the view-change join rule).
    void on_ping(NodeId from, Reader& r);
    void on_pong(NodeId from, Reader& r);
    void probe_leader(ViewId join_view);
    std::optional<ViewId> probe_join_view_;
    std::uint64_t probe_nonce_ = 0;

    // State transfer.
    bool state_transfer_active_ = false;

    // Checkpointing.
    std::optional<Checkpoint> pending_ckpt_;  // taken at a boundary, awaiting cert
    std::optional<Checkpoint> stable_ckpt_;   // certified; log prefix GC'd (durable)
    /// In-flight checkpoint fetch (Merkle-verified chunk pulls).
    struct CkptFetch {
        std::uint64_t slot = 0;
        SyncCertificate cert;
        std::uint32_t n_chunks = 0;
        std::vector<Bytes> chunks;
        std::vector<bool> have;
        std::uint32_t n_have = 0;
        NodeId source = kInvalidNode;
    };
    std::optional<CkptFetch> ckpt_fetch_;

    // Crash-recover lifecycle.
    bool crashed_ = false;
    bool recovering_ = false;
    bool equivocate_ = false;
    Bytes genesis_snapshot_;          // app snapshot at construction
    NodeId sequencer_ = kInvalidNode; // last sequencer handed to the receiver
    std::uint64_t recovery_last_size_ = 0;
    int recovery_idle_polls_ = 0;
    std::uint64_t recovery_poll_round_ = 0;
};

}  // namespace neo::neobft
