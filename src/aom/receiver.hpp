// Receiver-side aom library (libAOM in Fig 1).
//
// Embedded in a host node (a NeoBFT replica, or any application endpoint).
// Responsibilities:
//  - authenticate sequencer packets (own HMAC-vector entry, or the PK hash
//    chain with reverse-order batch verification);
//  - assemble full HMAC vectors from subgroup packets so certificates are
//    transferable;
//  - deliver messages in sequence-number order, emitting drop-notification
//    for gaps that persist past a timeout;
//  - in Byzantine-network deployments, exchange signed confirm batches and
//    deliver only on a 2f+1 matching quorum (§4.2).
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>

#include "aom/cert.hpp"
#include "aom/keys.hpp"
#include "aom/types.hpp"
#include "aom/wire.hpp"
#include "crypto/identity.hpp"
#include "sim/adaptive_batch.hpp"
#include "sim/processing_node.hpp"

namespace neo::aom {

struct ReceiverOptions {
    /// How long a sequence-number hole may persist before the library
    /// delivers a drop-notification for it. Conservative relative to
    /// processing backlogs: a premature drop-notification forces the
    /// protocol into its (expensive) gap agreement.
    sim::Time gap_timeout = 1 * sim::kMillisecond;
    /// Confirm batching (Byzantine network mode). The paper sustains high
    /// Neo-BN throughput "by batch processing confirm messages" (§6.2) at
    /// the expense of latency. These are the adaptive controller's bounds:
    /// the flush interval is the latency budget (max wait of the oldest
    /// queued confirm), the max is the threshold cap the controller may
    /// grow to under load (see sim::AdaptiveBatchController).
    sim::Time confirm_flush_interval = 50 * sim::kMicrosecond;
    std::size_t confirm_batch_max = 256;

    sim::AdaptiveBatchPolicy confirm_policy() const {
        return sim::AdaptiveBatchPolicy{1, confirm_batch_max, confirm_flush_interval};
    }
};

/// What the library hands up to the application.
struct Delivery {
    enum class Kind { kMessage, kDropNotification };
    Kind kind = Kind::kMessage;
    EpochNum epoch = 0;
    SeqNum seq = 0;
    Bytes payload;       // empty for drop-notification
    OrderingCert cert;   // valid for kMessage; includes confirms when the
                         // network model is Byzantine
};

class AomReceiver {
  public:
    using DeliverFn = std::function<void(Delivery)>;

    /// Runs on `node`, a member of `group`: confirms leave through its
    /// sends, timeouts run on its timers, and its id is the receiver's.
    AomReceiver(GroupConfig group, sim::ProcessingNode& node, crypto::NodeCrypto* crypto,
                const AomKeyService* keys, ReceiverOptions opts = {});

    void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

    /// Routes an aom-layer packet (kSeqHm / kSeqPk / kCheckpoint /
    /// kConfirm / kNewEpoch). Malformed packets are dropped.
    void on_packet(NodeId from, BytesView data);

    /// Begins delivering from `sequencer` in `epoch` (sequence numbers
    /// restart at 1). Called at bootstrap and after the application-level
    /// protocol finishes its epoch-change agreement (§4.2 failover).
    void start_epoch(EpochNum epoch, NodeId sequencer);

    /// Rejoins `epoch` mid-stream after a crash: all buffered state is
    /// discarded and the delivery frontier is adopted from the first
    /// deliverable packet (the log below it comes via state transfer).
    /// Sequence numbers already confirmed by the peers before the resume
    /// are unreachable live and must be fetched the same way.
    void resume_mid_epoch(EpochNum epoch, NodeId sequencer);

    EpochNum epoch() const { return epoch_; }

    /// Adaptive confirm-batching controller (instrumentation).
    const sim::AdaptiveBatchController& confirm_controller() const { return confirm_ctrl_; }
    NodeId sequencer() const { return sequencer_for_epoch(epoch_); }
    NodeId sequencer_for_epoch(EpochNum e) const;
    SeqNum next_seq() const { return next_seq_; }
    const GroupConfig& group() const { return group_; }

    /// Epoch -> sequencer mappings learned from kNewEpoch announcements but
    /// not yet activated by start_epoch (the protocol decides when).
    std::optional<NodeId> announced_sequencer(EpochNum e) const;

    /// Hook invoked when a kNewEpoch announcement arrives (the protocol's
    /// cue that the configuration service completed a failover).
    void set_on_new_epoch(std::function<void(EpochNum, NodeId)> fn) {
        on_new_epoch_ = std::move(fn);
    }

    /// Verification context for certificates relayed by other receivers
    /// (QUERY-REPLY / gap messages in NeoBFT).
    VerifyContext verify_context() const;

    // Instrumentation.
    std::uint64_t delivered_messages() const { return delivered_messages_; }
    std::uint64_t delivered_drops() const { return delivered_drops_; }
    std::uint64_t rejected_packets() const { return rejected_packets_; }

  private:
    struct Pending {
        Digest32 digest{};
        Bytes payload;
        sim::Time first_seen = -1;  // arrival of the first packet for this seq
        // HM: subgroup assembly.
        std::vector<std::uint32_t> macs;        // full-vector slots (0 = missing)
        std::uint32_t subgroups_seen = 0;       // bitmask
        std::uint8_t n_subgroups = 0;
        bool own_mac_ok = false;
        // PK: chain fields.
        Digest32 prev_chain{};
        Bytes signature;                        // possibly empty
        bool have_packet = false;
        // Authentication result.
        bool authenticated = false;
        std::vector<OrderingCert::ChainLink> cert_chain;  // filled at auth (PK)
        Bytes cert_signature;
        // Byzantine mode.
        bool confirm_sent = false;
        std::map<Digest32, std::set<NodeId>> confirms;
        std::map<NodeId, Bytes> confirm_sigs;   // node -> signature over entry
    };

    void handle_hm(const HmPacket& pkt);
    void handle_pk(const PkPacket& pkt);
    void handle_confirm(NodeId from, const ConfirmPacket& pkt);
    void pk_propagate_auth();
    void after_authenticated(SeqNum seq);
    void try_deliver();
    void queue_own_confirm(SeqNum seq, const Digest32& digest);
    void flush_confirms();
    void arm_gap_timer();
    void fire_gap_timer();
    bool deliverable(const Pending& p) const;
    OrderingCert build_cert(SeqNum seq, const Pending& p) const;
    /// The aom-hm key shared with `sequencer`. Held across packets and
    /// derived again only when the sequencer changes (§4.3 key exchange).
    const crypto::HalfSipKey& hm_key(NodeId sequencer);

    GroupConfig group_;
    sim::ProcessingNode& node_;
    crypto::NodeCrypto* crypto_;
    const AomKeyService* keys_;
    ReceiverOptions opts_;
    DeliverFn deliver_;
    std::function<void(EpochNum, NodeId)> on_new_epoch_;

    EpochNum epoch_ = 0;
    std::map<EpochNum, NodeId> epoch_sequencers_;   // activated epochs
    std::map<EpochNum, NodeId> announced_;          // learned, not yet active
    SeqNum next_seq_ = 1;

    std::map<SeqNum, Pending> pending_;
    std::map<SeqNum, Digest32> auth_chain_;      // seq -> authenticated C_seq (PK)
    std::map<SeqNum, Bytes> auth_chain_sigs_;    // seq -> signature over C_seq

    std::vector<ConfirmPacket::Entry> confirm_outbox_;
    sim::AdaptiveBatchController confirm_ctrl_;
    sim::ProcessingNode::TimerId confirm_timer_ = 0;

    sim::ProcessingNode::TimerId gap_timer_ = 0;
    SeqNum gap_timer_seq_ = 0;

    std::optional<NodeId> hm_key_switch_;  // whose key hm_key_ is
    crypto::HalfSipKey hm_key_;

    std::uint64_t delivered_messages_ = 0;
    std::uint64_t delivered_drops_ = 0;
    std::uint64_t rejected_packets_ = 0;
};

}  // namespace neo::aom
