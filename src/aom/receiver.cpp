#include "aom/receiver.hpp"

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "obs/trace.hpp"

namespace neo::aom {

AomReceiver::AomReceiver(GroupConfig group, sim::ProcessingNode& node,
                         crypto::NodeCrypto* crypto, const AomKeyService* keys,
                         ReceiverOptions opts)
    : group_(std::move(group)), node_(node), crypto_(crypto), keys_(keys), opts_(opts),
      confirm_ctrl_(opts.confirm_policy()) {
    NEO_ASSERT_MSG(group_.receiver_index(node_.id()) >= 0, "receiver must be a group member");
}

NodeId AomReceiver::sequencer_for_epoch(EpochNum e) const {
    auto it = epoch_sequencers_.find(e);
    return it != epoch_sequencers_.end() ? it->second : kInvalidNode;
}

std::optional<NodeId> AomReceiver::announced_sequencer(EpochNum e) const {
    auto it = announced_.find(e);
    if (it == announced_.end()) return std::nullopt;
    return it->second;
}

void AomReceiver::start_epoch(EpochNum epoch, NodeId sequencer) {
    NEO_ASSERT_MSG(epoch >= epoch_, "epochs only move forward");
    epoch_ = epoch;
    epoch_sequencers_[epoch] = sequencer;
    next_seq_ = 1;
    pending_.clear();
    auth_chain_.clear();
    auth_chain_sigs_.clear();
    confirm_outbox_.clear();
    if (node_.timer_armed(gap_timer_)) node_.cancel_timer(gap_timer_);
}

void AomReceiver::resume_mid_epoch(EpochNum epoch, NodeId sequencer) {
    NEO_ASSERT_MSG(epoch >= epoch_, "epochs only move forward");
    epoch_ = epoch;
    if (sequencer != kInvalidNode) epoch_sequencers_[epoch] = sequencer;
    next_seq_ = 0;  // adopt-first sentinel (resolved in try_deliver)
    pending_.clear();
    auth_chain_.clear();
    auth_chain_sigs_.clear();
    confirm_outbox_.clear();
}

VerifyContext AomReceiver::verify_context() const {
    VerifyContext ctx;
    ctx.cfg = &group_;
    ctx.self = node_.id();
    ctx.crypto = crypto_;
    ctx.keys = keys_;
    ctx.sequencer_for_epoch = [this](EpochNum e) {
        NodeId s = sequencer_for_epoch(e);
        if (s != kInvalidNode) return s;
        auto it = announced_.find(e);
        return it != announced_.end() ? it->second : kInvalidNode;
    };
    return ctx;
}

void AomReceiver::on_packet(NodeId from, BytesView data) {
    auto kind = peek_kind(data);
    if (!kind) return;
    try {
        Reader r(data.subspan(1));
        switch (static_cast<Wire>(*kind)) {
            case Wire::kSeqHm:
                handle_hm(HmPacket::parse(r));
                break;
            case Wire::kSeqPk:
            case Wire::kCheckpoint:
                handle_pk(PkPacket::parse(r));
                break;
            case Wire::kConfirm:
                handle_confirm(from, ConfirmPacket::parse(r));
                break;
            case Wire::kNewEpoch: {
                NewEpochAnnouncement ann = NewEpochAnnouncement::parse(r);
                if (ann.group != group_.group) return;
                announced_[ann.epoch] = ann.sequencer;
                if (on_new_epoch_) on_new_epoch_(ann.epoch, ann.sequencer);
                break;
            }
            default:
                break;
        }
    } catch (const CodecError&) {
        ++rejected_packets_;
    }
}

// ---------- HM variant ----------

const crypto::HalfSipKey& AomReceiver::hm_key(NodeId sequencer) {
    if (hm_key_switch_ != sequencer) {
        hm_key_ = keys_->hm_key(sequencer, node_.id());
        hm_key_switch_ = sequencer;
    }
    return hm_key_;
}

void AomReceiver::handle_hm(const HmPacket& pkt) {
    if (pkt.group != group_.group || pkt.epoch != epoch_) return;
    if (pkt.seq < next_seq_) return;  // already resolved

    int receivers = static_cast<int>(group_.receivers.size());
    int expect_subgroups = hm_subgroup_count(receivers);
    if (pkt.n_subgroups != expect_subgroups) {
        ++rejected_packets_;
        return;
    }
    int base_slot = static_cast<int>(pkt.subgroup) * kHmSubgroupSize;
    int expect_macs = std::min(receivers - base_slot, kHmSubgroupSize);
    if (static_cast<int>(pkt.macs.size()) != expect_macs) {
        ++rejected_packets_;
        return;
    }

    // The sequencer authenticates the digest, not the payload bytes; check
    // the binding before trusting the payload (end-to-end integrity).
    if (crypto_->hash(pkt.payload) != pkt.digest) {
        ++rejected_packets_;
        return;
    }

    int my_slot = group_.receiver_index(node_.id());

    // If this subgroup packet covers our slot, verify our MAC entry before
    // trusting anything in it.
    if (my_slot >= base_slot && my_slot < base_slot + expect_macs) {
        const crypto::HalfSipKey& key = hm_key(sequencer_for_epoch(pkt.epoch));
        Bytes input = auth_input(pkt.group, pkt.epoch, pkt.seq, pkt.digest);
        crypto_->meter().macs++;
        crypto_->meter().charge(crypto_->root().costs().mac_ns);
        std::uint32_t expect = crypto::halfsiphash24(key, input);
        if (pkt.macs[static_cast<std::size_t>(my_slot - base_slot)] != expect) {
            ++rejected_packets_;
            return;
        }
    }

    Pending& p = pending_[pkt.seq];
    if (p.have_packet && p.digest != pkt.digest) {
        // Conflicting content for the same sequence number: keep the first
        // (§4.2 — receivers ignore subsequent messages with the same seq).
        ++rejected_packets_;
        return;
    }
    if (!p.have_packet) {
        p.digest = pkt.digest;
        p.payload = pkt.payload;
        p.macs.assign(group_.receivers.size(), 0);
        p.n_subgroups = pkt.n_subgroups;
        p.have_packet = true;
        p.first_seen = node_.sim().now();
    }
    for (std::size_t i = 0; i < pkt.macs.size(); ++i) {
        p.macs[static_cast<std::size_t>(base_slot) + i] = pkt.macs[i];
    }
    p.subgroups_seen |= (1u << pkt.subgroup);

    int my_subgroup = my_slot / kHmSubgroupSize;
    if (static_cast<int>(pkt.subgroup) == my_subgroup) p.own_mac_ok = true;

    std::uint32_t full_mask = (pkt.n_subgroups >= 32)
                                  ? 0xffffffffu
                                  : ((1u << pkt.n_subgroups) - 1);
    if (p.own_mac_ok && (p.subgroups_seen & full_mask) == full_mask && !p.authenticated) {
        p.authenticated = true;
        after_authenticated(pkt.seq);
    }
    try_deliver();
    arm_gap_timer();
}

// ---------- PK variant ----------

void AomReceiver::handle_pk(const PkPacket& pkt) {
    if (pkt.group != group_.group || pkt.epoch != epoch_) return;
    if (pkt.seq < next_seq_) return;

    // Digest/payload binding (checkpoints carry no payload).
    if (!pkt.checkpoint && crypto_->hash(pkt.payload) != pkt.digest) {
        ++rejected_packets_;
        return;
    }

    if (!pkt.signature.empty()) {
        // Verify the signature over the chain value computed from the
        // packet's own fields. A valid signature authenticates this packet
        // AND its prev_chain field (the anchor for reverse validation).
        Digest32 c = chain_next(pkt.prev_chain, pkt.group, pkt.epoch, pkt.seq, pkt.digest);
        crypto_->meter().hashes++;
        crypto_->meter().charge(crypto_->root().costs().hash_base_ns);
        if (!crypto_->verify(sequencer_for_epoch(pkt.epoch), BytesView(c.data(), c.size()),
                             pkt.signature)) {
            ++rejected_packets_;
            return;
        }
        auth_chain_[pkt.seq] = c;
        auth_chain_sigs_[pkt.seq] = pkt.signature;
        if (pkt.seq > 1) auth_chain_[pkt.seq - 1] = pkt.prev_chain;
    }

    if (!pkt.checkpoint) {
        Pending& p = pending_[pkt.seq];
        if (p.have_packet && p.digest != pkt.digest) {
            if (pkt.signature.empty()) {
                // Unsigned conflicting content: keep the first arrival.
                ++rejected_packets_;
                return;
            }
            // The incoming packet is signature-verified, so the previously
            // buffered content was forged — replace it.
            p = Pending{};
        }
        if (!p.have_packet) {
            p.digest = pkt.digest;
            p.payload = pkt.payload;
            p.prev_chain = pkt.prev_chain;
            p.signature = pkt.signature;
            p.have_packet = true;
            p.first_seen = node_.sim().now();
        } else if (p.signature.empty() && !pkt.signature.empty()) {
            p.signature = pkt.signature;
        }
    }

    pk_propagate_auth();
    try_deliver();
    arm_gap_timer();
}

void AomReceiver::pk_propagate_auth() {
    // Authentication flows strictly backwards from signed chain values:
    // if C_s is authenticated and we hold packet s whose fields hash to
    // C_s, then packet s is authentic and its prev field gives C_{s-1}.
    bool progress = true;
    while (progress) {
        progress = false;
        for (auto it = auth_chain_.rbegin(); it != auth_chain_.rend(); ++it) {
            SeqNum seq = it->first;
            if (seq < next_seq_) continue;
            auto pit = pending_.find(seq);
            if (pit == pending_.end() || !pit->second.have_packet || pit->second.authenticated) {
                continue;
            }
            Pending& p = pit->second;
            Digest32 c =
                chain_next(p.prev_chain, group_.group, epoch_, seq, p.digest);
            crypto_->meter().hashes++;
            crypto_->meter().charge(crypto_->root().costs().hash_base_ns);
            if (c != it->second) continue;  // mismatch: forged or conflicting
            p.authenticated = true;
            if (seq > 1 && !auth_chain_.contains(seq - 1)) {
                auth_chain_[seq - 1] = p.prev_chain;
                progress = true;
            }

            // Build the transferable certificate chain: either this packet
            // carries/earned its own signature, or it extends the suffix
            // certificate of seq+1.
            OrderingCert::ChainLink link{seq, p.digest, p.prev_chain};
            auto sit = auth_chain_sigs_.find(seq);
            if (sit != auth_chain_sigs_.end()) {
                p.cert_chain = {link};
                p.cert_signature = sit->second;
            } else {
                auto nit = pending_.find(seq + 1);
                if (nit != pending_.end() && nit->second.authenticated) {
                    p.cert_chain = {link};
                    p.cert_chain.insert(p.cert_chain.end(), nit->second.cert_chain.begin(),
                                        nit->second.cert_chain.end());
                    p.cert_signature = nit->second.cert_signature;
                } else {
                    // No certificate path (shouldn't happen: authentication
                    // came from somewhere); mark unauthenticated again.
                    p.authenticated = false;
                    continue;
                }
            }
            after_authenticated(seq);
            progress = true;
        }
    }
}

// ---------- Byzantine-network confirm protocol ----------

void AomReceiver::after_authenticated(SeqNum seq) {
    if (group_.trust != NetworkTrust::kByzantine) return;
    Pending& p = pending_[seq];
    if (p.confirm_sent) return;
    p.confirm_sent = true;
    queue_own_confirm(seq, p.digest);
}

void AomReceiver::queue_own_confirm(SeqNum seq, const Digest32& digest) {
    Bytes sig = crypto_->sign(confirm_input(group_.group, epoch_, seq, digest));

    // Record our own confirm locally (we count toward the quorum).
    Pending& p = pending_[seq];
    p.confirms[digest].insert(node_.id());
    p.confirm_sigs[node_.id()] = sig;

    ConfirmPacket::Entry e;
    e.seq = seq;
    e.digest = digest;
    e.signature = std::move(sig);
    confirm_outbox_.push_back(std::move(e));

    if (confirm_outbox_.size() >= confirm_ctrl_.target()) {
        flush_confirms();
    } else if (!node_.timer_armed(confirm_timer_)) {
        confirm_timer_ = node_.set_timer(confirm_ctrl_.flush_delay(), [this] { flush_confirms(); },
                                         "confirm_flush");
    }
}

void AomReceiver::flush_confirms() {
    if (confirm_outbox_.empty()) return;
    confirm_ctrl_.on_seal(confirm_outbox_.size(),
                          confirm_outbox_.size() >= confirm_ctrl_.target());
    crypto_->meter().charge(crypto_->root().costs().batch_seal_ns);
    if (obs::TraceSink* tr = node_.sim().trace()) {
        tr->batch(node_.sim().now(), node_.id(), "confirm_batch", confirm_outbox_.size());
    }
    ConfirmPacket pkt;
    pkt.sender = node_.id();
    pkt.group = group_.group;
    pkt.epoch = epoch_;
    pkt.entries = std::move(confirm_outbox_);
    confirm_outbox_.clear();
    sim::Packet wire = pkt.serialize();
    for (NodeId r : group_.receivers) {
        if (r != node_.id()) node_.send_to(r, wire);
    }
}

void AomReceiver::handle_confirm(NodeId from, const ConfirmPacket& pkt) {
    if (group_.trust != NetworkTrust::kByzantine) return;
    if (pkt.group != group_.group || pkt.epoch != epoch_) return;
    if (pkt.sender != from || group_.receiver_index(from) < 0) return;

    // Verify the whole batch with one dispatch (worker cores absorb the
    // per-signature work; this is what keeps Neo-BN's throughput high,
    // §6.2 "batch processing confirm messages").
    constexpr SeqNum kMaxConfirmLookahead = 10'000;
    std::vector<crypto::NodeCrypto::BatchItem> batch;
    std::vector<const ConfirmPacket::Entry*> accepted;
    for (const auto& e : pkt.entries) {
        if (e.seq < next_seq_ || e.seq > next_seq_ + kMaxConfirmLookahead) continue;
        batch.push_back({from, confirm_input(group_.group, epoch_, e.seq, e.digest),
                         e.signature});
        accepted.push_back(&e);
    }
    std::vector<bool> valid = crypto_->verify_batch(batch);
    for (std::size_t i = 0; i < accepted.size(); ++i) {
        if (!valid[i]) {
            ++rejected_packets_;
            continue;
        }
        const auto& e = *accepted[i];
        Pending& p = pending_[e.seq];
        p.confirms[e.digest].insert(from);
        p.confirm_sigs[from] = e.signature;
    }
    try_deliver();
    arm_gap_timer();
}

// ---------- delivery ----------

bool AomReceiver::deliverable(const Pending& p) const {
    if (!p.authenticated) return false;
    if (group_.trust == NetworkTrust::kByzantine) {
        auto it = p.confirms.find(p.digest);
        std::size_t quorum = static_cast<std::size_t>(2 * group_.f + 1);
        if (it == p.confirms.end() || it->second.size() < quorum) return false;
    }
    return true;
}

OrderingCert AomReceiver::build_cert(SeqNum seq, const Pending& p) const {
    OrderingCert cert;
    cert.variant = group_.variant;
    cert.group = group_.group;
    cert.epoch = epoch_;
    cert.seq = seq;
    cert.digest = p.digest;
    cert.payload = p.payload;
    if (group_.variant == AuthVariant::kHmacVector) {
        cert.macs = p.macs;
    } else {
        cert.chain = p.cert_chain;
        cert.signature = p.cert_signature;
    }
    if (group_.trust == NetworkTrust::kByzantine) {
        auto it = p.confirms.find(p.digest);
        NEO_ASSERT(it != p.confirms.end());
        for (NodeId node : it->second) {
            auto sit = p.confirm_sigs.find(node);
            if (sit != p.confirm_sigs.end()) {
                cert.confirms.push_back(ConfirmSig{node, sit->second});
            }
        }
    }
    return cert;
}

void AomReceiver::try_deliver() {
    if (next_seq_ == 0) {
        // Mid-epoch resume: adopt the lowest deliverable sequence number as
        // the delivery frontier; everything below it is only reachable via
        // the protocol's state transfer.
        for (const auto& [seq, p] : pending_) {
            if (deliverable(p)) {
                next_seq_ = seq;
                break;
            }
        }
        if (next_seq_ == 0) return;
    }
    while (true) {
        auto it = pending_.find(next_seq_);
        if (it == pending_.end() || !deliverable(it->second)) break;

        Delivery d;
        d.kind = Delivery::Kind::kMessage;
        d.epoch = epoch_;
        d.seq = next_seq_;
        d.payload = it->second.payload;
        d.cert = build_cert(next_seq_, it->second);
        if (obs::TraceSink* tr = node_.sim().trace()) {
            // "deliver" span: first packet for this seq -> in-order delivery
            // to the application. Both events are recorded here (delivery
            // time) on this node, keeping begin/end balanced and partition-
            // local; the begin's t is the buffered first-arrival time.
            std::uint64_t tid = obs::trace_id(d.payload);
            sim::Time begin =
                it->second.first_seen >= 0 ? it->second.first_seen : node_.sim().now();
            tr->span_begin(begin, node_.id(), "deliver", tid, next_seq_);
            tr->span_end(node_.sim().now(), node_.id(), "deliver", tid, next_seq_);
        }
        pending_.erase(it);
        ++next_seq_;
        ++delivered_messages_;
        // Prune chain bookkeeping below the delivery frontier (keep one
        // entry of slack for prev-chain linkage).
        while (!auth_chain_.empty() && auth_chain_.begin()->first + 1 < next_seq_) {
            auth_chain_.erase(auth_chain_.begin());
        }
        while (!auth_chain_sigs_.empty() && auth_chain_sigs_.begin()->first + 1 < next_seq_) {
            auth_chain_sigs_.erase(auth_chain_sigs_.begin());
        }
        if (node_.timer_armed(gap_timer_)) node_.cancel_timer(gap_timer_);
        if (deliver_) deliver_(std::move(d));
    }
    arm_gap_timer();
}

void AomReceiver::arm_gap_timer() {
    if (node_.timer_armed(gap_timer_)) return;
    if (next_seq_ == 0) return;  // mid-epoch resume: no frontier yet
    // A gap exists if anything beyond next_seq_ is waiting (a pending
    // packet, an authenticated chain value, or a confirm-only entry).
    bool has_later = false;
    for (const auto& [seq, p] : pending_) {
        if (seq > next_seq_ || (seq == next_seq_ && !deliverable(p))) {
            has_later = true;
            break;
        }
    }
    if (!has_later && !auth_chain_.empty() && auth_chain_.rbegin()->first >= next_seq_) {
        has_later = true;
    }
    if (!has_later) return;

    gap_timer_seq_ = next_seq_;
    gap_timer_ = node_.set_timer(opts_.gap_timeout, [this] { fire_gap_timer(); }, "gap_timeout");
}

void AomReceiver::fire_gap_timer() {
    if (next_seq_ == 0) return;  // resumed since arming: no frontier yet
    if (gap_timer_seq_ != next_seq_) {
        arm_gap_timer();
        return;
    }
    auto it = pending_.find(next_seq_);
    if (it != pending_.end() && deliverable(it->second)) {
        try_deliver();
        return;
    }

    // The hole persisted: hand the application a drop-notification so the
    // protocol can run its gap agreement (§5.4).
    if (obs::TraceSink* tr = node_.sim().trace()) {
        tr->phase(node_.sim().now(), node_.id(), "aom_drop_notification", next_seq_);
    }
    Delivery d;
    d.kind = Delivery::Kind::kDropNotification;
    d.epoch = epoch_;
    d.seq = next_seq_;
    pending_.erase(next_seq_);
    ++next_seq_;
    ++delivered_drops_;
    if (deliver_) deliver_(std::move(d));
    try_deliver();
}

}  // namespace neo::aom
