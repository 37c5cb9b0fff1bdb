// NeoBFT view changes, epoch switches and state transfer (§5.5, §B.1).
#include <algorithm>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "neobft/replica.hpp"
#include "obs/auditor.hpp"

namespace neo::neobft {

// ------------------------------------------------------------- suspicion

void Replica::arm_progress_timer() {
    if (timer_armed(progress_timer_)) return;
    progress_timer_ = set_timer(cfg_.view_change_timeout, [this] {
        on_progress_timeout();
        arm_progress_timer();
    }, "progress");
}

void Replica::on_progress_timeout() {
    sim::Time now = sim().now();

    if (status_ == Status::kNormal) {
        // Stuck gap agreement -> the leader is not driving it: change
        // leader. Only a slot that has been blocked for a full timeout
        // counts — transient gaps resolve via QUERY within microseconds.
        if (blocked_slot_.has_value() && now - blocked_since_ >= cfg_.view_change_timeout) {
            auto it = gaps_.find(*blocked_slot_);
            if (it != gaps_.end() && !it->second.resolved) {
                suspect(ViewId{view_.epoch, view_.leader + 1});
                return;
            }
        }
        // Client requests seen by unicast but never delivered by aom: the
        // sequencer is suspect -> switch epochs (§5.5).
        for (const auto& [client, pending] : pending_client_requests_) {
            if (now - pending.first_seen >= cfg_.request_aom_timeout) {
                suspect(ViewId{view_.epoch + 1, view_.leader});
                return;
            }
        }
        return;
    }

    if (status_ == Status::kViewChange) {
        // The view change itself stalled (faulty new leader): bump again.
        suspect(ViewId{target_view_.epoch, target_view_.leader + 1});
    }
    // kEpochWait / kStateTransfer progress by their own message flow; if the
    // peers are alive these complete, otherwise the next timeout will bump.
}

void Replica::suspect(ViewId next_view) {
    if (next_view <= target_view_ && status_ != Status::kNormal) return;
    if (next_view <= view_) return;
    target_view_ = next_view;
    status_ = Status::kViewChange;
    ++stats_.view_changes_started;
    if (obs::TraceSink* tr = sim().trace()) {
        tr->phase(sim().now(), id(), "view_suspect", next_view.epoch, next_view.leader);
    }
    NEO_DEBUG("replica " << id() << " suspects; moving to view <" << next_view.epoch << ","
                         << next_view.leader << ">");
    broadcast_view_change();
}

ViewChange Replica::make_view_change() const {
    ViewChange vc;
    vc.new_view = target_view_;
    vc.replica = id();
    vc.sync_cert = sync_cert_;
    for (const auto& [epoch, start_slot] : epoch_start_slot_) {
        if (epoch == 1) continue;  // epoch 1 starts at slot 1 by construction
        if (start_slot <= sync_point_) continue;
        auto cit = epoch_certs_.find(epoch);
        if (cit == epoch_certs_.end()) continue;
        ViewChange::EpochStartInfo info;
        info.epoch = epoch;
        info.start_slot = start_slot;
        info.cert = cit->second;
        vc.epochs.push_back(std::move(info));
    }
    vc.suffix_base = sync_point_;
    for (std::uint64_t s = sync_point_ + 1; s <= log_.size(); ++s) {
        vc.suffix.push_back(log_.wire_entry(s));
    }
    return vc;
}

void Replica::broadcast_view_change() {
    ViewChange vc = make_view_change();
    vc.signature = crypto_->sign(vc.signed_body());
    view_changes_[target_view_][id()] = vc;
    broadcast(cfg_.others(id()), vc.serialize());

    if (!timer_armed(vc_rebroadcast_timer_)) {
        vc_rebroadcast_timer_ = set_timer(cfg_.view_change_rebroadcast, [this] {
            if (status_ == Status::kViewChange) broadcast_view_change();
        }, "vc_rebroadcast");
    }
    leader_try_start_view();
}

// -------------------------------------------------------------- validation

/// A log entry a peer sent for `slot`: a no-op needs a valid drop
/// certificate for that slot, a request a matching digest and a valid
/// ordering certificate.
bool Replica::valid_entry(const WireLogEntry& w, std::uint64_t slot) {
    if (w.noop) {
        return !w.gap_cert.recv && w.gap_cert.slot == slot &&
               verify_gap_certificate(w.gap_cert, cfg_, *crypto_);
    }
    return crypto_->hash(w.oc.payload) == w.oc.digest &&
           aom::verify_cert(w.oc, receiver_->verify_context());
}

bool Replica::validate_view_change_msg(const ViewChange& vc) {
    if (!cfg_.is_replica(vc.replica)) return false;
    if (!crypto_->verify(vc.replica, vc.signed_body(), vc.signature)) return false;

    if (!vc.sync_cert.empty()) {
        if (!verify_sync_certificate(vc.sync_cert, cfg_, *crypto_)) return false;
        if (vc.suffix_base != vc.sync_cert.slot) return false;
    } else if (vc.suffix_base != 0) {
        return false;
    }

    EpochNum prev_epoch = 0;
    for (const auto& info : vc.epochs) {
        if (info.epoch <= prev_epoch) return false;  // strictly ascending
        prev_epoch = info.epoch;
        if (info.cert.epoch != info.epoch) return false;
        if (info.start_slot != info.cert.slot + 1) return false;
        if (!verify_epoch_certificate(info.cert, cfg_, *crypto_)) return false;
    }

    // Validity of the log suffix (§5.5): each slot holds a valid oc or a
    // gap-certified no-op, and in-epoch sequence numbers are consecutive.
    std::optional<SeqNum> prev_seq;
    std::optional<EpochNum> prev_entry_epoch;
    for (std::size_t i = 0; i < vc.suffix.size(); ++i) {
        std::uint64_t slot = vc.suffix_base + i + 1;
        const WireLogEntry& e = vc.suffix[i];
        if (!valid_entry(e, slot)) return false;
        if (e.noop) {
            if (prev_seq.has_value()) ++*prev_seq;  // no-op consumes a sequence slot
            continue;
        }
        if (prev_entry_epoch == e.oc.epoch && prev_seq.has_value() &&
            e.oc.seq != *prev_seq + 1) {
            return false;
        }
        // Epoch boundary inside the suffix must match a declared start.
        if (prev_entry_epoch.has_value() && e.oc.epoch != *prev_entry_epoch) {
            bool declared = false;
            for (const auto& info : vc.epochs) {
                if (info.epoch == e.oc.epoch && info.start_slot == slot) declared = true;
            }
            if (!declared || e.oc.seq != 1) return false;
        }
        prev_seq = e.oc.seq;
        prev_entry_epoch = e.oc.epoch;
    }
    return true;
}

// ---------------------------------------------------------- collect / start

void Replica::on_view_change(NodeId from, Reader& r) {
    ViewChange vc = ViewChange::parse(r);
    if (vc.replica != from || !cfg_.is_replica(from)) return;
    if (vc.new_view <= view_) return;

    // Store first, validate lazily when used (validation is expensive).
    ViewId v = vc.new_view;
    view_changes_[v][from] = std::move(vc);

    // Join rule: f+1 distinct replicas moving past us proves at least one
    // correct replica suspects -> join the smallest such view.
    if (status_ == Status::kNormal || v > target_view_) {
        std::map<ViewId, std::set<NodeId>> supporters;
        for (const auto& [view, msgs] : view_changes_) {
            if (view <= view_ || view <= target_view_) continue;
            for (const auto& [node, msg] : msgs) supporters[view].insert(node);
        }
        bool joined = false;
        for (const auto& [view, nodes] : supporters) {
            if (nodes.size() >= static_cast<std::size_t>(cfg_.f + 1)) {
                suspect(view);
                joined = true;
                break;
            }
        }
        // A single replica suspecting is not proof (it may be Byzantine),
        // but it is reason to check on the leader ourselves (§C.2's
        // "correctly suspect" failure detector). Same-epoch changes only —
        // sequencer health is judged by our own aom traffic.
        if (!joined && status_ == Status::kNormal && v.epoch == view_.epoch) {
            probe_leader(v);
        }
    }
    leader_try_start_view();
}

void Replica::probe_leader(ViewId join_view) {
    if (probe_join_view_.has_value() && *probe_join_view_ >= join_view) return;
    probe_join_view_ = join_view;
    std::uint64_t nonce = ++probe_nonce_;
    Ping ping;
    ping.view = view_;
    ping.nonce = nonce;
    send_to(cfg_.leader_of(view_), ping.serialize());
    set_timer(cfg_.view_change_timeout, [this, nonce] {
        if (probe_nonce_ != nonce || !probe_join_view_.has_value()) return;
        ViewId join = *probe_join_view_;
        probe_join_view_.reset();
        if (join > view_ && status_ == Status::kNormal) suspect(join);
    }, "probe");
}

void Replica::on_ping(NodeId from, Reader& r) {
    Ping ping = Ping::parse(r);
    if (!cfg_.is_replica(from)) return;
    if (ping.view != view_ || cfg_.leader_of(view_) != id()) return;
    Pong pong;
    pong.view = ping.view;
    pong.nonce = ping.nonce;
    send_to(from, pong.serialize());
}

void Replica::on_pong(NodeId from, Reader& r) {
    Pong pong = Pong::parse(r);
    if (from != cfg_.leader_of(view_)) return;
    if (pong.nonce != probe_nonce_) return;
    // Leader is alive: abandon the probe.
    probe_join_view_.reset();
}

void Replica::leader_try_start_view() {
    if (status_ != Status::kViewChange) return;
    if (cfg_.leader_of(target_view_) != id()) return;
    auto it = view_changes_.find(target_view_);
    if (it == view_changes_.end()) return;
    if (!it->second.contains(id())) return;

    // Gather 2f+1 valid view-changes (deterministic order: by replica id).
    std::vector<ViewChange> chosen;
    for (const auto& [node, vc] : it->second) {
        if (node == id() || validate_view_change_msg(vc)) {
            chosen.push_back(vc);
            if (chosen.size() == cfg_.quorum()) break;
        }
    }
    if (chosen.size() < cfg_.quorum()) return;

    ViewStart vs;
    vs.new_view = target_view_;
    vs.msgs = std::move(chosen);
    vs.signature = crypto_->sign(vs.signed_body());
    broadcast(cfg_.others(id()), vs.serialize());
    adopt_view_start(vs);
}

void Replica::on_view_start(NodeId from, Reader& r) {
    ViewStart vs = ViewStart::parse(r);
    if (vs.new_view <= view_) return;
    if (from != cfg_.leader_of(vs.new_view)) return;
    if (!crypto_->verify(from, vs.signed_body(), vs.signature)) return;

    if (vs.msgs.size() < cfg_.quorum()) return;
    std::set<NodeId> senders;
    for (const auto& vc : vs.msgs) {
        if (vc.new_view != vs.new_view) return;
        if (!senders.insert(vc.replica).second) return;
        if (!validate_view_change_msg(vc)) return;
    }
    adopt_view_start(vs);
}

// ------------------------------------------------------------------- merge

namespace {
/// Digest used to compare a wire entry against a local log entry.
bool entries_equal(const WireLogEntry& w, const LogEntry& e) {
    if (w.noop != e.noop()) return false;
    if (w.noop) return true;  // no-ops at the same slot are identical
    return w.oc.epoch == e.oc().epoch && w.oc.seq == e.oc().seq && w.oc.digest == e.oc().digest;
}
}  // namespace

void Replica::adopt_view_start(const ViewStart& vs) {
    // Determine the committed baseline: the maximum valid sync certificate.
    std::uint64_t base_slot = 0;
    Digest32 base_hash{};
    NodeId base_holder = kInvalidNode;
    for (const auto& vc : vs.msgs) {
        if (!vc.sync_cert.empty() && vc.sync_cert.slot > base_slot) {
            base_slot = vc.sync_cert.slot;
            base_hash = vc.sync_cert.log_hash;
            base_holder = vc.replica;
        }
    }

    // A baseline below our GC base is already covered by our stable
    // checkpoint's certificate — nothing to fetch or compare there.
    if (base_slot > log_.base() &&
        (log_.size() < base_slot || log_.hash_at(base_slot) != base_hash)) {
        // Our committed prefix is behind/divergent: fetch it, then retry.
        pending_view_start_ = vs;
        status_ = Status::kStateTransfer;
        std::uint64_t from_slot = std::min(sync_point_, base_slot);
        request_state(base_holder, from_slot, base_slot);
        return;
    }

    audit_replay_ = true;  // merge may re-append slots already reported
    apply_merged_log(vs.msgs, /*epoch_change=*/vs.new_view.epoch > view_.epoch);
    audit_replay_ = false;
    // An epoch-change merge may truncate the log below the previously
    // reported frontier without re-appending anything.
    audit_frontier(log_.size());
    if (auditor_) {
        // The adopted log is a pure function of the VIEW-START message, so
        // its canonical bytes stand in for the decision: two replicas
        // reporting different digests at the same view means the leader
        // equivocated.
        auditor_->on_view_decision(
            sim().current_shard(), sim().now(), id(),
            (vs.new_view.epoch << 32) | (vs.new_view.leader & 0xffffffffu),
            obs::trace_id(vs.signed_body()), cfg_.group);
    }
    enter_view(vs.new_view);
}

void Replica::apply_merged_log(const std::vector<ViewChange>& msgs, bool epoch_change) {
    std::uint64_t base_slot = 0;
    for (const auto& vc : msgs) {
        base_slot = std::max(base_slot, vc.sync_cert.empty() ? 0 : vc.sync_cert.slot);
    }
    // Never merge below our stable-checkpoint GC base: those slots are
    // certified committed and no longer held as entries.
    base_slot = std::max(base_slot, log_.base());

    // Step 1 (§B.1): the largest epoch with a valid certificate.
    EpochNum max_epoch = 0;
    std::uint64_t max_epoch_start = 0;
    EpochCertificate max_epoch_cert;
    for (const auto& vc : msgs) {
        for (const auto& info : vc.epochs) {
            if (info.epoch > max_epoch) {
                max_epoch = info.epoch;
                max_epoch_start = info.start_slot;
                max_epoch_cert = info.cert;
            }
        }
    }

    // Which view-change messages "started" the max epoch (their suffix
    // reaches into it / they declared it)?
    auto started_max = [&](const ViewChange& vc) {
        if (max_epoch == 0) return true;  // no boundary: every log qualifies
        for (const auto& info : vc.epochs) {
            if (info.epoch == max_epoch) return true;
        }
        return false;
    };

    // Assemble the merged suffix into a slot-indexed map.
    std::map<std::uint64_t, WireLogEntry> merged;

    // Step 2: everything before the max epoch's start, from a valid log that
    // started it (deterministic pick: lowest replica id).
    if (max_epoch != 0) {
        const ViewChange* donor = nullptr;
        for (const auto& vc : msgs) {
            if (started_max(vc) && (!donor || vc.replica < donor->replica)) donor = &vc;
        }
        NEO_ASSERT(donor != nullptr);
        for (std::size_t i = 0; i < donor->suffix.size(); ++i) {
            std::uint64_t slot = donor->suffix_base + i + 1;
            if (slot > base_slot && slot < max_epoch_start) merged[slot] = donor->suffix[i];
        }
    }

    // Step 3: within the (max) epoch, the longest qualifying log wins.
    std::uint64_t in_epoch_from = (max_epoch != 0) ? max_epoch_start : base_slot + 1;
    {
        const ViewChange* longest = nullptr;
        std::uint64_t longest_end = 0;
        for (const auto& vc : msgs) {
            if (!started_max(vc)) continue;
            std::uint64_t end = vc.suffix_base + vc.suffix.size();
            if (end > longest_end || (end == longest_end && longest && vc.replica < longest->replica)) {
                longest = &vc;
                longest_end = end;
            }
        }
        if (longest != nullptr) {
            for (std::size_t i = 0; i < longest->suffix.size(); ++i) {
                std::uint64_t slot = longest->suffix_base + i + 1;
                if (slot >= in_epoch_from) merged[slot] = longest->suffix[i];
            }
        }
    }

    // Step 4: no-ops (gap-certified) from ANY qualifying log overwrite.
    for (const auto& vc : msgs) {
        if (!started_max(vc)) continue;
        for (std::size_t i = 0; i < vc.suffix.size(); ++i) {
            std::uint64_t slot = vc.suffix_base + i + 1;
            if (slot >= in_epoch_from && vc.suffix[i].noop && merged.contains(slot)) {
                merged[slot] = vc.suffix[i];
            }
        }
    }

    // Write into our log: find the first divergence, roll back, rebuild.
    std::uint64_t merged_end = merged.empty() ? base_slot : merged.rbegin()->first;
    std::uint64_t first_div = 0;
    for (std::uint64_t s = base_slot + 1; s <= merged_end; ++s) {
        auto it = merged.find(s);
        NEO_ASSERT_MSG(it != merged.end(), "merged log has a hole");
        if (!log_.has(s) || !entries_equal(it->second, log_.at(s))) {
            first_div = s;
            break;
        }
    }
    if (first_div == 0 && log_.size() > merged_end) {
        // Our log extends past the merge result with entries the chosen
        // view-change set never saw. Within the same epoch these are valid
        // ordering certificates from aom and may stay (tails legitimately
        // differ in length, like normal speculation); across an epoch
        // boundary every replica must agree on the exact end of the old
        // epoch, so the tail is cut.
        // Requests carry their ordering certificates; no-ops carry their
        // gap certificates (committed: Lemma 5 says they persist anyway).
        if (epoch_change) first_div = merged_end + 1;  // truncate tail
    }
    if (first_div == 0) {
        // Log already matches the merge result.
        if (max_epoch != 0) {
            epoch_start_slot_[max_epoch] = max_epoch_start;
            epoch_certs_[max_epoch] = max_epoch_cert;
        }
        return;
    }

    // Entries we hold beyond the merge result are still valid ordering
    // certificates (slot<->seq is 1:1 within an epoch, so replacing an
    // earlier slot does not shift them). Preserve them through the rebuild
    // unless the epoch is ending — the aom receiver has already consumed
    // their sequence numbers, so dropping them would desynchronise it.
    std::vector<WireLogEntry> spare_tail;
    if (!epoch_change) {
        for (std::uint64_t s = std::max(first_div, merged_end + 1); s <= log_.size(); ++s) {
            spare_tail.push_back(log_.wire_entry(s));  // request oc or gap-certified no-op
        }
    }

    // Rewind to the divergence point, then append and execute the merged
    // entries and our preserved tail.
    rewind_to(first_div);
    for (std::uint64_t s = first_div; s <= merged_end; ++s) append_entry(merged.at(s));
    for (const auto& w : spare_tail) append_entry(w);

    if (max_epoch != 0) {
        epoch_start_slot_[max_epoch] = max_epoch_start;
        epoch_certs_[max_epoch] = max_epoch_cert;
    }
}

// ------------------------------------------------------------- enter view

void Replica::enter_view(ViewId v) {
    NEO_ASSERT(v > view_ || (v == view_ && status_ != Status::kNormal));
    bool epoch_change = v.epoch > receiver_->epoch();

    // If we were blocked on a hole whose drop-notification was already
    // consumed (the aom receiver moved past it), and the merge did not fill
    // it, the gap agreement must restart under the new leader — nothing
    // else will ever re-report that sequence number.
    std::optional<std::uint64_t> still_missing;
    if (!epoch_change && blocked_slot_.has_value() && *blocked_slot_ == log_.size() + 1) {
        still_missing = blocked_slot_;
    }

    view_ = v;
    target_view_ = v;
    ++stats_.views_entered;
    if (obs::TraceSink* tr = sim().trace()) {
        tr->phase(sim().now(), id(), "view_enter", v.epoch, v.leader);
    }
    gaps_.clear();
    blocked_slot_.reset();
    pending_queries_.clear();
    view_changes_.erase(view_changes_.begin(), view_changes_.upper_bound(v));
    pending_view_start_.reset();
    // Give the new configuration a fresh grace period for pending requests.
    for (auto& [client, pending] : pending_client_requests_) pending.first_seen = sim().now();

    if (epoch_change) {
        begin_epoch_wait();
        return;
    }
    status_ = Status::kNormal;
    NEO_DEBUG("replica " << id() << " entered view <" << v.epoch << "," << v.leader << ">");
    if (still_missing.has_value()) on_drop_notification(*still_missing);
    drain_backlog();
}

void Replica::begin_epoch_wait() {
    status_ = Status::kEpochWait;
    waiting_epoch_ = view_.epoch;
    epoch_wait_slot_ = log_.size();
    if (obs::TraceSink* tr = sim().trace()) {
        tr->phase(sim().now(), id(), "epoch_wait", view_.epoch, epoch_wait_slot_);
    }

    EpochStart es;
    es.epoch = view_.epoch;
    es.replica = id();
    es.slot = epoch_wait_slot_;
    es.signature = crypto_->sign(es.signed_body());
    epoch_starts_[view_.epoch][id()] = es;
    broadcast(cfg_.others(id()), es.serialize());

    // Ask the configuration service for a new sequencer (§4.2: after the
    // agreement, receivers request the failover).
    aom::FailoverRequest req;
    req.sender = id();
    req.group = cfg_.group;
    req.next_epoch = view_.epoch;
    send_to(cfg_.config_service, req.serialize());

    maybe_enter_epoch();
}

void Replica::on_epoch_start(NodeId from, Reader& r) {
    EpochStart es = EpochStart::parse(r);
    if (!cfg_.is_replica(from) || es.replica != from) return;
    if (!crypto_->verify(from, es.signed_body(), es.signature)) return;
    epoch_starts_[es.epoch][from] = std::move(es);
    maybe_enter_epoch();
}

void Replica::maybe_enter_epoch() {
    if (status_ != Status::kEpochWait || !waiting_epoch_.has_value()) return;
    EpochNum e = *waiting_epoch_;

    auto it = epoch_starts_.find(e);
    if (it == epoch_starts_.end()) return;
    std::vector<SignerSig> sigs;
    for (const auto& [node, es] : it->second) {
        if (es.slot == epoch_wait_slot_) sigs.push_back(SignerSig{node, es.signature});
    }
    if (sigs.size() < cfg_.quorum()) return;
    sigs.resize(cfg_.quorum());

    auto sequencer = receiver_->announced_sequencer(e);
    if (!sequencer.has_value()) return;  // config service still reconfiguring
    sequencer_ = *sequencer;

    EpochCertificate cert;
    cert.epoch = e;
    cert.slot = epoch_wait_slot_;
    cert.sigs = std::move(sigs);
    epoch_certs_[e] = std::move(cert);
    epoch_start_slot_[e] = epoch_wait_slot_ + 1;

    receiver_->start_epoch(e, *sequencer);
    waiting_epoch_.reset();
    status_ = Status::kNormal;
    if (obs::TraceSink* tr = sim().trace()) {
        tr->phase(sim().now(), id(), "epoch_enter", e, epoch_wait_slot_ + 1);
    }
    backlog_.clear();  // deliveries from the dead epoch are void
    // Restart the sequencer-suspicion grace period: the new sequencer only
    // begins carrying traffic now, not when the view change started.
    for (auto& [client, pending] : pending_client_requests_) pending.first_seen = sim().now();
    NEO_DEBUG("replica " << id() << " entered epoch " << e << " at slot "
                         << epoch_wait_slot_ + 1);
    drain_backlog();
}

// --------------------------------------------------------- state transfer

void Replica::request_state(NodeId target, std::uint64_t from_slot, std::uint64_t to_slot) {
    state_transfer_active_ = true;
    StateReq req;
    req.from_slot = from_slot;
    req.to_slot = to_slot;
    send_to(target, req.serialize());
}

void Replica::on_state_req(NodeId from, Reader& r) {
    StateReq req = StateReq::parse(r);
    if (!cfg_.is_replica(from)) return;
    if (req.to_slot <= req.from_slot) return;
    if (req.from_slot < log_.base()) {
        // The requested prefix was garbage-collected: offer the stable
        // checkpoint instead (Merkle-verified chunk transfer).
        send_ckpt_meta(from);
        return;
    }
    std::uint64_t to = std::min<std::uint64_t>(req.to_slot, log_.size());
    if (to <= req.from_slot) return;
    constexpr std::uint64_t kMaxBatch = 4'096;
    to = std::min(to, req.from_slot + kMaxBatch);

    StateReply reply;
    reply.base_slot = req.from_slot;
    for (std::uint64_t s = req.from_slot + 1; s <= to; ++s) {
        reply.entries.push_back(log_.wire_entry(s));
    }
    send_to(from, reply.serialize());
}

void Replica::on_state_reply(NodeId from, Reader& r) {
    (void)from;
    StateReply reply = StateReply::parse(r);
    if (!state_transfer_active_) return;
    if (reply.base_slot > log_.size()) return;  // non-contiguous: useless

    // Validate and apply entries extending or overwriting our suffix.
    std::uint64_t first_div = 0;
    for (std::size_t i = 0; i < reply.entries.size(); ++i) {
        std::uint64_t slot = reply.base_slot + i + 1;
        const WireLogEntry& e = reply.entries[i];
        if (!valid_entry(e, slot)) return;
        if (first_div == 0 && (!log_.has(slot) || !entries_equal(e, log_.at(slot)))) {
            first_div = slot;
        }
    }
    if (first_div != 0 && first_div <= log_.base()) return;  // stable prefix never rolls back
    if (first_div != 0) {
        audit_replay_ = true;  // state transfer rebuilds already-reported slots
        rewind_to(first_div);
        for (std::size_t i = first_div - reply.base_slot - 1; i < reply.entries.size(); ++i) {
            append_entry(reply.entries[i]);
        }
        audit_replay_ = false;
        audit_frontier(log_.size());
    }
    state_transfer_active_ = false;

    // Retry the deferred view start, if any.
    if (pending_view_start_.has_value()) {
        ViewStart vs = *pending_view_start_;
        pending_view_start_.reset();
        status_ = Status::kViewChange;
        adopt_view_start(vs);
    }
}

}  // namespace neo::neobft
