// NeoBFT replica: dispatch, normal operation (§5.3), gap agreement (§5.4),
// state sync (§B.2), client unicast fallback. View changes live in
// replica_viewchange.cpp.
#include "neobft/replica.hpp"

#include <algorithm>
#include <tuple>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "obs/auditor.hpp"
#include "obs/metrics.hpp"

namespace neo::neobft {

Replica::Replica(Config cfg, std::unique_ptr<crypto::NodeCrypto> crypto,
                 const aom::AomKeyService* keys, std::unique_ptr<app::StateMachine> app,
                 aom::ReceiverOptions recv_opts)
    : cfg_(std::move(cfg)), crypto_(std::move(crypto)), keys_(keys), app_(std::move(app)),
      recv_opts_(recv_opts) {
    set_meter(&crypto_->meter());
    epoch_start_slot_[1] = 1;
    genesis_snapshot_ = app_->snapshot();
    NEO_ASSERT_MSG(cfg_.checkpoint_interval == 0 ||
                       (cfg_.sync_interval != 0 &&
                        cfg_.checkpoint_interval % cfg_.sync_interval == 0),
                   "checkpoint_interval must be a multiple of sync_interval");
}

void Replica::set_auditor(obs::Auditor* a) {
    auditor_ = a;
    if (a != nullptr) {
        // 2PC phases execute inside app_->execute(), i.e. inside this
        // replica's event, so current_shard()/now() and the replay flag all
        // describe the executing slot.
        app_->set_txn_observer([this](std::uint64_t txn_id, int phase, bool applied) {
            auditor_->on_txn(sim().current_shard(), sim().now(), id(), cfg_.group, txn_id,
                             static_cast<obs::Auditor::TxnPhase>(phase), applied,
                             audit_replay_);
        });
    } else {
        app_->set_txn_observer({});
    }
}

void Replica::bootstrap(aom::GroupConfig group, NodeId sequencer) {
    NEO_ASSERT_MSG(attached(), "attach the replica to the network before bootstrap()");
    group_ = std::move(group);
    receiver_ = std::make_unique<aom::AomReceiver>(group_, *this, crypto_.get(), keys_, recv_opts_);
    receiver_->set_deliver([this](aom::Delivery d) { on_delivery(std::move(d)); });
    receiver_->set_on_new_epoch([this](EpochNum, NodeId) { maybe_enter_epoch(); });
    sequencer_ = sequencer;
    receiver_->start_epoch(1, sequencer);
    arm_progress_timer();
}

void Replica::handle(NodeId from, BytesView data) {
    if (aom::is_aom_packet(data)) {
        receiver_->on_packet(from, data);
        return;
    }
    auto kind = aom::peek_kind(data);
    if (!kind) return;
    try {
        Reader r(data.subspan(1));
        switch (static_cast<MsgKind>(*kind)) {
            case MsgKind::kRequest: on_request_unicast(from, r); break;
            case MsgKind::kQuery: on_query(from, r); break;
            case MsgKind::kQueryReply: on_query_reply(from, r); break;
            case MsgKind::kGapCertReply: on_gap_cert_reply(from, r); break;
            case MsgKind::kGapFind: on_gap_find(from, r); break;
            case MsgKind::kGapRecv: on_gap_recv(from, r); break;
            case MsgKind::kGapDrop: on_gap_drop(from, r); break;
            case MsgKind::kGapDecision: on_gap_decision(from, r); break;
            case MsgKind::kGapPrepare: on_gap_prepare(from, r); break;
            case MsgKind::kGapCommit: on_gap_commit(from, r); break;
            case MsgKind::kSync: on_sync(from, r); break;
            case MsgKind::kViewChange: on_view_change(from, r); break;
            case MsgKind::kViewStart: on_view_start(from, r); break;
            case MsgKind::kEpochStart: on_epoch_start(from, r); break;
            case MsgKind::kStateReq: on_state_req(from, r); break;
            case MsgKind::kStateReply: on_state_reply(from, r); break;
            case MsgKind::kCkptReq: on_ckpt_req(from, r); break;
            case MsgKind::kCkptMeta: on_ckpt_meta(from, r); break;
            case MsgKind::kCkptChunkReq: on_ckpt_chunk_req(from, r); break;
            case MsgKind::kCkptChunk: on_ckpt_chunk(from, r); break;
            case MsgKind::kPing: on_ping(from, r); break;
            case MsgKind::kPong: on_pong(from, r); break;
            default: break;
        }
    } catch (const CodecError&) {
        // Byzantine garbage: drop.
    }
}

// --------------------------------------------------------------- normal op

std::uint64_t Replica::slot_for(EpochNum epoch, SeqNum seq) const {
    auto it = epoch_start_slot_.find(epoch);
    NEO_ASSERT_MSG(it != epoch_start_slot_.end(), "delivery for unstarted epoch");
    return it->second + seq - 1;
}

void Replica::on_delivery(aom::Delivery d) {
    // Raw aom delivery order, before any queueing: drop-notifications
    // consume a sequence number too, so reporting both kinds keeps the
    // per-(node, epoch) sequence contiguous for the auditor.
    if (auditor_) {
        auditor_->on_aom_deliver(sim().current_shard(), sim().now(), id(), d.epoch, d.seq);
    }
    // FIFO discipline: while anything is queued, new deliveries join the
    // queue (they must not overtake items parked during a block or view
    // change). The drain call is a no-op while blocked / mid-view-change.
    if (blocked_slot_.has_value() || status_ != Status::kNormal || !backlog_.empty()) {
        backlog_.push_back(std::move(d));
        drain_backlog();
        return;
    }
    process_delivery(d);
}

void Replica::process_delivery(aom::Delivery& d) {
    if (d.epoch != view_.epoch) return;  // stale epoch traffic
    if (!epoch_start_slot_.contains(d.epoch)) return;  // epoch not started here
    std::uint64_t slot = slot_for(d.epoch, d.seq);
    if (slot <= log_.size()) return;  // already resolved (e.g. via gap agreement)
    if (slot > log_.size() + 1) {
        // A recovered replica that rejoined the aom stream mid-epoch can see
        // the live sequence numbers run ahead of its rebuilt log. Park the
        // delivery and catch up via checkpoint / state transfer instead of
        // asserting contiguity.
        backlog_.push_front(std::move(d));
        if (!recovering_) {
            recovering_ = true;
            status_ = Status::kStateTransfer;
            CkptReq req;
            req.min_slot = log_.size() + 1;
            broadcast(cfg_.others(id()), req.serialize());
            continue_recovery();
        }
        return;
    }

    if (d.kind == aom::Delivery::Kind::kMessage) {
        append_request(std::move(d.cert));
        // The append may unblock gap agreements that concluded for slots
        // just ahead of us.
        apply_gap_outcomes();
    } else {
        on_drop_notification(slot);
    }
}

void Replica::drain_backlog() {
    while (!backlog_.empty() && !blocked_slot_.has_value() && status_ == Status::kNormal) {
        aom::Delivery d = std::move(backlog_.front());
        backlog_.pop_front();
        process_delivery(d);
    }
}

void Replica::append_request(aom::OrderingCert oc) {
    LogEntry entry;

    // Parse + authenticate the client request carried in the payload. All
    // correct replicas see the same bytes and reach the same verdict, so an
    // invalid request deterministically becomes a non-executed slot.
    auto req = Request::parse_payload(oc.payload);
    if (req.has_value() && crypto_->verify(req->client, req->signed_body(), req->signature)) {
        entry.valid_request = true;
        entry.client = req->client;
        entry.request_id = req->request_id;
    }
    entry.cert = std::move(oc);
    log_.append(std::move(entry));
    crypto_->meter().charge(crypto_->root().costs().hash_base_ns);  // hash chain step

    std::uint64_t slot = log_.size();
    execute_slot(slot, req);
    maybe_take_checkpoint(slot);
    maybe_start_sync();
}

void Replica::execute_slot(std::uint64_t slot, const std::optional<Request>& req) {
    LogEntry& entry = log_.at(slot);
    NEO_ASSERT(!entry.executed);
    entry.executed = true;
    if (auditor_) {
        auditor_->on_execute(sim().current_shard(), sim().now(), id(), slot,
                             audit_digest(entry), entry.noop(), audit_replay_, cfg_.group);
    }
    if (!entry.valid_request) {
        executed_ = slot;
        return;
    }
    NEO_ASSERT(req.has_value());

    // At-most-once: duplicates (client retries that got sequenced twice)
    // re-send the cached reply instead of re-executing.
    ClientRecord& rec = clients_[entry.client];
    if (entry.request_id <= rec.last_request_id) {
        executed_ = slot;
        if (entry.request_id == rec.last_request_id && !rec.cached_reply.empty()) {
            send_to(entry.client, rec.cached_reply);
        }
        return;
    }

    obs::TraceSink* tr = sim().trace();
    std::uint64_t tid = tr ? obs::trace_id(entry.oc().payload) : 0;
    if (tr) tr->span_begin(sim().now(), id(), "execute", tid, slot);
    charge(app_->execute_cost_ns(req->op));
    Bytes result = app_->execute(req->op);
    entry.applied = true;
    executed_ = slot;
    ++stats_.requests_executed;
    if (tr) {
        tr->phase(sim().now(), id(), "execute", slot);
        tr->span_end(sim().now(), id(), "execute", tid, slot);
    }
    pending_client_requests_.erase(entry.client);
    send_reply(slot, std::move(result));
}

void Replica::send_reply(std::uint64_t slot, Bytes result) {
    const LogEntry& entry = log_.at(slot);
    Reply reply;
    reply.view = view_;
    reply.replica = id();
    reply.slot = slot;
    reply.log_hash = log_.hash_at(slot);
    reply.request_id = entry.request_id;
    reply.result = result;
    // Equivocation fault injection: this replica's replies diverge from the
    // honest ones (a poison byte, properly MAC'd). Clients still commit off
    // the honest 2f+1 matching replies.
    if (equivocate_) reply.result.push_back(0xEB);
    reply.mac = crypto_->mac_for(entry.client, reply.signed_body());
    sim::Packet wire(reply.serialize());

    ClientRecord& rec = clients_[entry.client];
    rec.last_request_id = entry.request_id;
    rec.last_result = std::move(result);
    rec.cached_reply = wire;
    send_to(entry.client, std::move(wire));
    ++stats_.replies_sent;
}

// ------------------------------------------------- client unicast fallback

void Replica::on_request_unicast(NodeId from, Reader& r) {
    Request req = Request::parse(r);
    if (req.client != from) return;

    auto it = clients_.find(req.client);
    if (it != clients_.end() && req.request_id <= it->second.last_request_id) {
        if (req.request_id == it->second.last_request_id && !it->second.cached_reply.empty()) {
            send_to(req.client, it->second.cached_reply);
        }
        return;
    }
    if (!crypto_->verify(req.client, req.signed_body(), req.signature)) return;

    // The client claims it multicast this via aom and got no reply. If it
    // stays undelivered past the timeout the sequencer is suspect (§5.5).
    auto pit = pending_client_requests_.find(req.client);
    if (pit == pending_client_requests_.end() || pit->second.request_id < req.request_id) {
        pending_client_requests_[req.client] = {req.request_id, sim().now()};
    }
}

// ----------------------------------------------------------- gap agreement

void Replica::on_drop_notification(std::uint64_t slot) {
    NEO_ASSERT(slot == log_.size() + 1);
    if (obs::TraceSink* tr = sim().trace()) tr->phase(sim().now(), id(), "gap_start", slot);
    blocked_slot_ = slot;
    blocked_since_ = sim().now();
    GapRound& round = gaps_[slot];
    if (cfg_.leader_of(view_) == id()) {
        leader_start_gap_agreement(slot);
    } else {
        start_query(slot);
        // If the leader's GAP-FIND raced ahead of our drop-notification,
        // answer it now.
        if (round.find_received && !round.sent_gap_drop) {
            round.sent_gap_drop = true;
            send_to(cfg_.leader_of(view_), signed_drop(slot).serialize());
        }
    }
}

GapDrop Replica::signed_drop(std::uint64_t slot) {
    GapDrop drop;
    drop.view = view_;
    drop.replica = id();
    drop.slot = slot;
    drop.signature = crypto_->sign(drop.signed_body());
    return drop;
}

GapFind Replica::signed_find(std::uint64_t slot) {
    GapFind find;
    find.view = view_;
    find.slot = slot;
    find.signature = crypto_->sign(find.signed_body());
    return find;
}

void Replica::start_query(std::uint64_t slot) {
    GapRound& round = gaps_[slot];
    if (round.resolved) return;
    Query q;
    q.view = view_;
    q.slot = slot;
    send_to(cfg_.leader_of(view_), q.serialize());
    ++stats_.queries_sent;

    set_timer(cfg_.query_retry, [this, slot] {
        auto it = gaps_.find(slot);
        if (it == gaps_.end() || it->second.resolved || status_ != Status::kNormal) return;
        // Even after voting drop we keep querying: peers whose agreement
        // already concluded answer with the gap certificate (the decision
        // itself), which we may act on — only bare ordering certificates
        // are off-limits after a drop vote (§5.4).
        start_query(slot);
    }, "query_retry");
}

void Replica::on_query(NodeId from, Reader& r) {
    Query q = Query::parse(r);
    if (!cfg_.is_replica(from)) return;
    if (q.view != view_) return;
    if (log_.has(q.slot) && !log_.at(q.slot).noop()) {
        QueryReply qr;
        qr.view = view_;
        qr.slot = q.slot;
        qr.oc = log_.at(q.slot).oc();
        send_to(from, qr.serialize());
    } else if (log_.has(q.slot)) {
        // Committed no-op: hand over the agreement's certificate so a
        // replica that voted drop (and must ignore plain query-replies,
        // §5.4) can still conclude when everyone else already resolved.
        GapCertReply gr;
        gr.view = view_;
        gr.slot = q.slot;
        gr.cert = log_.at(q.slot).gap_cert();
        send_to(from, gr.serialize());
    } else {
        pending_queries_[q.slot].insert(from);
    }
}

void Replica::on_gap_cert_reply(NodeId from, Reader& r) {
    GapCertReply m = GapCertReply::parse(r);
    if (!cfg_.is_replica(from)) return;
    if (!blocked_slot_.has_value() || *blocked_slot_ != m.slot) return;
    if (m.cert.slot != m.slot) return;
    if (m.cert.recv && !m.oc.has_value()) return;
    if (!verify_gap_certificate(m.cert, cfg_, *crypto_)) return;
    if (m.cert.recv && !verify_oc_for_slot(*m.oc, m.slot)) return;

    GapRound& round = gaps_[m.slot];
    if (round.resolved && round.applied) return;
    finalize_gap(m.slot, m.cert.recv, m.oc, m.cert);
}

void Replica::on_query_reply(NodeId from, Reader& r) {
    QueryReply qr = QueryReply::parse(r);
    (void)from;
    if (qr.view != view_) return;
    if (!blocked_slot_.has_value() || *blocked_slot_ != qr.slot) return;
    GapRound& round = gaps_[qr.slot];
    if (round.sent_gap_drop) return;  // §5.4: ignore query-replies once we voted drop
    if (!verify_oc_for_slot(qr.oc, qr.slot)) return;
    fill_slot_with_oc(qr.slot, qr.oc);
    round.resolved = true;
    round.applied = true;
    round.outcome_recv = true;
    unblock(qr.slot);
    apply_gap_outcomes();
}

bool Replica::verify_oc_for_slot(const aom::OrderingCert& oc, std::uint64_t slot) {
    auto it = epoch_start_slot_.find(oc.epoch);
    if (it == epoch_start_slot_.end()) return false;
    if (it->second + oc.seq - 1 != slot) return false;
    return aom::verify_cert(oc, receiver_->verify_context());
}

void Replica::leader_start_gap_agreement(std::uint64_t slot) {
    GapRound& round = gaps_[slot];
    if (round.drops.contains(id()) || round.resolved) return;
    ++stats_.gap_agreements_started;

    // The leader's own drop-notification counts as its gap-drop-message.
    round.drops[id()] = signed_drop(slot);
    broadcast(cfg_.others(id()), signed_find(slot).serialize());
    leader_try_decide(slot);
    arm_gap_retry(slot);
}

// Gap-round messages need retransmission under loss: a single dropped
// GAP-FIND or GAP-DECISION would otherwise stall the slot until a view
// change. Each unresolved round periodically re-sends whatever this
// replica last contributed.
void Replica::arm_gap_retry(std::uint64_t slot) {
    GapRound& round = gaps_[slot];
    if (timer_armed(round.retry_timer) || round.resolved) return;
    round.retry_timer = set_timer(cfg_.query_retry, [this, slot] {
        auto it = gaps_.find(slot);
        if (it == gaps_.end()) return;
        GapRound& r = it->second;
        if (r.resolved || status_ != Status::kNormal) return;

        bool leader = cfg_.leader_of(view_) == id();
        if (leader && r.drops.contains(id()) && !r.decision.has_value()) {
            broadcast(cfg_.others(id()), signed_find(slot).serialize());
        }
        if (leader && r.decision.has_value()) {
            broadcast(cfg_.others(id()), r.decision->serialize());
        }
        if (!leader && r.sent_gap_drop && !r.decision.has_value()) {
            send_to(cfg_.leader_of(view_), signed_drop(slot).serialize());
        }
        if (auto pit = r.prepares.find(id()); pit != r.prepares.end()) {
            broadcast(cfg_.others(id()), pit->second.serialize());
        }
        if (auto cit = r.commits.find(id()); cit != r.commits.end()) {
            broadcast(cfg_.others(id()), cit->second.serialize());
        }
        arm_gap_retry(slot);
    }, "gap_retry");
}

void Replica::on_gap_find(NodeId from, Reader& r) {
    GapFind m = GapFind::parse(r);
    if (m.view != view_ || from != cfg_.leader_of(view_)) return;
    if (!crypto_->verify(from, m.signed_body(), m.signature)) return;

    GapRound& round = gaps_[m.slot];
    round.find_received = true;

    if (log_.has(m.slot) && !log_.at(m.slot).noop()) {
        GapRecv recv;
        recv.view = view_;
        recv.slot = m.slot;
        recv.oc = log_.at(m.slot).oc();
        send_to(from, recv.serialize());
    } else if (blocked_slot_.has_value() && *blocked_slot_ == m.slot && !round.sent_gap_drop) {
        round.sent_gap_drop = true;
        send_to(from, signed_drop(m.slot).serialize());
    }
    // Otherwise: we have not reached this slot yet; we will answer when the
    // delivery or drop-notification arrives (find_received_ is recorded).
}

void Replica::on_gap_recv(NodeId from, Reader& r) {
    GapRecv m = GapRecv::parse(r);
    if (!cfg_.is_replica(from)) return;
    if (m.view != view_ || cfg_.leader_of(view_) != id()) return;
    GapRound& round = gaps_[m.slot];
    if (round.decision.has_value() || round.resolved) return;
    if (!verify_oc_for_slot(m.oc, m.slot)) return;

    GapDecision d;
    d.view = view_;
    d.slot = m.slot;
    d.recv = true;
    d.oc = m.oc;
    d.signature = crypto_->sign(d.signed_body());
    broadcast_decision(m.slot, std::move(d));
}

void Replica::on_gap_drop(NodeId from, Reader& r) {
    GapDrop m = GapDrop::parse(r);
    if (!cfg_.is_replica(from) || m.replica != from) return;
    if (m.view != view_ || cfg_.leader_of(view_) != id()) return;
    if (!crypto_->verify(from, m.signed_body(), m.signature)) return;
    GapRound& round = gaps_[m.slot];
    if (round.decision.has_value() || round.resolved) return;
    round.drops[from] = std::move(m);
    leader_try_decide(m.slot);
}

void Replica::leader_try_decide(std::uint64_t slot) {
    GapRound& round = gaps_[slot];
    if (round.decision.has_value() || round.resolved) return;

    // One valid oc decides recv immediately; this leader path is handled in
    // on_gap_recv. Here: 2f+1 distinct drops decide drop.
    if (round.drops.size() >= cfg_.quorum()) {
        GapDecision d;
        d.view = view_;
        d.slot = slot;
        d.recv = false;
        for (const auto& [node, drop] : round.drops) {
            d.drops.push_back(drop);
            if (d.drops.size() == cfg_.quorum()) break;
        }
        d.signature = crypto_->sign(d.signed_body());
        broadcast_decision(slot, std::move(d));
    }
}

void Replica::broadcast_decision(std::uint64_t slot, GapDecision decision) {
    GapRound& round = gaps_[slot];
    broadcast(cfg_.others(id()), decision.serialize());
    round.decision = std::move(decision);
    try_gap_progress(slot);
}

bool Replica::validate_decision(const GapDecision& d) {
    if (d.recv) {
        return d.oc.has_value() && verify_oc_for_slot(*d.oc, d.slot);
    }
    // 2f+1 distinct valid gap-drops for this (view, slot).
    std::set<NodeId> seen;
    std::size_t valid = 0;
    for (const auto& drop : d.drops) {
        if (!cfg_.is_replica(drop.replica)) continue;
        if (drop.view != d.view || drop.slot != d.slot) continue;
        if (!seen.insert(drop.replica).second) continue;
        if (!crypto_->verify(drop.replica, drop.signed_body(), drop.signature)) continue;
        ++valid;
    }
    return valid >= cfg_.quorum();
}

void Replica::on_gap_decision(NodeId from, Reader& r) {
    GapDecision m = GapDecision::parse(r);
    if (m.view != view_ || from != cfg_.leader_of(view_)) return;
    if (from == id()) return;
    GapRound& round = gaps_[m.slot];
    if (round.decision.has_value() || round.resolved) return;
    if (!crypto_->verify(from, m.signed_body(), m.signature)) return;
    if (!validate_decision(m)) return;
    std::uint64_t slot = m.slot;
    round.decision = std::move(m);
    try_gap_progress(slot);
}

void Replica::on_gap_prepare(NodeId from, Reader& r) {
    GapPrepare m = GapPrepare::parse(r);
    if (!cfg_.is_replica(from) || m.replica != from || m.view != view_) return;
    if (!crypto_->verify(from, m.signed_body(), m.signature)) return;
    std::uint64_t slot = m.slot;
    GapRound& round = gaps_[slot];
    round.prepares[from] = std::move(m);
    try_gap_progress(slot);
}

void Replica::on_gap_commit(NodeId from, Reader& r) {
    GapCommit m = GapCommit::parse(r);
    if (!cfg_.is_replica(from) || m.replica != from || m.view != view_) return;
    if (!crypto_->verify(from, m.signed_body(), m.signature)) return;
    std::uint64_t slot = m.slot;
    GapRound& round = gaps_[slot];
    round.commits[from] = std::move(m);
    try_gap_progress(slot);
}

void Replica::try_gap_progress(std::uint64_t slot) {
    GapRound& round = gaps_[slot];
    if (round.resolved) return;

    // Decision validated -> broadcast our prepare (once).
    if (round.decision.has_value() && !round.prepares.contains(id())) {
        arm_gap_retry(slot);
        GapPrepare p;
        p.view = view_;
        p.replica = id();
        p.slot = slot;
        p.recv = round.decision->recv;
        p.signature = crypto_->sign(p.signed_body());
        round.prepares[id()] = p;
        broadcast(cfg_.others(id()), p.serialize());
    }

    // 2f matching prepares + validated decision -> broadcast commit (once).
    if (round.decision.has_value() && !round.commits.contains(id())) {
        std::size_t matching = 0;
        for (const auto& [node, p] : round.prepares) {
            if (p.recv == round.decision->recv) ++matching;
        }
        if (matching >= static_cast<std::size_t>(2 * cfg_.f)) {
            arm_gap_retry(slot);
            GapCommit c;
            c.view = view_;
            c.replica = id();
            c.slot = slot;
            c.recv = round.decision->recv;
            c.signature = crypto_->sign(c.signed_body());
            round.commits[id()] = c;
            broadcast(cfg_.others(id()), c.serialize());
        }
    }

    // 2f+1 commits with the same outcome -> commit the slot.
    for (bool recv : {false, true}) {
        std::vector<SignerSig> sigs;
        for (const auto& [node, c] : round.commits) {
            if (c.recv == recv) sigs.push_back(SignerSig{node, c.signature});
        }
        if (sigs.size() >= cfg_.quorum()) {
            sigs.resize(cfg_.quorum());
            GapCertificate cert;
            cert.view = view_;
            cert.slot = slot;
            cert.recv = recv;
            cert.commits = std::move(sigs);
            std::optional<aom::OrderingCert> oc;
            if (round.decision.has_value() && round.decision->recv && round.decision->oc) {
                oc = round.decision->oc;
            }
            finalize_gap(slot, recv, oc, std::move(cert));
            return;
        }
    }
}

void Replica::finalize_gap(std::uint64_t slot, bool recv,
                           const std::optional<aom::OrderingCert>& oc, GapCertificate cert) {
    GapRound& round = gaps_[slot];
    if (round.resolved) return;
    if (obs::TraceSink* tr = sim().trace()) {
        tr->phase(sim().now(), id(), "gap_resolve", slot, recv ? 1 : 0);
    }
    round.resolved = true;
    round.outcome_recv = recv;
    round.outcome_oc = oc;
    round.outcome_cert = std::move(cert);
    apply_gap_outcomes();
}

void Replica::apply_gap_outcomes() {
    // Outcomes apply strictly in log order: an agreement for a slot ahead of
    // our log waits until the intermediate slots are filled.
    bool progressed = true;
    while (progressed) {
        progressed = false;
        for (auto& [s, round] : gaps_) {
            if (!round.resolved || round.applied) continue;
            if (s > log_.size() + 1) break;  // ordered map: nothing earlier left

            // Applying the outcome can complete a sync whose GC erases this
            // round: work from copies, and mark it applied by a new lookup.
            const std::uint64_t slot = s;
            if (round.outcome_recv) {
                if (!log_.has(slot)) {
                    if (round.outcome_oc.has_value()) {
                        const aom::OrderingCert oc = *round.outcome_oc;
                        fill_slot_with_oc(slot, oc);
                    } else {
                        // Committed as recv but we lack the certificate:
                        // fetch it from the leader; stay blocked meanwhile.
                        round.resolved = false;
                        start_query(slot);
                        return;
                    }
                }
            } else {
                commit_noop(slot, round.outcome_cert);
            }
            if (auto it = gaps_.find(slot); it != gaps_.end()) it->second.applied = true;
            progressed = true;
            unblock(slot);
            break;  // map may have been mutated (unblock -> drain); restart
        }
    }
}

void Replica::fill_slot_with_oc(std::uint64_t slot, const aom::OrderingCert& oc) {
    if (log_.has(slot)) return;  // already present (request can't overwrite no-op)
    NEO_ASSERT(slot == log_.size() + 1);
    append_request(oc);
    // Serve replicas whose queries we had parked. Reply from the argument,
    // not log_.at(slot): append_request may have executed the slot and
    // taken a checkpoint that GC'd it out of the log already.
    auto it = pending_queries_.find(slot);
    if (it != pending_queries_.end()) {
        QueryReply qr;
        qr.view = view_;
        qr.slot = slot;
        qr.oc = oc;
        sim::Packet wire(qr.serialize());
        for (NodeId peer : it->second) send_to(peer, wire);
        pending_queries_.erase(it);
    }
}

void Replica::commit_noop(std::uint64_t slot, GapCertificate cert) {
    ++stats_.gap_noops_committed;
    if (obs::TraceSink* tr = sim().trace()) tr->phase(sim().now(), id(), "gap_noop", slot);
    view_noop_certs_.push_back(cert);
    if (!log_.has(slot)) {
        NEO_ASSERT(slot == log_.size() + 1);
        append_noop(std::move(cert));
        if (auditor_) {
            auditor_->on_execute(sim().current_shard(), sim().now(), id(), slot, 0, true,
                                 audit_replay_, cfg_.group);
        }
        maybe_take_checkpoint(slot);
        maybe_start_sync();
        return;
    }
    if (log_.at(slot).noop()) return;

    // Speculatively executed request superseded by a committed no-op: roll
    // back and re-execute the tail (§5.4 last paragraph).
    rollback_to_noop(std::move(cert));
}

void Replica::unblock(std::uint64_t slot) {
    if (blocked_slot_.has_value() && *blocked_slot_ == slot) {
        blocked_slot_.reset();
        drain_backlog();
    }
}

// ------------------------------------------------------------- log rewrites
//
// Every write into the log other than the normal-path append_request goes
// through these: a gap no-op (§5.4), a missed no-op from a sync
// certificate (§B.2), the view-change merge (§5.5, §B.1) and state
// transfer.

namespace {
/// A committed no-op: backed by its gap certificate, and executed as soon
/// as it is written (it applies nothing).
LogEntry noop_entry(GapCertificate cert) {
    LogEntry entry;
    entry.cert = std::move(cert);
    entry.executed = true;
    return entry;
}
}  // namespace

void Replica::append_noop(GapCertificate cert) {
    log_.append(noop_entry(std::move(cert)));
    executed_ = log_.size();
}

/// Appends an entry a peer sent (already checked by valid_entry).
void Replica::append_entry(const WireLogEntry& w) {
    if (w.noop) {
        append_noop(w.gap_cert);
    } else {
        append_request(w.oc);
    }
}

/// Undoes every applied application op at slots >= `slot`, newest first.
/// An eager snapshot covering that suffix is void.
void Replica::undo_from(std::uint64_t slot) {
    if (pending_ckpt_.has_value() && pending_ckpt_->slot >= slot) pending_ckpt_.reset();
    for (std::uint64_t s = log_.size(); s >= slot && log_.has(s); --s) {
        LogEntry& e = log_.at(s);
        if (e.applied) {
            app_->undo_last();
            e.applied = false;
        }
    }
}

/// Cuts the log back to slot - 1, undoing what the cut entries applied.
void Replica::rewind_to(std::uint64_t slot) {
    undo_from(slot);
    if (slot <= log_.size()) log_.truncate_to(slot - 1);
    executed_ = log_.size();
}

void Replica::rollback_to_noop(GapCertificate cert) {
    const std::uint64_t slot = cert.slot;
    ++stats_.rollbacks;
    if (obs::TraceSink* tr = sim().trace()) tr->phase(sim().now(), id(), "rollback", slot);
    undo_from(slot);
    log_.replace(slot, noop_entry(std::move(cert)));

    // Re-execute the tail; replies are re-sent with the new log hashes.
    // These slots were all reported to the auditor once already, so the
    // repeat records carry replay=true (frontier-check exempt). The frontier
    // tracks the replay so checkpoint boundaries inside the tail snapshot
    // the exact re-executed state. This is not execute_slot: the client
    // table still lists the rolled-back requests (their replies went out
    // before the rollback), so its at-most-once check would skip them,
    // yet each must run again on the rewound state.
    executed_ = slot - 1;
    for (std::uint64_t s = slot; s <= log_.size(); ++s) {
        LogEntry& e = log_.at(s);
        if (auditor_) {
            auditor_->on_execute(sim().current_shard(), sim().now(), id(), s, audit_digest(e),
                                 e.noop(), true, cfg_.group);
        }
        if (e.noop() || !e.valid_request) {
            e.executed = true;
            executed_ = s;
            maybe_take_checkpoint(s);
            continue;
        }
        auto req = Request::parse_payload(e.oc().payload);
        NEO_ASSERT(req.has_value());
        charge(app_->execute_cost_ns(req->op));
        Bytes result = app_->execute(req->op);
        e.executed = true;
        e.applied = true;
        executed_ = s;
        send_reply(s, std::move(result));
        maybe_take_checkpoint(s);
    }
    executed_ = log_.size();
}

// ----------------------------------------------------------- state sync

void Replica::maybe_start_sync() {
    if (status_ != Status::kNormal) return;
    std::uint64_t target = (log_.size() / cfg_.sync_interval) * cfg_.sync_interval;
    if (target == 0 || target <= last_sync_broadcast_slot_) return;
    last_sync_broadcast_slot_ = target;

    SyncMsg m;
    m.view = view_;
    m.replica = id();
    m.slot = target;
    m.log_hash = log_.hash_at(target);
    // Bind the application-state root when this boundary carries an eager
    // snapshot: 2f+1 matching (log_hash, app_hash) pairs make the
    // checkpoint stable and transferable.
    if (pending_ckpt_.has_value() && pending_ckpt_->slot == target) {
        m.app_hash = pending_ckpt_->tree->root();
    }
    // Ship gap certificates for no-ops committed this view above the sync
    // point so lagging replicas overwrite divergent speculation (§B.2).
    for (const auto& cert : view_noop_certs_) {
        if (cert.slot <= target) m.drops.push_back(cert);
    }
    m.signature = crypto_->sign(m.signed_body());
    pending_syncs_[target][id()] = m;
    broadcast(cfg_.others(id()), m.serialize());
    try_complete_sync(target);
}

void Replica::on_sync(NodeId from, Reader& r) {
    SyncMsg m = SyncMsg::parse(r);
    if (!cfg_.is_replica(from) || m.replica != from) return;
    if (m.view != view_) return;
    if (m.slot <= sync_point_) return;
    if (!crypto_->verify(from, m.signed_body(), m.signature)) return;
    std::uint64_t slot = m.slot;
    pending_syncs_[slot][from] = std::move(m);
    try_complete_sync(slot);
}

void Replica::try_complete_sync(std::uint64_t slot) {
    if (slot <= sync_point_ || !log_.has(slot)) return;
    auto it = pending_syncs_.find(slot);
    if (it == pending_syncs_.end() || it->second.size() < cfg_.quorum()) return;

    // First apply committed no-ops we may have missed.
    for (auto& [node, msg] : it->second) {
        for (const auto& cert : msg.drops) {
            if (!cert.recv && log_.has(cert.slot) && !log_.at(cert.slot).noop()) {
                if (verify_gap_certificate(cert, cfg_, *crypto_)) rollback_to_noop(cert);
            }
        }
    }

    // Then count signatures matching BOTH our log hash and our app-state
    // root at this boundary (zero when no eager snapshot is held — e.g. a
    // replica whose frontier jumped over the boundary during a merge; it
    // skips this certificate and catches up at the next one).
    Digest32 my_hash = log_.hash_at(slot);
    Digest32 my_app{};
    if (pending_ckpt_.has_value() && pending_ckpt_->slot == slot) {
        my_app = pending_ckpt_->tree->root();
    }
    std::vector<SignerSig> sigs;
    for (const auto& [node, msg] : it->second) {
        if (msg.log_hash == my_hash && msg.app_hash == my_app) {
            sigs.push_back(SignerSig{node, msg.signature});
        }
    }
    if (sigs.size() < cfg_.quorum()) return;
    sigs.resize(cfg_.quorum());

    sync_point_ = slot;
    sync_cert_.view = view_;
    sync_cert_.slot = slot;
    sync_cert_.log_hash = my_hash;
    sync_cert_.app_hash = my_app;
    sync_cert_.sigs = std::move(sigs);
    ++stats_.syncs_completed;
    if (obs::TraceSink* tr = sim().trace()) tr->phase(sim().now(), id(), "sync_complete", slot);

    // Tell the app its prefix is durable (count applied ops up to slot,
    // extending the running counter from the previous sync point).
    for (std::uint64_t s = committed_ops_slot_ + 1; s <= slot; ++s) {
        if (log_.at(s).applied) ++committed_ops_;
    }
    committed_ops_slot_ = slot;
    app_->commit_prefix(committed_ops_);

    // Prune bookkeeping below the new sync point.
    pending_syncs_.erase(pending_syncs_.begin(), pending_syncs_.upper_bound(slot));
    std::erase_if(view_noop_certs_, [slot](const GapCertificate& c) { return c.slot <= slot; });
    std::erase_if(gaps_, [slot](const auto& kv) { return kv.first <= slot && kv.second.resolved; });

    // Checkpoint promotion: the certificate binds our snapshot's root, so
    // the eager snapshot becomes the stable checkpoint and the log prefix
    // it covers is garbage-collected.
    if (pending_ckpt_.has_value() && pending_ckpt_->slot == slot && my_app != Digest32{}) {
        pending_ckpt_->log_hash = my_hash;
        pending_ckpt_->cert = sync_cert_;
        stable_ckpt_ = std::move(pending_ckpt_);
        pending_ckpt_.reset();
        log_.gc_prefix(slot);
        ++stats_.checkpoints_stable;
        if (obs::TraceSink* tr = sim().trace()) {
            tr->phase(sim().now(), id(), "ckpt_stable", slot);
        }
    }
}

// --------------------------------------- checkpointing + crash recovery

std::uint64_t Replica::audit_digest(const LogEntry& e) const {
    if (e.noop()) return 0;
    std::uint64_t d = obs::trace_id(e.oc().payload);
    // Equivocation fault injection: report a corrupted execution digest so
    // this replica disagrees with the honest ones at the same slot.
    return equivocate_ ? (d ^ 0x6571756976ULL) : d;
}

/// Resets the auditor's execution frontier for this replica to `slot`: a
/// replayed no-op record, which the frontier check accepts below the
/// previous frontier.
void Replica::audit_frontier(std::uint64_t slot) {
    if (auditor_) {
        auditor_->on_execute(sim().current_shard(), sim().now(), id(), slot, 0, true,
                             /*replay=*/true, cfg_.group);
    }
}

void Replica::maybe_take_checkpoint(std::uint64_t slot) {
    if (cfg_.checkpoint_interval == 0) return;
    if (slot == 0 || slot % cfg_.checkpoint_interval != 0) return;
    if (executed_ != slot) return;  // snapshot only at the exact frontier
    if (slot < committed_ops_slot_) return;
    if (stable_ckpt_.has_value() && slot <= stable_ckpt_->slot) return;
    if (pending_ckpt_.has_value() && pending_ckpt_->slot >= slot) return;

    Checkpoint ck;
    ck.slot = slot;
    ck.applied_ops = committed_ops_;
    for (std::uint64_t s = committed_ops_slot_ + 1; s <= slot; ++s) {
        if (log_.at(s).applied) ++ck.applied_ops;
    }
    ck.payload = build_checkpoint_payload(slot, ck.applied_ops);
    ck.tree = std::make_unique<app::MerkleTree>(
        BytesView(ck.payload.data(), ck.payload.size()));
    ck.log_hash = log_.hash_at(slot);
    // Snapshot + tree construction cost: one hash per chunk for the leaves
    // plus roughly as many again for the interior levels.
    crypto_->meter().charge(static_cast<std::int64_t>(2 * ck.tree->n_chunks()) *
                            crypto_->root().costs().hash_base_ns);
    pending_ckpt_ = std::move(ck);
    ++stats_.checkpoints_taken;
    if (obs::TraceSink* tr = sim().trace()) tr->phase(sim().now(), id(), "ckpt_take", slot);
}

Bytes Replica::build_checkpoint_payload(std::uint64_t slot, std::uint64_t applied_ops) const {
    Writer w(256);
    w.u64(slot);
    w.u64(applied_ops);
    w.blob(app_->snapshot());
    w.u32(static_cast<std::uint32_t>(clients_.size()));
    for (const auto& [client, rec] : clients_) {
        w.u32(client);
        w.u64(rec.last_request_id);
        w.blob(rec.last_result);
    }
    // Only epochs that started at or before the boundary: later entries may
    // exist on a subset of the replicas, and the payload must be a
    // deterministic function of the committed prefix.
    std::uint32_t n_epochs = 0;
    for (const auto& [epoch, start] : epoch_start_slot_) {
        if (start <= slot) ++n_epochs;
    }
    w.u32(n_epochs);
    for (const auto& [epoch, start] : epoch_start_slot_) {
        if (start <= slot) {
            w.u64(epoch);
            w.u64(start);
        }
    }
    return std::move(w).take();
}

void Replica::install_checkpoint(std::uint64_t slot, const Digest32& log_hash,
                                 const SyncCertificate& cert, const Bytes& payload,
                                 bool adopt_as_stable) {
    // Parse everything first (CodecError propagates to the dispatcher and
    // the packet is dropped without touching replica state).
    Reader r(BytesView(payload.data(), payload.size()));
    std::uint64_t pslot = r.u64();
    std::uint64_t applied_ops = r.u64();
    Bytes snap = r.blob();
    std::uint32_t n_clients = r.u32();
    std::vector<std::tuple<NodeId, std::uint64_t, Bytes>> client_rows;
    client_rows.reserve(n_clients);
    for (std::uint32_t i = 0; i < n_clients; ++i) {
        NodeId client = r.u32();
        std::uint64_t last = r.u64();
        client_rows.emplace_back(client, last, r.blob());
    }
    std::uint32_t n_epochs = r.u32();
    std::vector<std::pair<EpochNum, std::uint64_t>> epoch_rows;
    epoch_rows.reserve(n_epochs);
    for (std::uint32_t i = 0; i < n_epochs; ++i) {
        EpochNum epoch = r.u64();
        std::uint64_t start = r.u64();
        epoch_rows.emplace_back(epoch, start);
    }
    r.expect_end();
    if (pslot != slot) throw CodecError("checkpoint payload/slot mismatch");

    app_->restore(BytesView(snap.data(), snap.size()));
    log_.reset_base(slot, log_hash);
    executed_ = slot;
    sync_point_ = slot;
    committed_ops_ = applied_ops;
    committed_ops_slot_ = slot;
    app_->commit_prefix(committed_ops_);
    sync_cert_ = cert;
    last_sync_broadcast_slot_ = std::max(last_sync_broadcast_slot_, slot);

    clients_.clear();
    for (auto& [client, last, result] : client_rows) {
        ClientRecord rec;
        rec.last_request_id = last;
        rec.last_result = std::move(result);
        // cached_reply stays empty: replies carry per-replica MACs and are
        // not transferable; duplicate re-sends are answered by peers.
        clients_[client] = std::move(rec);
    }
    for (const auto& [epoch, start] : epoch_rows) {
        epoch_start_slot_.insert({epoch, start});  // merge; never overwrite
    }

    gaps_.clear();
    blocked_slot_.reset();
    pending_queries_.clear();
    pending_syncs_.erase(pending_syncs_.begin(), pending_syncs_.upper_bound(slot));
    std::erase_if(view_noop_certs_, [slot](const GapCertificate& c) { return c.slot <= slot; });
    if (pending_ckpt_.has_value() && pending_ckpt_->slot <= slot) pending_ckpt_.reset();

    if (adopt_as_stable && (!stable_ckpt_.has_value() || stable_ckpt_->slot < slot)) {
        Checkpoint ck;
        ck.slot = slot;
        ck.applied_ops = applied_ops;
        ck.payload = payload;
        ck.tree = std::make_unique<app::MerkleTree>(
            BytesView(ck.payload.data(), ck.payload.size()));
        ck.log_hash = log_hash;
        ck.cert = cert;
        stable_ckpt_ = std::move(ck);
    }
    ++stats_.ckpt_installs;
    // Restore marker: the recovering replica's next live slot is not
    // flagged as a regression.
    audit_frontier(slot);
    if (obs::TraceSink* tr = sim().trace()) tr->phase(sim().now(), id(), "ckpt_install", slot);
}

void Replica::send_ckpt_meta(NodeId to) {
    if (!stable_ckpt_.has_value()) return;
    CkptMeta m;
    m.slot = stable_ckpt_->slot;
    m.n_chunks = stable_ckpt_->tree->n_chunks();
    m.chunk_size = static_cast<std::uint32_t>(stable_ckpt_->tree->chunk_size());
    m.cert = stable_ckpt_->cert;
    send_to(to, m.serialize());
}

void Replica::on_ckpt_req(NodeId from, Reader& r) {
    CkptReq req = CkptReq::parse(r);
    if (!cfg_.is_replica(from)) return;
    if (!stable_ckpt_.has_value() || stable_ckpt_->slot < req.min_slot) return;
    send_ckpt_meta(from);
}

void Replica::on_ckpt_meta(NodeId from, Reader& r) {
    CkptMeta m = CkptMeta::parse(r);
    if (!cfg_.is_replica(from)) return;
    if (cfg_.checkpoint_interval == 0) return;
    if (m.slot <= log_.size() || m.slot <= sync_point_) return;  // nothing to gain
    if (ckpt_fetch_.has_value() && ckpt_fetch_->slot >= m.slot) return;
    if (m.n_chunks == 0 || m.chunk_size == 0) return;
    if (m.cert.slot != m.slot || m.cert.app_hash == Digest32{}) return;
    if (!verify_sync_certificate(m.cert, cfg_, *crypto_)) return;

    CkptFetch f;
    f.slot = m.slot;
    f.cert = m.cert;
    f.n_chunks = m.n_chunks;
    f.chunks.resize(m.n_chunks);
    f.have.assign(m.n_chunks, false);
    f.source = from;
    ckpt_fetch_ = std::move(f);
    for (std::uint32_t i = 0; i < m.n_chunks; ++i) {
        CkptChunkReq cr;
        cr.slot = m.slot;
        cr.index = i;
        send_to(from, cr.serialize());
    }
}

void Replica::on_ckpt_chunk_req(NodeId from, Reader& r) {
    CkptChunkReq req = CkptChunkReq::parse(r);
    if (!cfg_.is_replica(from)) return;
    if (!stable_ckpt_.has_value() || stable_ckpt_->slot != req.slot) return;
    if (req.index >= stable_ckpt_->tree->n_chunks()) return;
    CkptChunk c;
    c.slot = req.slot;
    c.index = req.index;
    c.n_chunks = stable_ckpt_->tree->n_chunks();
    BytesView chunk = stable_ckpt_->tree->chunk(req.index);
    c.chunk.assign(chunk.data(), chunk.data() + chunk.size());
    c.siblings = stable_ckpt_->tree->prove(req.index).siblings;
    send_to(from, c.serialize());
}

void Replica::on_ckpt_chunk(NodeId from, Reader& r) {
    CkptChunk c = CkptChunk::parse(r);
    (void)from;
    if (!ckpt_fetch_.has_value()) return;
    CkptFetch& f = *ckpt_fetch_;
    if (c.slot != f.slot || c.n_chunks != f.n_chunks) return;
    if (c.index >= f.n_chunks || f.have[c.index]) return;

    app::MerkleProof proof;
    proof.index = c.index;
    proof.n_leaves = f.n_chunks;
    proof.siblings = c.siblings;
    crypto_->meter().charge(static_cast<std::int64_t>(proof.siblings.size() + 1) *
                            crypto_->root().costs().hash_base_ns);
    if (!app::merkle_verify(f.cert.app_hash, BytesView(c.chunk.data(), c.chunk.size()),
                            proof)) {
        return;  // Byzantine server: chunk does not belong to the root
    }
    f.chunks[c.index] = std::move(c.chunk);
    f.have[c.index] = true;
    if (++f.n_have < f.n_chunks) return;

    Bytes payload;
    for (const auto& ch : f.chunks) payload.insert(payload.end(), ch.begin(), ch.end());
    std::uint64_t slot = f.slot;
    SyncCertificate cert = f.cert;
    ckpt_fetch_.reset();
    install_checkpoint(slot, cert.log_hash, cert, payload, /*adopt_as_stable=*/true);

    if (recovering_) {
        continue_recovery();
    } else if (pending_view_start_.has_value()) {
        // The view-change state transfer was answered with a checkpoint:
        // retry the deferred VIEW-START against the restored log.
        ViewStart vs = *pending_view_start_;
        pending_view_start_.reset();
        status_ = Status::kViewChange;
        state_transfer_active_ = false;
        adopt_view_start(vs);
    } else {
        state_transfer_active_ = false;
    }
}

void Replica::crash() {
    if (crashed_) return;
    crashed_ = true;
    ++stats_.crashes;
    if (obs::TraceSink* tr = sim().trace()) tr->phase(sim().now(), id(), "crash", log_.size());
    net().set_node_down(id(), true);
    invalidate_timers();

    // Volatile state is lost. Durable across the crash: crypto keys, the
    // view/epoch bookkeeping (view_, target_view_, epoch_start_slot_,
    // epoch_certs_, sequencer_) and the latest stable checkpoint.
    log_ = Log{};
    executed_ = 0;
    sync_point_ = 0;
    committed_ops_ = 0;
    committed_ops_slot_ = 0;
    sync_cert_ = SyncCertificate{};
    last_sync_broadcast_slot_ = 0;
    pending_syncs_.clear();
    view_noop_certs_.clear();
    gaps_.clear();
    blocked_slot_.reset();
    backlog_.clear();
    pending_queries_.clear();
    clients_.clear();
    pending_client_requests_.clear();
    view_changes_.clear();
    pending_view_start_.reset();
    epoch_starts_.clear();
    waiting_epoch_.reset();
    probe_join_view_.reset();
    state_transfer_active_ = false;
    pending_ckpt_.reset();
    ckpt_fetch_.reset();
    recovering_ = false;
    status_ = Status::kNormal;
    app_->restore(BytesView(genesis_snapshot_.data(), genesis_snapshot_.size()));
}

void Replica::recover() {
    if (!crashed_) return;
    crashed_ = false;
    ++stats_.recoveries;
    net().set_node_down(id(), false);
    if (obs::TraceSink* tr = sim().trace()) {
        tr->phase(sim().now(), id(), "recover", stable_checkpoint_slot());
    }

    if (stable_ckpt_.has_value()) {
        Bytes payload = stable_ckpt_->payload;
        install_checkpoint(stable_ckpt_->slot, stable_ckpt_->log_hash, stable_ckpt_->cert,
                           payload, /*adopt_as_stable=*/false);
    } else {
        audit_frontier(0);  // no durable checkpoint: back to genesis
    }
    // Rejoin the aom stream mid-epoch: the receiver adopts the live sequence
    // number from the first authenticated packet (HMAC mode; a PK hash
    // chain cannot be rejoined mid-epoch — see docs/SCENARIOS.md).
    receiver_->resume_mid_epoch(view_.epoch, sequencer_);
    if (auditor_) {
        auditor_->on_aom_resume(sim().current_shard(), sim().now(), id());
    }
    recovering_ = true;
    status_ = Status::kStateTransfer;
    recovery_last_size_ = log_.size();
    recovery_idle_polls_ = 0;
    recovery_poll_round_ = 0;
    CkptReq req;
    req.min_slot = log_.size() + 1;
    broadcast(cfg_.others(id()), req.serialize());
    continue_recovery();
    arm_progress_timer();
}

void Replica::continue_recovery() {
    if (!recovering_ || crashed_) return;

    // Finished when the parked live stream is contiguous with the log tip
    // (drain_backlog then carries us forward), or the cluster looks idle
    // and peers have nothing beyond our tip.
    if (!backlog_.empty()) {
        const aom::Delivery& d = backlog_.front();
        auto it = epoch_start_slot_.find(d.epoch);
        if (d.epoch == view_.epoch && it != epoch_start_slot_.end() &&
            it->second + d.seq - 1 <= log_.size() + 1) {
            finish_recovery();
            return;
        }
    } else if (log_.size() == recovery_last_size_) {
        if (++recovery_idle_polls_ >= 3) {
            finish_recovery();
            return;
        }
    }
    if (log_.size() != recovery_last_size_) {
        recovery_last_size_ = log_.size();
        recovery_idle_polls_ = 0;
    }

    if (ckpt_fetch_.has_value()) {
        // Re-request chunks still missing (loss on the fetch path).
        for (std::uint32_t i = 0; i < ckpt_fetch_->n_chunks; ++i) {
            if (ckpt_fetch_->have[i]) continue;
            CkptChunkReq cr;
            cr.slot = ckpt_fetch_->slot;
            cr.index = i;
            send_to(ckpt_fetch_->source, cr.serialize());
        }
    } else {
        // Pull log entries above our tip from a rotating peer; also re-ask
        // for a checkpoint in case peers GC'd past our tip meanwhile.
        std::vector<NodeId> peers = cfg_.others(id());
        NodeId target = peers[recovery_poll_round_ % peers.size()];
        ++recovery_poll_round_;
        request_state(target, log_.size(), log_.size() + 4'096);
        CkptReq req;
        req.min_slot = log_.size() + 1;
        send_to(target, req.serialize());
    }
    set_timer(cfg_.query_retry, [this] { continue_recovery(); }, "recovery_poll");
}

void Replica::finish_recovery() {
    recovering_ = false;
    status_ = Status::kNormal;
    if (obs::TraceSink* tr = sim().trace()) {
        tr->phase(sim().now(), id(), "recover_done", log_.size());
    }
    drain_backlog();
    maybe_start_sync();
}

// ------------------------------------------------------------------ metrics

void Replica::register_metrics(obs::Registry& reg, const std::string& prefix) {
    reg.add_collector([this, prefix](obs::Registry& r) {
        r.set_value(prefix + ".requests_executed",
                    static_cast<double>(stats_.requests_executed));
        r.set_value(prefix + ".replies_sent", static_cast<double>(stats_.replies_sent));
        r.set_value(prefix + ".rollbacks", static_cast<double>(stats_.rollbacks));
        r.set_value(prefix + ".gap_agreements_started",
                    static_cast<double>(stats_.gap_agreements_started));
        r.set_value(prefix + ".gap_noops_committed",
                    static_cast<double>(stats_.gap_noops_committed));
        r.set_value(prefix + ".queries_sent", static_cast<double>(stats_.queries_sent));
        r.set_value(prefix + ".view_changes_started",
                    static_cast<double>(stats_.view_changes_started));
        r.set_value(prefix + ".views_entered", static_cast<double>(stats_.views_entered));
        r.set_value(prefix + ".syncs_completed", static_cast<double>(stats_.syncs_completed));
        r.set_value(prefix + ".checkpoints_taken",
                    static_cast<double>(stats_.checkpoints_taken));
        r.set_value(prefix + ".checkpoints_stable",
                    static_cast<double>(stats_.checkpoints_stable));
        r.set_value(prefix + ".ckpt_installs", static_cast<double>(stats_.ckpt_installs));
        r.set_value(prefix + ".crashes", static_cast<double>(stats_.crashes));
        r.set_value(prefix + ".recoveries", static_cast<double>(stats_.recoveries));
        r.set_value(prefix + ".stable_ckpt_slot",
                    static_cast<double>(stable_checkpoint_slot()));
        r.set_value(prefix + ".log_base", static_cast<double>(log_.base()));
        r.set_value(prefix + ".executed_frontier", static_cast<double>(executed_));
        r.set_value(prefix + ".sync_point", static_cast<double>(sync_point_));
        if (receiver_) {
            r.set_value(prefix + ".aom.delivered_messages",
                        static_cast<double>(receiver_->delivered_messages()));
            r.set_value(prefix + ".aom.delivered_drops",
                        static_cast<double>(receiver_->delivered_drops()));
            r.set_value(prefix + ".aom.rejected_packets",
                        static_cast<double>(receiver_->rejected_packets()));
            // Adaptive confirm batching: how often the controller sealed by
            // reaching its load-tracked threshold vs the latency budget.
            const sim::AdaptiveBatchController& cc = receiver_->confirm_controller();
            r.set_value(prefix + ".aom.confirm_seals", static_cast<double>(cc.seals()));
            r.set_value(prefix + ".aom.confirm_size_seals",
                        static_cast<double>(cc.size_seals()));
            r.set_value(prefix + ".aom.confirm_batch_target",
                        static_cast<double>(cc.target()));
        }
    });
    register_rx_metrics(reg, prefix, &msg_kind_name);
}

}  // namespace neo::neobft
