#include "aom/sequencer.hpp"

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace neo::aom {

SequencerConfig SequencerConfig::software_profile() {
    SequencerConfig cfg;
    cfg.enforce_hm_port_limit = false;  // software switch: no loopback budget
    cfg.forward_ns = 2'000;
    cfg.hm_auth_latency_ns = 4'000;  // software HMAC vector, no deep pipeline
    cfg.pk_chain_service_ns = 1'000;     // per-packet software processing
    cfg.pk_sign_service_ns = 18'000;     // CPU signing, no FPGA
    cfg.pk_sign_latency_ns = 18'000;
    cfg.precompute.refill_per_sec = 400'000.0;
    return cfg;
}

void SequencerSwitch::install_group(const GroupConfig& group, EpochNum epoch) {
    NEO_ASSERT_MSG(!cfg_.enforce_hm_port_limit ||
                       static_cast<int>(group.receivers.size()) <= kHmMaxReceivers ||
                       group.variant == AuthVariant::kPublicKey,
                   "HM variant supports at most 64 receivers (16 loopback ports)");
    NEO_ASSERT_MSG(group.group < kMaxGroupId,
                   "group address exceeds the dense routing-table bound");
    auto gs = std::make_unique<GroupState>();
    gs->cfg = group;
    gs->epoch = epoch;
    gs->next_seq = 1;
    gs->chain = chain_genesis(group.group, epoch);
    if (group.variant == AuthVariant::kHmacVector) {
        NEO_ASSERT_MSG(attached(), "an HM group's keys are bound to the switch's node id");
        gs->hm_keys.reserve(group.receivers.size());
        for (NodeId receiver : group.receivers) gs->hm_keys.push_back(keys_->hm_key(id(), receiver));
    }
    if (groups_.size() <= group.group) groups_.resize(group.group + 1);
    groups_[group.group] = std::move(gs);
}

void SequencerSwitch::remove_group(GroupId group) {
    if (group < groups_.size()) groups_[group].reset();
}

void SequencerSwitch::register_metrics(obs::Registry& reg, const std::string& prefix) {
    reg.add_collector([this, prefix](obs::Registry& r) {
        r.set_value(prefix + ".packets_sequenced", static_cast<double>(packets_sequenced_));
        r.set_value(prefix + ".signatures_generated",
                    static_cast<double>(signatures_generated_));
        r.set_value(prefix + ".signatures_skipped", static_cast<double>(signatures_skipped_));
        r.set_value(prefix + ".tail_drops", static_cast<double>(tail_drops_));
        r.set_value(prefix + ".precompute_stock", stock_);
    });
}

void SequencerSwitch::refill_stock() {
    if (!stock_initialized_) {
        stock_ = static_cast<double>(cfg_.precompute.table_capacity);
        last_refill_ = sim().now();
        stock_initialized_ = true;
        return;
    }
    sim::Time elapsed = sim().now() - last_refill_;
    last_refill_ = sim().now();
    stock_ += cfg_.precompute.refill_per_sec * sim::to_sec(elapsed);
    if (stock_ > static_cast<double>(cfg_.precompute.table_capacity)) {
        stock_ = static_cast<double>(cfg_.precompute.table_capacity);
    }
}

void SequencerSwitch::on_packet(NodeId from, const sim::Packet& wire) {
    (void)from;
    BytesView data = wire.view();
    auto kind = peek_kind(data);
    if (!kind || *kind != static_cast<std::uint8_t>(Wire::kData)) return;  // not for us

    DataPacket pkt;
    try {
        Reader r(data.subspan(1));
        pkt = DataPacket::parse(r);
    } catch (const CodecError&) {
        return;  // malformed; switches drop silently
    }

    GroupState* gsp = find_group(pkt.group);
    if (!gsp) return;  // no route for this group address
    GroupState& gs = *gsp;

    if (stalled_) return;  // faulty switch: blackholes traffic

    if (in_flight_ >= cfg_.max_queue_depth) {
        ++tail_drops_;
        if (obs::TraceSink* tr = sim().trace()) tr->phase(sim().now(), id(), "tail_drop");
        return;
    }

    // Pipeline occupancy (1/throughput) vs pipeline latency: the data plane
    // is deeply pipelined, so a packet occupies each stage only briefly
    // (service) but takes many passes end to end (latency). Sequence
    // numbers are assigned at ingress in arrival order.
    sim::Time service;
    sim::Time auth_latency;
    if (gs.cfg.variant == AuthVariant::kHmacVector) {
        service = sim::hm_service_ns(static_cast<int>(gs.cfg.receivers.size()));
        auth_latency = cfg_.hm_auth_latency_ns;
    } else {
        service = cfg_.pk_chain_service_ns;
        auth_latency = 0;  // chain stamping is in-line; signing latency added below
    }
    sim::Time start = std::max(sim().now(), pipe_busy_until_);
    sim::Time emit_time = start + cfg_.forward_ns + service + auth_latency;
    pipe_busy_until_ = start + service;
    ++in_flight_;
    ++packets_sequenced_;

    if (gs.cfg.variant == AuthVariant::kHmacVector) {
        process_hm(gs, pkt, emit_time);
    } else {
        process_pk(gs, pkt, emit_time);
    }
    sim().at(emit_time, [this] { --in_flight_; });
}

void SequencerSwitch::process_hm(GroupState& gs, const DataPacket& pkt, sim::Time emit_time) {
    SeqNum seq = gs.next_seq++;
    if (obs::TraceSink* tr = sim().trace()) {
        tr->seq_stamp(sim().now(), id(), gs.cfg.group, seq, /*with_signature=*/false);
        // Request-scoped "sequence" span: ingress -> stamped emission. Both
        // boundaries are known here, so the end event (future t) is recorded
        // immediately — exports order by t, not record order.
        std::uint64_t tid = obs::trace_id(pkt.payload);
        tr->span_begin(sim().now(), id(), "sequence", tid, seq);
        tr->span_end(emit_time, id(), "sequence", tid, seq);
    }
    int receivers = static_cast<int>(gs.cfg.receivers.size());
    int subgroups = hm_subgroup_count(receivers);

    Bytes input = auth_input(gs.cfg.group, gs.epoch, seq, pkt.digest);

    // One packet per subgroup, each carrying that subgroup's MACs; all
    // packets go to all receivers so everyone can assemble the full vector
    // from the same shared buffers.
    std::vector<sim::Packet> wire_packets;
    wire_packets.reserve(static_cast<std::size_t>(subgroups));
    for (int sg = 0; sg < subgroups; ++sg) {
        HmPacket out;
        out.group = gs.cfg.group;
        out.epoch = gs.epoch;
        out.seq = seq;
        out.digest = pkt.digest;
        out.subgroup = static_cast<std::uint8_t>(sg);
        out.n_subgroups = static_cast<std::uint8_t>(subgroups);
        int lo = sg * kHmSubgroupSize;
        int hi = std::min(receivers, (sg + 1) * kHmSubgroupSize);
        if (hi - lo == kHmSubgroupSize) {
            // Full subgroup: same input, four keys — one 4-lane SipHash
            // dispatch (see crypto::halfsiphash24_x4) instead of four
            // scalar passes over the input.
            std::uint32_t macs[kHmSubgroupSize];
            crypto::halfsiphash24_x4(&gs.hm_keys[static_cast<std::size_t>(lo)], input, macs);
            out.macs.insert(out.macs.end(), macs, macs + kHmSubgroupSize);
        } else {
            for (int slot = lo; slot < hi; ++slot) {
                out.macs.push_back(
                    crypto::halfsiphash24(gs.hm_keys[static_cast<std::size_t>(slot)], input));
            }
        }
        out.payload = pkt.payload;
        wire_packets.push_back(out.serialize());
    }

    for (NodeId receiver : gs.cfg.receivers) {
        for (const sim::Packet& wp : wire_packets) emit(receiver, emit_time, wp);
    }
}

void SequencerSwitch::process_pk(GroupState& gs, const DataPacket& pkt, sim::Time emit_time) {
    SeqNum seq = gs.next_seq++;
    Digest32 prev = gs.chain;
    Digest32 c_seq = chain_next(prev, gs.cfg.group, gs.epoch, seq, pkt.digest);
    gs.chain = c_seq;

    PkPacket out;
    out.group = gs.cfg.group;
    out.epoch = gs.epoch;
    out.seq = seq;
    out.digest = pkt.digest;
    out.prev_chain = prev;
    out.payload = pkt.payload;

    // Signing-ratio controller (§4.4): sign when the pre-computed stock is
    // above the low-water mark and the signer queue is not overloaded.
    refill_stock();
    bool signer_available = signer_busy_until_ <=
        emit_time + static_cast<sim::Time>(cfg_.pk_signer_queue) * cfg_.pk_sign_service_ns;
    // Below the low-water mark the controller rations signatures, but never
    // lets an unsigned run grow unboundedly (receivers buffer until the next
    // signature, so the run length bounds their memory and added latency).
    constexpr std::uint32_t kMaxUnsignedRun = 32;
    bool stock_ok = stock_ >= 1.0 &&
                    (stock_ >= static_cast<double>(cfg_.precompute.low_water_mark) ||
                     gs.unsigned_run >= kMaxUnsignedRun);
    sim::Time depart = emit_time;
    if (signer_available && stock_ok) {
        stock_ -= 1.0;
        signer_busy_until_ = std::max(signer_busy_until_, emit_time) + cfg_.pk_sign_service_ns;
        depart = signer_busy_until_ + cfg_.pk_sign_latency_ns;
        out.signature = crypto_->sign(BytesView(c_seq.data(), c_seq.size()));
        crypto_->meter().drain();  // switch hardware: cost modelled separately
        crypto_->meter().drain_async();
        ++signatures_generated_;
        gs.head_signed = true;
        gs.unsigned_run = 0;
    } else {
        ++signatures_skipped_;
        gs.head_signed = false;
        ++gs.unsigned_run;
    }
    gs.head_seq = seq;
    gs.head_prev = prev;
    gs.head_digest = pkt.digest;
    ++gs.checkpoint_generation;
    if (obs::TraceSink* tr = sim().trace()) {
        tr->seq_stamp(sim().now(), id(), gs.cfg.group, seq, gs.head_signed);
        std::uint64_t tid = obs::trace_id(pkt.payload);
        tr->span_begin(sim().now(), id(), "sequence", tid, seq);
        tr->span_end(depart, id(), "sequence", tid, seq);
    }

    sim::Packet wire(out.serialize());
    for (NodeId receiver : gs.cfg.receivers) emit(receiver, depart, wire);

    if (!gs.head_signed) schedule_checkpoint(gs.cfg.group);
}

void SequencerSwitch::schedule_checkpoint(GroupId group) {
    GroupState* gsp = find_group(group);
    if (!gsp) return;
    std::uint64_t generation = gsp->checkpoint_generation;
    sim().after(cfg_.checkpoint_idle_ns, [this, group, generation] {
        GroupState* git = find_group(group);
        if (!git) return;
        GroupState& gs = *git;
        if (gs.checkpoint_generation != generation || gs.head_signed || stalled_) return;

        refill_stock();
        if (stock_ < 1.0) {
            schedule_checkpoint(group);  // try again next idle period
            return;
        }
        stock_ -= 1.0;
        Digest32 c_head =
            chain_next(gs.head_prev, gs.cfg.group, gs.epoch, gs.head_seq, gs.head_digest);
        PkPacket cp;
        cp.group = gs.cfg.group;
        cp.epoch = gs.epoch;
        cp.seq = gs.head_seq;
        cp.digest = gs.head_digest;
        cp.prev_chain = gs.head_prev;
        cp.checkpoint = true;
        cp.signature = crypto_->sign(BytesView(c_head.data(), c_head.size()));
        crypto_->meter().drain();
        crypto_->meter().drain_async();
        ++signatures_generated_;
        gs.head_signed = true;
        gs.unsigned_run = 0;
        if (obs::TraceSink* tr = sim().trace()) {
            tr->phase(sim().now(), id(), "checkpoint", gs.head_seq);
        }

        signer_busy_until_ = std::max(signer_busy_until_, sim().now()) + cfg_.pk_sign_service_ns;
        sim::Time depart = signer_busy_until_ + cfg_.pk_sign_latency_ns;
        sim::Packet wire(cp.serialize());
        for (NodeId receiver : gs.cfg.receivers) emit(receiver, depart, wire);
    });
}

}  // namespace neo::aom
