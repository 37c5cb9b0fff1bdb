#include "harness.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>

#include "aom/config_service.hpp"
#include "apps/kvstore.hpp"
#include "baselines/hotstuff.hpp"
#include "baselines/minbft.hpp"
#include "baselines/pbft.hpp"
#include "baselines/zyzzyva.hpp"
#include "common/assert.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "harness/bench_json.hpp"
#include "harness/runner.hpp"
#include "neobft/client.hpp"
#include "neobft/replica.hpp"
#include "neobft/shard_client.hpp"
#include "neobft/shard_router.hpp"
#include "obs/critical_path.hpp"
#include "scenario/byz_sequencer.hpp"

namespace neo::bench {

namespace {
constexpr NodeId kConfigId = 900;
constexpr NodeId kSwitchBase = 910;
constexpr NodeId kServerId = 950;
constexpr NodeId kClientBase = 1'000;
constexpr NodeId kReplicaBase = 1;
constexpr GroupId kGroup = 7;
}  // namespace

OpGen echo_ops(std::size_t size) {
    // Stateless: op (client, k) is generated from its own counter-based
    // stream, so concurrent clients on different simulator partitions can
    // generate ops without sharing generator state — and the bytes a client
    // sends cannot depend on how other clients' requests interleave.
    return [size](int client, std::uint64_t k) {
        StreamRng rng(0x99u + static_cast<std::uint64_t>(client),
                      0xec5e0000u ^ k);
        return rng.bytes(size);
    };
}

Measured run_closed_loop(Deployment& d, const OpGen& ops, sim::Time warmup, sim::Time measure,
                         const std::function<void()>& at_measure_start) {
    sim::Simulator& sim = d.simulator();
    const sim::Time start = sim.now();
    const sim::Time measure_from = start + warmup;
    const sim::Time deadline = measure_from + measure;

    // Span capture for the critical-path metrics: when the run is not
    // already traced, attach a spans-only sink for the duration of this
    // run, so phase attribution is computed on every run, traced or not.
    // The sink hangs off the simulator exactly like a full trace (PDES
    // partitions buffer locally and merge in event-key order), keeping the
    // span stream — and the phase_* metrics derived from it —
    // byte-identical across --sim-threads values.
    obs::TraceSink* master = sim.trace();
    obs::TraceSink local_spans;
    if (master == nullptr) {
        local_spans.set_kind_mask(obs::kSpanKindMask);
        sim.set_trace(&local_spans);
    }

    // Baseline for the latency breakdown: snapshot the network / CPU-model /
    // queueing accumulators when the measurement window opens, so the deltas
    // cover exactly the measured interval. The user's at_measure_start runs
    // at the same event position it always did.
    struct BreakdownBase {
        sim::Time net = 0, cpu = 0, queue = 0;
    };
    auto base = std::make_shared<BreakdownBase>();
    sim.at(measure_from, [&d, base, at_measure_start] {
        base->net = d.network().transit_time();
        base->cpu = d.network().total_cpu_busy();
        base->queue = d.network().total_queue_wait();
        if (at_measure_start) at_measure_start();
    });

    // Per-client accumulators: a client's done-callback runs inside that
    // client node's event (possibly on a worker partition), so clients must
    // never share a histogram or counter. Disjoint vector slots are safe;
    // they are merged client-major after the run — an order independent of
    // thread count, keeping metrics byte-identical across --sim-threads.
    const std::size_t nclients = static_cast<std::size_t>(d.n_clients());
    auto hists = std::make_shared<std::vector<Histogram>>(nclients);
    auto completed = std::make_shared<std::vector<std::uint64_t>>(nclients, 0);
    auto per_client_k = std::make_shared<std::vector<std::uint64_t>>(nclients, 0);

    // One self-rescheduling closed loop per client. The loop holds itself
    // only weakly and each in-flight callback holds it strongly, so it is
    // freed with the last callback rather than never.
    auto issue = std::make_shared<std::function<void(int)>>();
    std::weak_ptr<std::function<void(int)>> self = issue;
    *issue = [&d, &ops, self, hists, completed, per_client_k, measure_from, deadline](int c) {
        sim::Simulator& s = d.simulator();
        if (s.now() >= deadline) return;
        std::uint64_t k = (*per_client_k)[static_cast<std::size_t>(c)]++;
        sim::Time begin = s.now();
        d.invoke(c, ops(c, k),
                 [&d, loop = self.lock(), hists, completed, measure_from, deadline, begin,
                  c](Bytes) {
                     sim::Time end = d.simulator().now();
                     if (begin >= measure_from && end < deadline) {
                         (*hists)[static_cast<std::size_t>(c)].add(sim::to_us(end - begin));
                         ++(*completed)[static_cast<std::size_t>(c)];
                     }
                     (*loop)(c);
                 });
    };
    for (int c = 0; c < d.n_clients(); ++c) (*issue)(c);

    sim.run_until(deadline);
    if (master == nullptr) sim.set_trace(nullptr);

    Histogram hist;
    std::uint64_t total = 0;
    for (std::size_t c = 0; c < nclients; ++c) {
        hist.merge((*hists)[c]);
        total += (*completed)[c];
    }

    Measured m;
    m.completed = total;
    m.throughput_ops = static_cast<double>(total) / sim::to_sec(measure);
    if (!hist.empty()) {
        m.p50_us = hist.percentile(50);
        m.mean_us = hist.mean();
        m.p99_us = hist.percentile(99);
        m.p999_us = hist.percentile(99.9);
    }
    if (total > 0) {
        double ops = static_cast<double>(total);
        m.net_us_per_op = sim::to_us(d.network().transit_time() - base->net) / ops;
        m.cpu_us_per_op = sim::to_us(d.network().total_cpu_busy() - base->cpu) / ops;
        m.queue_us_per_op = sim::to_us(d.network().total_queue_wait() - base->queue) / ops;
    }

    // Critical-path attribution over the measurement window. The window
    // filter mirrors the histogram's rule (begin >= measure_from): a
    // request span whose begin fell before the window loses its begin
    // event here, so the analyzer skips it as uncommitted.
    {
        const obs::TraceSink& spans_src = master ? *master : local_spans;
        std::vector<obs::SpanRecord> spans;
        for (const obs::TraceEvent& e : spans_src.events()) {
            if (e.kind != obs::EventKind::kSpanBegin && e.kind != obs::EventKind::kSpanEnd) {
                continue;
            }
            if (e.t < measure_from) continue;
            spans.push_back(
                {e.t, e.node, e.kind == obs::EventKind::kSpanBegin, e.label, e.a, e.b});
        }
        obs::CriticalPathReport rep = obs::analyze_spans(spans);
        if (rep.requests > 0) {
            m.phase["phase_requests"] = static_cast<double>(rep.requests);
            m.phase["phase_e2e_mean_us"] = rep.e2e_mean_us;
            m.phase["phase_e2e_p50_us"] = rep.e2e_p50_us;
            m.phase["phase_e2e_p99_us"] = rep.e2e_p99_us;
            m.phase["phase_residual_us"] = rep.residual_us;
            for (const obs::PhaseStat& ph : rep.phases) {
                m.phase["phase_" + ph.phase + "_mean_us"] = ph.mean_us;
                m.phase["phase_" + ph.phase + "_p50_us"] = ph.p50_us;
                m.phase["phase_" + ph.phase + "_p99_us"] = ph.p99_us;
                m.phase["phase_" + ph.phase + "_share_pct"] = ph.share_pct;
            }
        }
    }

    // Safety audit: every closed-loop run checks the deployment's
    // invariants. A violation is a safety bug, so fail fast rather than
    // report numbers measured on a divergent execution.
    obs::Auditor& aud = d.auditor();
    if (aud.configured()) {
        aud.finalize();
        aud.report(master);
        if (!aud.ok()) {
            for (const auto& v : aud.violations()) {
                std::fprintf(stderr, "auditor: %s\n", v.to_string().c_str());
            }
            NEO_ASSERT_MSG(false, "safety invariant violated (obs::Auditor)");
        }
    }
    return m;
}

// ----------------------------------------------------------- observability

ObsSession::ObsSession(int argc, char* const* argv)
    : trace_path_(flag_value(argc, argv, "--trace", "NEO_TRACE")),
      metrics_path_(flag_value(argc, argv, "--metrics", "NEO_METRICS")) {
    // Reuse the runner's uniform CLI parsing so the metrics file's "meta"
    // header records the same seed / sim-threads values the runs used.
    BenchOptions o = BenchOptions::parse(argc, argv);
    meta_seed_ = o.base_seed;
    meta_seeds_ = o.seeds;
    meta_sim_threads_ = o.sim_threads;
}

ObsSession::~ObsSession() { flush(); }

ObsSession::Attachment& ObsSession::Attachment::operator=(Attachment&& o) noexcept {
    if (this != &o) {
        detach();
        s_ = o.s_;
        reg_ = std::move(o.reg_);
        sim_ = o.sim_;
        traced_ = o.traced_;
        o.s_ = nullptr;
        o.sim_ = nullptr;
        o.traced_ = false;
    }
    return *this;
}

void ObsSession::Attachment::detach() {
    if (!s_) return;
    if (reg_) {
        std::lock_guard<std::mutex> lk(s_->merge_m_);
        for (const auto& [k, v] : reg_->snapshot()) s_->merged_[k] = v;
    }
    if (traced_) {
        // The sink keeps the recorded events for flush(); just stop the
        // simulator writing into it and restore this thread's log clock.
        if (sim_) sim_->set_trace(nullptr);
        clear_log_time_source();
    }
    s_ = nullptr;
    reg_.reset();
    sim_ = nullptr;
    traced_ = false;
}

ObsSession::Attachment ObsSession::attach(
    sim::Simulator& sim, const std::string& label, bool want_trace,
    const std::function<void(obs::Registry&, obs::TraceSink*)>& reg) {
    (void)label;
    if (!enabled()) return {};
    Attachment a;
    a.s_ = this;
    a.reg_ = std::make_unique<obs::Registry>();
    obs::TraceSink* tr = nullptr;
    if (tracing() && want_trace && !trace_claimed_.exchange(true)) {
        a.traced_ = true;
        a.sim_ = &sim;
        tr = &sink_;
        sim.set_trace(&sink_);
        // Log lines emitted by this run's thread carry its virtual clock
        // (the source is thread-local, so concurrent runs don't clash).
        set_log_time_source([&sim] { return sim.now(); });
    }
    reg(*a.reg_, tr);
    return a;
}

ObsSession::Attachment ObsSession::attach(Deployment& d, const std::string& label,
                                          bool want_trace) {
    return attach(d.simulator(), label, want_trace,
                  [&d, &label](obs::Registry& r, obs::TraceSink* tr) {
                      d.register_obs(r, label, tr);
                  });
}

void ObsSession::flush() {
    if (flushed_) return;
    flushed_ = true;
    if (metrics()) {
        // Same {"counters":{},"values":{...}} shape Registry::write_json
        // produces, plus a "meta" header so archived files are
        // self-describing (docs/OBSERVABILITY.md).
        Json root = Json::object();
        root.set("meta", run_meta_json(meta_seed_, meta_seeds_, meta_sim_threads_));
        root.set("counters", Json::object());
        Json values = Json::object();
        for (const auto& [k, v] : merged_) values.set(k, Json(v));
        root.set("values", std::move(values));
        std::ofstream out(metrics_path_, std::ios::binary | std::ios::trunc);
        if (out) out << root.dump() << "\n";
        if (!out) {
            std::fprintf(stderr, "obs: cannot write metrics file %s\n", metrics_path_.c_str());
        }
    }
    if (tracing()) {
        bool jsonl = trace_path_.size() >= 6 &&
                     trace_path_.compare(trace_path_.size() - 6, 6, ".jsonl") == 0;
        bool ok = jsonl ? sink_.write_jsonl_file(trace_path_)
                        : sink_.write_chrome_trace_file(trace_path_);
        if (!ok) {
            std::fprintf(stderr, "obs: cannot write trace file %s\n", trace_path_.c_str());
        }
    }
}

// ------------------------------------------------------------ deployments

Deployment::Deployment(const CommonParams& p)
    : sim_(p.sim_threads), net_(sim_, p.seed), root_(p.crypto_mode, p.seed + 1) {
    if (p.placement) sim_.set_placement(p.placement);
    net_.set_default_link(sim::datacenter_link());
    net_.set_global_drop_rate(p.drop_rate);
    auditor_.configure(sim_.partitions() + 1);
}

namespace {

/// Infrastructure ids (config service 900, switches 910+, clients 1000+)
/// sit above replicas 1..n. From 900 replicas on they move up by the first
/// multiple of 1000 at or above n, so the ranges never collide; smaller
/// shapes keep their ids.
NodeId infra_shift(int n_replicas) {
    if (n_replicas < static_cast<int>(kConfigId)) return 0;
    return static_cast<NodeId>((n_replicas + 999) / 1000 * 1000);
}

class UnreplicatedDeployment : public Deployment {
  public:
    explicit UnreplicatedDeployment(const CommonParams& p) : Deployment(p) {
        server_ = std::make_unique<baselines::UnreplicatedServer>(root_.provision(kServerId));
        server_->set_auditor(&auditor_);
        net_.add_node(*server_, kServerId);
        for (int i = 0; i < p.n_clients; ++i) {
            NodeId cid = kClientBase + static_cast<NodeId>(i);
            clients_.push_back(std::make_unique<baselines::UnreplicatedClient>(
                kServerId, root_.provision(cid)));
            net_.add_node(*clients_.back(), cid);
        }
    }

    int n_clients() const override { return static_cast<int>(clients_.size()); }
    void invoke(int client, Bytes op, std::function<void(Bytes)> done) override {
        clients_[static_cast<std::size_t>(client)]->invoke(std::move(op), std::move(done));
    }

    void register_obs(obs::Registry& reg, const std::string& prefix,
                      obs::TraceSink* trace) override {
        Deployment::register_obs(reg, prefix, trace);
        server_->register_rx_metrics(reg, prefix + ".server", &baselines::kind_name);
        if (trace) {
            trace->set_node_name(kServerId, "server");
            for (const auto& c : clients_) {
                trace->set_node_name(c->id(), "client " + std::to_string(c->id()));
            }
        }
    }

  private:
    std::unique_ptr<baselines::UnreplicatedServer> server_;
    std::vector<std::unique_ptr<baselines::UnreplicatedClient>> clients_;
};

/// Replica-group plumbing NeoBFT and the baselines share: clients invoke
/// directly, replica hooks find their target by id, and every replica and
/// client publishes metrics and a named trace track.
template <typename ReplicaT, typename ClientT>
class ReplicatedDeployment : public Deployment {
  public:
    using Deployment::Deployment;

    int n_clients() const override { return static_cast<int>(clients_.size()); }
    void invoke(int client, Bytes op, std::function<void(Bytes)> done) override {
        clients_[static_cast<std::size_t>(client)]->invoke(std::move(op), std::move(done));
    }

    std::vector<NodeId> replica_ids() const override {
        std::vector<NodeId> out;
        for (const auto& r : replicas_) out.push_back(r->id());
        return out;
    }
    crypto::CostMeter* replica_meter(NodeId id) override {
        ReplicaT* r = replica(id);
        return r ? &r->node_crypto().meter() : nullptr;
    }
    bool set_replica_equivocate(NodeId id, bool on) override {
        ReplicaT* r = replica(id);
        if (r) r->set_equivocate(on);
        return r != nullptr;
    }

    void register_obs(obs::Registry& reg, const std::string& prefix,
                      obs::TraceSink* trace) override {
        Deployment::register_obs(reg, prefix, trace);
        for (auto& r : replicas_) {
            r->register_metrics(reg, prefix + ".replica." + std::to_string(r->id()));
        }
        if (trace) {
            for (const auto& r : replicas_) {
                trace->set_node_name(r->id(), "replica " + std::to_string(r->id()));
            }
            for (const auto& c : clients_) {
                trace->set_node_name(c->id(), "client " + std::to_string(c->id()));
            }
        }
    }

  protected:
    ReplicaT* replica(NodeId id) {
        for (auto& r : replicas_) {
            if (r->id() == id) return r.get();
        }
        return nullptr;
    }

    std::vector<std::unique_ptr<ReplicaT>> replicas_;
    std::vector<std::unique_ptr<ClientT>> clients_;
};

// ----------------------------------------------------------------- NeoBFT

/// Replica ids: group s, index i -> 1 + 8s + i (one group: 1..n).
constexpr NodeId kGroupReplicaStride = 8;
/// Sharded client ids: logical client c, group s -> 1000 + 32c + s.
constexpr NodeId kShardClientStride = 32;

/// NeoBFT over N >= 1 aom groups. Without `shard` it is the paper's single
/// group with plain neobft::Clients (make_neobft). With it, shard->n_shards
/// groups each own a contiguous slice of the key-hash space, and every
/// logical client is a neobft::ShardClient 2PC coordinator over one child
/// client per group (make_sharded_neobft). Each group has a home switch,
/// plus one spare the config service can fail any group over to.
class NeoDeployment : public ReplicatedDeployment<neobft::Replica, neobft::Client> {
  public:
    NeoDeployment(const NeoParams& p, const ShardParams* shard)
        : ReplicatedDeployment(p), keys_(p.seed + 2) {
        const std::size_t n_groups = shard ? static_cast<std::size_t>(shard->n_shards) : 1;
        const NodeId shift = infra_shift(p.n_replicas);
        if (shard) {
            NEO_ASSERT(n_groups >= 1 && n_groups <= kShardClientStride);
            NEO_ASSERT(p.n_replicas >= 1 &&
                       p.n_replicas <= static_cast<int>(kGroupReplicaStride));
            // Group-affine placement (installed before the first add_node):
            // a shard's replicas and its home switch share a partition, and
            // every child client of one logical client shares one — the
            // ShardClient concurrency contract (its phase callbacks mutate
            // shared coordinator state without locks).
            if (!p.placement) {
                sim_.set_placement([](NodeId id, unsigned nparts) -> unsigned {
                    if (id >= kClientBase) {
                        return static_cast<unsigned>((id - kClientBase) / kShardClientStride) %
                               nparts;
                    }
                    if (id >= kSwitchBase) return static_cast<unsigned>(id - kSwitchBase) % nparts;
                    if (id == kConfigId) return 0;
                    return static_cast<unsigned>((id - kReplicaBase) / kGroupReplicaStride) %
                           nparts;
                });
            }
        }

        // One aom group per shard; sharded groups tile the 64-bit key-hash
        // space evenly.
        std::vector<aom::GroupConfig> groups(n_groups);
        for (std::size_t s = 0; s < n_groups; ++s) {
            aom::GroupConfig& g = groups[s];
            g.group = kGroup + static_cast<GroupId>(s);
            g.variant = p.variant == NeoVariant::kPk ? aom::AuthVariant::kPublicKey
                                                     : aom::AuthVariant::kHmacVector;
            g.trust = p.variant == NeoVariant::kBn ? aom::NetworkTrust::kByzantine
                                                   : aom::NetworkTrust::kCrashOnly;
            g.f = (p.n_replicas - 1) / 3;
            for (int i = 0; i < p.n_replicas; ++i) {
                g.receivers.push_back(kReplicaBase + kGroupReplicaStride * static_cast<NodeId>(s) +
                                      static_cast<NodeId>(i));
            }
        }
        if (shard) {
            groups = neobft::ShardRouter::assign_ranges(std::move(groups));
            router_ = std::make_unique<neobft::ShardRouter>(groups);
        }

        const aom::SequencerConfig seq_cfg =
            p.software_sequencer ? aom::SequencerConfig::software_profile() : aom::SequencerConfig{};
        for (std::size_t s = 0; s <= n_groups; ++s) {
            NodeId sid = kSwitchBase + shift + static_cast<NodeId>(s);
            switches_.push_back(
                std::make_unique<scenario::ByzSequencer>(seq_cfg, root_.provision(sid), &keys_));
            net_.add_node(*switches_.back(), sid);
        }
        std::vector<aom::SequencerSwitch*> pool;
        for (auto& sw : switches_) pool.push_back(sw.get());
        config_ = std::make_unique<aom::ConfigService>(pool);
        net_.add_node(*config_, kConfigId + shift);
        for (std::size_t s = 0; s < n_groups; ++s) config_->register_group(groups[s], s);

        // Each shard preloads only the dataset records its key range owns.
        std::optional<app::YcsbWorkload> dataset;
        std::vector<std::vector<std::uint64_t>> owned(n_groups);
        if (shard && shard->dataset.record_count > 0) {
            dataset.emplace(shard->dataset, p.seed);
            for (std::uint64_t k = 0; k < shard->dataset.record_count; ++k) {
                owned[router_->shard_index(dataset->key_of(k))].push_back(k);
            }
        }
        auto make_app = [&](std::size_t s) -> std::unique_ptr<app::StateMachine> {
            if (!shard) return p.app_factory ? p.app_factory() : std::make_unique<app::EchoApp>();
            auto kv = std::make_unique<app::KvStateMachine>();
            if (static_cast<int>(s) == shard->byzantine_prepare_shard) {
                kv->set_byzantine_prepare_equivocation(true);
            }
            kv->set_wait_die(shard->wait_die);
            kv->set_presumed_abort_after(shard->presumed_abort_after);
            for (std::uint64_t k : owned[s]) kv->store().put(dataset->key_of(k), dataset->value_of(k));
            return kv;
        };

        std::vector<neobft::Config> cfgs;
        for (std::size_t s = 0; s < n_groups; ++s) {
            const aom::GroupConfig& g = groups[s];
            neobft::Config cfg;
            cfg.f = g.f;
            cfg.group = g.group;
            cfg.config_service = kConfigId + shift;
            cfg.sync_interval = p.sync_interval;
            cfg.checkpoint_interval = p.checkpoint_interval;
            cfg.replicas = g.receivers;
            for (NodeId rid : cfg.replicas) {
                auto rep = std::make_unique<neobft::Replica>(cfg, root_.provision(rid), &keys_,
                                                             make_app(s), p.receiver);
                rep->set_auditor(&auditor_);
                net_.add_node(*rep, rid);
                rep->bootstrap(g, config_->current_sequencer(g.group));
                replicas_.push_back(std::move(rep));
            }
            cfgs.push_back(std::move(cfg));
        }

        const NodeId client_stride = shard ? kShardClientStride : 1;
        for (int c = 0; c < p.n_clients; ++c) {
            std::vector<neobft::Client*> children;
            for (std::size_t s = 0; s < n_groups; ++s) {
                NodeId cid = kClientBase + shift + client_stride * static_cast<NodeId>(c) +
                             static_cast<NodeId>(s);
                clients_.push_back(
                    std::make_unique<neobft::Client>(cfgs[s], root_.provision(cid), config_.get()));
                net_.add_node(*clients_.back(), cid);
                children.push_back(clients_.back().get());
            }
            if (shard) {
                shard_clients_.push_back(std::make_unique<neobft::ShardClient>(
                    router_.get(), std::move(children), static_cast<std::uint32_t>(c) + 1));
            }
        }
    }

    int n_clients() const override {
        return router_ ? static_cast<int>(shard_clients_.size())
                       : ReplicatedDeployment::n_clients();
    }
    void invoke(int client, Bytes op, std::function<void(Bytes)> done) override {
        if (!router_) return ReplicatedDeployment::invoke(client, std::move(op), std::move(done));
        shard_clients_[static_cast<std::size_t>(client)]->invoke(std::move(op), std::move(done));
    }
    bool abandon_coordinator(int client) override {
        if (!router_) return false;
        shard_clients_[static_cast<std::size_t>(client)]->abandon();
        return true;
    }

    /// Stalls the first group's home switch; the config service fails the
    /// group over to the spare.
    void inject_sequencer_failure() override { switches_[0]->set_stall(true); }
    std::uint64_t failovers() const override { return config_->failovers_performed(); }

    bool crash_replica(NodeId id) override {
        neobft::Replica* r = replica(id);
        if (r) r->crash();
        return r != nullptr;
    }
    bool recover_replica(NodeId id) override {
        neobft::Replica* r = replica(id);
        if (r) r->recover();
        return r != nullptr;
    }
    bool sequencer_fault(const scenario::Adapter::SeqFault& f) override {
        using scenario::FaultKind;
        // Apply to every switch so the fault survives failover to the
        // spare (the adversary compromised the sequencing layer, not one
        // box).
        for (auto& sw : switches_) {
            if (f.kind == FaultKind::kSeqStall) {
                sw->set_stall(f.on);
                continue;
            }
            scenario::ByzSequencer::Faults faults = sw->faults();
            std::uint32_t mod = f.on ? f.mod : 0;
            switch (f.kind) {
                case FaultKind::kSeqDrop: faults.drop_mod = mod; break;
                case FaultKind::kSeqDuplicate: faults.dup_mod = mod; break;
                case FaultKind::kSeqCorrupt: faults.corrupt_mod = mod; break;
                case FaultKind::kSeqStripSig: faults.strip_sig_mod = mod; break;
                case FaultKind::kSeqEquivocate: faults.equivocate_mod = mod; break;
                default: return false;
            }
            sw->set_faults(faults);
        }
        return true;
    }

    TxnTotals txn_totals() const override {
        TxnTotals t;
        for (const auto& sc : shard_clients_) {
            const neobft::ShardClient::Stats& s = sc->stats();
            t.txns_started += s.txns_started;
            t.committed_txns += s.committed_txns;
            t.aborted_txns += s.aborted_txns;
            t.committed_ops += s.committed_ops;
            t.cross_shard_txns += s.cross_shard_txns;
        }
        return t;
    }

    void register_obs(obs::Registry& reg, const std::string& prefix,
                      obs::TraceSink* trace) override {
        ReplicatedDeployment::register_obs(reg, prefix, trace);
        for (std::size_t s = 0; s < switches_.size(); ++s) {
            switches_[s]->register_metrics(reg, prefix + ".sequencer." + std::to_string(s));
            if (trace) trace->set_node_name(switches_[s]->id(), "sequencer " + std::to_string(s));
        }
        if (trace) trace->set_node_name(config_->id(), "config service");
    }

  private:
    aom::AomKeyService keys_;
    std::unique_ptr<neobft::ShardRouter> router_;  // sharded only
    std::vector<std::unique_ptr<scenario::ByzSequencer>> switches_;
    std::unique_ptr<aom::ConfigService> config_;
    std::vector<std::unique_ptr<neobft::ShardClient>> shard_clients_;  // sharded only
};

// -------------------------------------------------------------- baselines

/// Replicas 1..n with the harness's batching bounds; f follows the
/// n_replicas = 3f+1 convention even where the group is smaller (MinBFT).
baselines::BaseConfig baseline_config(const CommonParams& p, int n) {
    baselines::BaseConfig cfg;
    cfg.f = (p.n_replicas - 1) / 3;
    cfg.batch_max = p.batch_max;
    cfg.batch_delay = p.batch_delay;
    for (int i = 0; i < n; ++i) cfg.replicas.push_back(kReplicaBase + static_cast<NodeId>(i));
    return cfg;
}

template <typename ReplicaT, typename ClientT = baselines::QuorumClient>
class BaselineDeployment : public ReplicatedDeployment<ReplicaT, ClientT> {
  public:
    using ReplicatedDeployment<ReplicaT, ClientT>::replicas_;

    /// `make_replica` builds one replica from its provisioned crypto; every
    /// replica runs `p.app_factory` (echo when unset).
    template <typename MakeReplica>
    BaselineDeployment(const CommonParams& p, const baselines::BaseConfig& cfg,
                       const MakeReplica& make_replica)
        : ReplicatedDeployment<ReplicaT, ClientT>(p) {
        for (NodeId rid : cfg.replicas) {
            std::unique_ptr<ReplicaT> rep = make_replica(this->root_.provision(rid));
            if (p.app_factory) rep->set_app(p.app_factory());
            rep->set_auditor(&this->auditor_);
            this->net_.add_node(*rep, rid);
            replicas_.push_back(std::move(rep));
        }
        const NodeId client_base = kClientBase + infra_shift(cfg.n());
        for (int i = 0; i < p.n_clients; ++i) {
            NodeId cid = client_base + static_cast<NodeId>(i);
            this->clients_.push_back(std::make_unique<ClientT>(cfg, this->root_.provision(cid)));
            this->net_.add_node(*this->clients_.back(), cid);
        }
    }
};

}  // namespace

std::unique_ptr<Deployment> make_unreplicated(const CommonParams& p) {
    return std::make_unique<UnreplicatedDeployment>(p);
}

std::unique_ptr<Deployment> make_neobft(const NeoParams& p) {
    return std::make_unique<NeoDeployment>(p, nullptr);
}

std::unique_ptr<Deployment> make_sharded_neobft(const ShardParams& p) {
    return std::make_unique<NeoDeployment>(p, &p);
}

std::unique_ptr<Deployment> make_pbft(const CommonParams& p) {
    using namespace baselines;
    const auto cfg = baseline_config(p, p.n_replicas);
    return std::make_unique<BaselineDeployment<PbftReplica>>(
        p, cfg, [&](auto c) { return std::make_unique<PbftReplica>(cfg, std::move(c)); });
}

std::unique_ptr<Deployment> make_zyzzyva(const ZyzzyvaParams& p) {
    using namespace baselines;
    const auto cfg = baseline_config(p, p.n_replicas);
    auto d = std::make_unique<BaselineDeployment<ZyzzyvaReplica, ZyzzyvaClient>>(
        p, cfg, [&](auto c) { return std::make_unique<ZyzzyvaReplica>(cfg, std::move(c)); });
    if (p.faulty_replica) d->replicas_.back()->set_silent(true);
    return d;
}

std::unique_ptr<Deployment> make_hotstuff(const CommonParams& p) {
    using namespace baselines;
    const auto cfg = baseline_config(p, p.n_replicas);
    return std::make_unique<BaselineDeployment<HotStuffReplica>>(
        p, cfg, [&](auto c) { return std::make_unique<HotStuffReplica>(cfg, std::move(c)); });
}

std::unique_ptr<Deployment> make_minbft(const CommonParams& p) {
    using namespace baselines;
    const auto cfg = baseline_config(p, 2 * ((p.n_replicas - 1) / 3) + 1);
    const std::uint64_t usig_seed = p.seed + 7;
    return std::make_unique<BaselineDeployment<MinbftReplica>>(
        p, cfg,
        [&](auto c) { return std::make_unique<MinbftReplica>(cfg, std::move(c), usig_seed); });
}

OpGen sharded_txn_ops(const ShardTxnWorkload& w, int n_clients) {
    NEO_ASSERT(w.n_shards >= 1);
    // A router over the same even range tiling the deployment uses: group
    // ids are irrelevant to shard_index, so the workload's copy routes
    // identically to the deployment's.
    std::vector<aom::GroupConfig> gs(static_cast<std::size_t>(w.n_shards));
    for (std::size_t s = 0; s < gs.size(); ++s) gs[s].group = static_cast<GroupId>(s);
    auto router =
        std::make_shared<neobft::ShardRouter>(neobft::ShardRouter::assign_ranges(std::move(gs)));

    // Per-client generator state: client c's stream is touched only from
    // its own partition (the closed loop reissues from c's completion
    // context), so no cross-thread sharing.
    auto gens = std::make_shared<std::vector<std::unique_ptr<app::YcsbWorkload>>>();
    for (int c = 0; c < n_clients; ++c) {
        gens->push_back(std::make_unique<app::YcsbWorkload>(
            w.dataset, w.seed * 1'000'003 + static_cast<std::uint64_t>(c)));
    }

    app::YcsbWorkload::TxnConfig tc{w.ops_per_txn, w.cross_shard_ratio};
    const auto n_shards = static_cast<std::size_t>(w.n_shards);
    return [router, gens, tc, n_shards](int client, std::uint64_t) {
        app::KvTxnOp txn = (*gens)[static_cast<std::size_t>(client)]->next_txn(
            tc, [&](BytesView key) { return router->shard_index(key); }, n_shards);
        return txn.serialize();
    };
}

// ------------------------------------------------------------------ output

TablePrinter::TablePrinter(std::vector<std::string> columns) {
    for (const auto& c : columns) widths_.push_back(std::max<std::size_t>(c.size() + 2, 12));
    row(columns);
    std::string sep;
    for (std::size_t w : widths_) sep += std::string(w, '-') + "  ";
    std::printf("%s\n", sep.c_str());
}

void TablePrinter::row(const std::vector<std::string>& cells) {
    std::string line;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        std::size_t w = i < widths_.size() ? widths_[i] : 12;
        std::string cell = cells[i];
        if (cell.size() < w) cell += std::string(w - cell.size(), ' ');
        line += cell + "  ";
    }
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

std::string fmt_double(double v, int precision) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::map<std::string, double> measured_metrics(const Measured& m) {
    std::map<std::string, double> out = {
        {"tput_ops", m.throughput_ops},
        {"p50_us", m.p50_us},
        {"mean_us", m.mean_us},
        {"p99_us", m.p99_us},
        {"p999_us", m.p999_us},
        {"completed", static_cast<double>(m.completed)},
        {"net_us_per_op", m.net_us_per_op},
        {"cpu_us_per_op", m.cpu_us_per_op},
        {"queue_us_per_op", m.queue_us_per_op},
    };
    out.insert(m.phase.begin(), m.phase.end());
    return out;
}

const char* build_git_describe() {
#ifdef NEO_GIT_DESCRIBE
    return NEO_GIT_DESCRIBE;
#else
    return "unknown";
#endif
}

const char* build_type_name() {
#ifdef NEO_BUILD_TYPE
    if (NEO_BUILD_TYPE[0] != '\0') return NEO_BUILD_TYPE;
#endif
    return "unspecified";
}

Json run_meta_json(std::uint64_t base_seed, int seeds, unsigned sim_threads) {
    Json meta = Json::object();
    meta.set("base_seed", Json(static_cast<double>(base_seed)));
    meta.set("build_type", Json(std::string(build_type_name())));
    meta.set("git_describe", Json(std::string(build_git_describe())));
    Json seed_list = Json::array();
    for (int s = 0; s < seeds; ++s) {
        seed_list.push_back(Json(static_cast<double>(base_seed + static_cast<std::uint64_t>(s))));
    }
    meta.set("seeds", std::move(seed_list));
    meta.set("sim_threads", Json(static_cast<double>(sim_threads)));
    return meta;
}

}  // namespace neo::bench
