// Benchmark harness: deployment factories for every protocol in the paper's
// evaluation and a closed-loop measurement driver (§6.2's methodology: "an
// increasing number of closed-loop clients", end-to-end latency and
// throughput observed by the clients).
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "apps/state_machine.hpp"
#include "apps/ycsb.hpp"
#include "common/bytes.hpp"
#include "common/histogram.hpp"
#include "aom/receiver.hpp"
#include "crypto/identity.hpp"
#include "obs/auditor.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/scenario.hpp"
#include "sim/network.hpp"

namespace neo::bench {

struct Measured {
    double throughput_ops = 0;  // committed ops per second of virtual time
    double p50_us = 0;
    double mean_us = 0;
    double p99_us = 0;
    double p999_us = 0;
    std::uint64_t completed = 0;
    /// Latency breakdown over the measurement window, expressed as
    /// aggregate simulator time per completed op: packet in-flight time
    /// (latency + jitter + serialisation), modelled CPU execution, and
    /// arrival-queue wait. These are system-wide shares (all nodes, all
    /// packets), so they need not sum to the end-to-end client latency.
    double net_us_per_op = 0;
    double cpu_us_per_op = 0;
    double queue_us_per_op = 0;
    /// Commit critical-path attribution over the measurement window's
    /// request spans (keys are the final "phase_*" metric names; empty
    /// when no request span completed inside the window). Deterministic:
    /// derived from the span stream, which is byte-identical across
    /// --sim-threads values.
    std::map<std::string, double> phase;
};

struct CommonParams;

/// Type-erased running system: owns the simulator, network, trust root and
/// auditor every protocol shares, plus (in subclasses) all nodes; the
/// driver only needs per-client invoke().
class Deployment {
  public:
    virtual ~Deployment() = default;
    sim::Simulator& simulator() { return sim_; }
    sim::Network& network() { return net_; }
    virtual int n_clients() const = 0;
    virtual void invoke(int client, Bytes op, std::function<void(Bytes)> done) = 0;

    /// Replica instrumentation for the Table 1 reproduction.
    virtual std::vector<NodeId> replica_ids() const { return {}; }
    virtual crypto::CostMeter* replica_meter(NodeId) { return nullptr; }

    /// Fault-injection hooks (used by the failover benchmark; no-ops for
    /// protocols without a sequencer).
    virtual void inject_sequencer_failure() {}
    virtual std::uint64_t failovers() const { return 0; }

    /// Scenario-engine hooks (src/scenario). Defaults say "unsupported";
    /// the engine degrades (crash -> fail-silent network window, sequencer
    /// faults -> no-op). Only call from setup code or a global event.
    virtual bool crash_replica(NodeId) { return false; }
    virtual bool recover_replica(NodeId) { return false; }
    virtual bool set_replica_equivocate(NodeId, bool) { return false; }
    virtual bool sequencer_fault(const scenario::Adapter::SeqFault&) { return false; }
    /// Drops client's in-flight cross-shard transaction without a decision
    /// (coordinator crash between prepare and commit). Sharded only.
    virtual bool abandon_coordinator(int) { return false; }

    /// Client-observed transaction outcome totals (sharded deployments;
    /// zero elsewhere). `committed_ops` counts single-key ops inside
    /// committed transactions — the aggregate-throughput numerator.
    struct TxnTotals {
        std::uint64_t txns_started = 0;
        std::uint64_t committed_txns = 0;
        std::uint64_t aborted_txns = 0;
        std::uint64_t committed_ops = 0;
        std::uint64_t cross_shard_txns = 0;
    };
    virtual TxnTotals txn_totals() const { return {}; }

    /// Observability hook: publishes this deployment's counters under
    /// `prefix` and, when `trace` is non-null, names every node's track.
    /// The base version covers the shared network counters; deployments
    /// override to add per-replica / per-sequencer protocol metrics.
    virtual void register_obs(obs::Registry& reg, const std::string& prefix,
                              obs::TraceSink* trace) {
        (void)trace;
        network().register_metrics(reg, prefix + ".net");
    }

    /// Online safety-invariant monitor. The base constructor sizes it
    /// (partitions + 1 shards) and every deployment wires its replicas'
    /// reporting hooks, so commit/execute ordering is audited on EVERY
    /// bench and test run; run_closed_loop() finalizes it and aborts on any
    /// violation.
    obs::Auditor& auditor() { return auditor_; }

  protected:
    /// Seeded simulator (`p.placement` installed when set) and network on
    /// the datacenter link profile with `p.drop_rate`, trust root, auditor.
    explicit Deployment(const CommonParams& p);

    sim::Simulator sim_;
    sim::Network net_;
    crypto::TrustRoot root_;
    obs::Auditor auditor_;
};

/// Bridges a Deployment to the scenario engine's Adapter interface.
class ScenarioAdapter : public scenario::Adapter {
  public:
    explicit ScenarioAdapter(Deployment& d) : d_(d) {}
    sim::Simulator& simulator() override { return d_.simulator(); }
    sim::Network& network() override { return d_.network(); }
    std::vector<NodeId> replica_ids() const override { return d_.replica_ids(); }
    bool crash(NodeId n) override { return d_.crash_replica(n); }
    bool recover(NodeId n) override { return d_.recover_replica(n); }
    bool set_equivocate(NodeId n, bool on) override { return d_.set_replica_equivocate(n, on); }
    bool sequencer_fault(const SeqFault& f) override { return d_.sequencer_fault(f); }

  private:
    Deployment& d_;
};

/// Generates the operation a client issues next (k = per-client op index).
using OpGen = std::function<Bytes(int client, std::uint64_t k)>;

/// Fixed-size random-string echo ops (the §6.2 workload).
OpGen echo_ops(std::size_t size);

/// Runs every client closed-loop; latency/throughput measured over
/// [warmup, warmup+measure) of virtual time. `at_measure_start` (optional)
/// fires exactly when the measurement window opens — counter resets etc.
Measured run_closed_loop(Deployment& d, const OpGen& ops, sim::Time warmup, sim::Time measure,
                         const std::function<void()>& at_measure_start = nullptr);

// ----------------------------------------------------------- observability

/// Per-process observability session for bench binaries.
///
/// Parses `--trace <path>` and `--metrics <path>` from argv (with
/// NEO_TRACE / NEO_METRICS environment fallback) and owns the trace sink
/// and the merged metrics snapshot. A bench binary attaches each run with
/// attach() (runs on worker threads attach concurrently; the session is
/// thread-safe); on destruction the session writes the requested files:
///  - metrics: one JSON object merging every attached run's counters,
///    namespaced by the run label ("neo_hm.c8.s42.replica.1.rx.request");
///  - trace: the FIRST run attached with want_trace=true (a process-wide
///    atomic claim), written as Chrome trace_event JSON — or JSONL when
///    the path ends in ".jsonl".
///
/// The metrics file carries a "meta" header (base seed, seed list,
/// sim_threads, git describe, build type) so archived artifacts are
/// self-describing.
class ObsSession {
  public:
    ObsSession(int argc, char* const* argv);
    ~ObsSession();

    ObsSession(const ObsSession&) = delete;
    ObsSession& operator=(const ObsSession&) = delete;

    bool tracing() const { return !trace_path_.empty(); }
    bool metrics() const { return !metrics_path_.empty(); }
    bool enabled() const { return tracing() || metrics(); }

    /// Scoped run attachment. Holds the run's private registry; the
    /// destructor snapshots it into the session's merged metrics, so it
    /// must run while the run's nodes are still alive (declare the
    /// deployment/fixture FIRST, the attachment second). Movable so
    /// attach() can return it by value; default-constructed = no-op.
    class Attachment {
      public:
        Attachment() = default;
        Attachment(Attachment&& o) noexcept { *this = std::move(o); }
        Attachment& operator=(Attachment&& o) noexcept;
        ~Attachment() { detach(); }
        Attachment(const Attachment&) = delete;
        Attachment& operator=(const Attachment&) = delete;

        /// Snapshots the run's metrics now (idempotent).
        void detach();

      private:
        friend class ObsSession;
        ObsSession* s_ = nullptr;
        std::unique_ptr<obs::Registry> reg_;
        sim::Simulator* sim_ = nullptr;
        bool traced_ = false;
    };

    /// Attaches a run built on `sim`. `reg` is invoked immediately (on the
    /// calling thread) to register the run's collectors; when this run wins
    /// the trace claim, the sink is passed through non-null so `reg` can
    /// name the trace tracks. Thread-safe; returns an inert attachment when
    /// neither --trace nor --metrics was requested.
    Attachment attach(sim::Simulator& sim, const std::string& label, bool want_trace,
                      const std::function<void(obs::Registry&, obs::TraceSink*)>& reg);
    /// Deployment convenience: forwards to Deployment::register_obs with
    /// `label` as the metrics prefix.
    Attachment attach(Deployment& d, const std::string& label, bool want_trace = true);

    obs::TraceSink* sink() { return tracing() ? &sink_ : nullptr; }

    /// Writes the metrics / trace files now (also done by the destructor).
    /// Call only after every attachment is detached and worker threads
    /// joined.
    void flush();

  private:
    std::string trace_path_;
    std::string metrics_path_;
    obs::TraceSink sink_;
    std::mutex merge_m_;
    std::map<std::string, double> merged_;
    std::atomic<bool> trace_claimed_{false};
    bool flushed_ = false;
    // Run parameters echoed into the metrics file's "meta" header.
    std::uint64_t meta_seed_ = 42;
    int meta_seeds_ = 1;
    unsigned meta_sim_threads_ = 1;
};

// --------------------------------------------------------------- factories

struct CommonParams {
    int n_replicas = 4;
    int n_clients = 8;
    crypto::CryptoMode crypto_mode = crypto::CryptoMode::kModeled;
    std::uint64_t seed = 42;
    /// Simulator worker partitions (PDES). 1 = serial engine. Simulated
    /// results are byte-identical for every value; only host time changes.
    unsigned sim_threads = 1;
    double drop_rate = 0.0;
    /// Adaptive-batching bounds for the baselines' leader batcher: cap on
    /// the load-tracked seal threshold, and the latency budget bounding the
    /// oldest request's wait (see sim::AdaptiveBatchController).
    std::size_t batch_max = 16;
    sim::Time batch_delay = 100 * sim::kMicrosecond;
    /// PDES placement-policy override (node id -> host partition). Empty =
    /// the deployment's default (id % nparts; group-affine for sharded
    /// deployments). Placement is host-locality only — simulated results
    /// are byte-identical for every policy (test_placement).
    sim::Simulator::PlacementFn placement;
    /// Replica application for every replicated protocol (stateful,
    /// undo-capable); unset = app::EchoApp, the §6.2 workload. The sharded
    /// NeoBFT shape always runs app::KvStateMachine (see ShardParams).
    std::function<std::unique_ptr<app::StateMachine>()> app_factory;
};

enum class NeoVariant { kHm, kPk, kBn };

/// NeoBFT over one aom group (the paper's configuration). Every switch is a
/// scenario::ByzSequencer, so the scenario engine's sequencer faults work
/// on every NeoBFT shape.
struct NeoParams : CommonParams {
    NeoVariant variant = NeoVariant::kHm;
    /// Fig 8's EC2-style software sequencer profile.
    bool software_sequencer = false;
    /// aom receiver knobs (gap timeout, confirm batching) — ablations.
    aom::ReceiverOptions receiver{};
    /// State-sync period (§B.2) — ablations.
    std::uint64_t sync_interval = 128;
    /// Replica checkpoint cadence (slots); 0 disables checkpointing and
    /// log GC (the perf-figure default). Scenario runs set it so the
    /// crash-recover lifecycle exercises checkpoint fetch.
    std::uint64_t checkpoint_interval = 0;
};

std::unique_ptr<Deployment> make_unreplicated(const CommonParams& p);
std::unique_ptr<Deployment> make_neobft(const NeoParams& p);
std::unique_ptr<Deployment> make_pbft(const CommonParams& p);

/// The same NeoBFT deployment over `n_shards` independent sequencer groups,
/// each a full replica group serving a contiguous slice of the key-hash
/// space, fronted by per-client cross-shard 2PC coordinators
/// (neobft::ShardClient). PDES placement is group-affine: a shard's
/// replicas and home switch share a partition, as do all child clients of
/// one logical client. At most 8 replicas per shard.
struct ShardParams : NeoParams {
    int n_shards = 2;
    /// Every replica runs an app::KvStateMachine pre-loaded with the
    /// records of this dataset its shard's key range owns.
    /// record_count = 0 skips the preload.
    app::YcsbConfig dataset{10'000, 32, 0.5, 0.99};
    /// Test hook: every replica of this shard runs the forged-prepare
    /// equivocation double (claims PREPARED, stages nothing); -1 = honest.
    int byzantine_prepare_shard = -1;
    /// 2PC liveness knobs, plumbed into every replica's KvStateMachine.
    /// Defaults match the fixed protocol; regression tests flip them to
    /// reproduce the pre-fix livelock / lock-leak behaviour.
    bool wait_die = true;
    std::uint64_t presumed_abort_after = 50'000;
};
std::unique_ptr<Deployment> make_sharded_neobft(const ShardParams& p);

/// Multi-key YCSB transaction workload for sharded deployments: each op is
/// a serialized kTxnLocal KvTxnOp whose keys are drawn zipfian and redrawn
/// so `cross_shard_ratio` of transactions span >= 2 shards. Per-client
/// generator state is touched only from that client's partition, so the
/// stream stays byte-identical across --sim-threads values.
struct ShardTxnWorkload {
    int n_shards = 2;
    double cross_shard_ratio = 0.0;
    std::size_t ops_per_txn = 4;
    std::uint64_t seed = 42;
    app::YcsbConfig dataset{10'000, 32, 0.5, 0.99};
};
OpGen sharded_txn_ops(const ShardTxnWorkload& w, int n_clients);

struct ZyzzyvaParams : CommonParams {
    bool faulty_replica = false;  // Zyzzyva-F
};
std::unique_ptr<Deployment> make_zyzzyva(const ZyzzyvaParams& p);
std::unique_ptr<Deployment> make_hotstuff(const CommonParams& p);
/// MinBFT uses 2f+1 replicas; `n_replicas` is interpreted as f's 3f+1
/// equivalent (n=4 -> f=1 -> 3 replicas) so sweeps stay uniform.
std::unique_ptr<Deployment> make_minbft(const CommonParams& p);

// ------------------------------------------------------------------ output

/// Aligned table printer for figure-style output.
class TablePrinter {
  public:
    explicit TablePrinter(std::vector<std::string> columns);
    void row(const std::vector<std::string>& cells);

  private:
    std::vector<std::size_t> widths_;
};

std::string fmt_double(double v, int precision = 1);

/// Measured -> metric map for the runner's BENCH_*.json points (the Fig 7
/// column set: throughput, latency percentiles, net/cpu/queue breakdown,
/// plus the non-gating phase_* critical-path attribution).
std::map<std::string, double> measured_metrics(const Measured& m);

/// Build provenance baked in at configure time (NEO_GIT_DESCRIBE /
/// NEO_BUILD_TYPE compile definitions); recorded in every suite/metrics
/// JSON meta header so archived BENCH_*.json artifacts are self-describing.
const char* build_git_describe();
const char* build_type_name();

class Json;
/// The shared "meta" header object (base_seed, build_type, git_describe,
/// seeds list, sim_threads) written into both the suite JSON and the
/// --metrics JSON. Deliberately excludes --jobs: scheduling must never
/// change output bytes (test_parallel_determinism).
Json run_meta_json(std::uint64_t base_seed, int seeds, unsigned sim_threads);

}  // namespace neo::bench
