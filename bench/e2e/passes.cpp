#include "passes.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>

#include "host_trace.hpp"
#include "obs/critical_path.hpp"
#include "obs/metrics.hpp"

namespace neo::e2e {

namespace {

constexpr int kSetupBuilds = 5;
constexpr int kMinRepeats = 3;
/// Goodput search resolution: stop when hi / lo <= 1.02.
constexpr double kSearchStep = 1.02;
constexpr sim::Time kQuickProbeWindow = 10 * sim::kMillisecond;
constexpr sim::Time kCatchupSample = 1 * sim::kMillisecond;
const char* const kPrefix = "d";

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double pct(Histogram& h, double p) { return h.empty() ? 0 : h.percentile(p); }

long peak_rss_kb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

long current_rss_kb() {
    long pages = 0, resident = 0;
    if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
        if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
        std::fclose(f);
    }
    return resident * (sysconf(_SC_PAGESIZE) / 1024);
}

std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

/// Every simulated number a run yields, exactly: counts, the longest gap
/// and a hash over each latency sample in its deterministic order.
std::string fingerprint(const LoadResult& r) {
    std::uint64_t h = 14695981039346656037ull;
    for (double v : r.latency_us.samples()) h = fnv(h, &v, sizeof v);
    for (double v : r.late_us.samples()) h = fnv(h, &v, sizeof v);
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "due=%" PRIu64 " ok=%" PRIu64 " failed=%" PRIu64 " missing=%" PRIu64
                  " invalid=%" PRIu64 " gap=%" PRId64 " samples=%016" PRIx64,
                  r.due, r.ok, r.failed, r.missing, r.invalid, r.longest_gap, h);
    return buf;
}

BuildOptions base_build(const PassOptions& o) {
    BuildOptions b;
    b.seed = o.seed;
    return b;
}

/// Per-node registry values "d.<group>.<id>.<stat>", by node id.
std::map<std::string, double> per_node(const std::map<std::string, double>& reg,
                                       const std::string& group, const std::string& stat) {
    std::map<std::string, double> out;
    const std::string head = std::string(kPrefix) + "." + group + ".";
    const std::string tail = "." + stat;
    for (auto it = reg.lower_bound(head); it != reg.end(); ++it) {
        const std::string& k = it->first;
        if (k.compare(0, head.size(), head) != 0) break;
        if (k.size() <= head.size() + tail.size()) continue;
        if (k.compare(k.size() - tail.size(), tail.size(), tail) != 0) continue;
        std::string id = k.substr(head.size(), k.size() - head.size() - tail.size());
        if (id.find_first_not_of("0123456789") != std::string::npos) continue;
        out[id] = it->second;
    }
    return out;
}

double sum_of(const std::map<std::string, double>& reg, const std::string& group,
              const std::string& stat) {
    double s = 0;
    for (const auto& [id, v] : per_node(reg, group, stat)) s += v;
    return s;
}

/// The correctness gate every run of a workload passes through.
void check_run(const WorkloadDef& w, const BuildOptions& b, System& s, const LoadResult& r,
               obs::Registry& reg, Report& rep, const std::string& tag) {
    obs::Auditor& aud = s.d->auditor();
    if (!aud.finalized()) aud.finalize();
    for (const obs::Auditor::Violation& v : aud.violations()) {
        rep.require(false, tag + ": auditor " + v.to_string());
    }
    rep.require(r.invalid == 0,
                tag + ": " + std::to_string(r.invalid) + " replies failed the reply check");
    rep.require(r.due == r.ok + r.failed + r.missing + r.invalid,
                tag + ": due != ok + failed + missing");
    rep.require(r.ok > 0, tag + ": no request succeeded");
    if (w.kind == Kind::kFailover && b.faults) {
        rep.require(s.d->failovers() > 0, tag + ": no sequencer failover happened");
        std::map<std::string, double> m = reg.snapshot();
        const std::string node = std::to_string(kCrashedReplica);
        rep.require(per_node(m, "replica", "recoveries")[node] >= 1 &&
                        per_node(m, "replica", "ckpt_installs")[node] >= 1,
                    tag + ": replica " + node + " never recovered from a checkpoint");
    }
}

double search_goodput(const WorkloadDef& w, const PassOptions& o, Report& rep) {
    // Probes measure the fault-free deployment. Simulated results do not
    // depend on the crypto mode or the engine's partition count (the traced
    // pass checks both), so probes use modeled crypto and the serial engine.
    BuildOptions b = base_build(o);
    b.faults = false;
    b.crypto = crypto::CryptoMode::kModeled;
    b.sim_threads = 1;
    LoadSpec spec;
    spec.seed = o.seed;
    spec.window = o.quick ? kQuickProbeWindow : w.probe_window;
    auto holds = [&](double rate) {
        System s = build_system(w, b);
        obs::Registry reg;
        spec.rate = rate;
        LoadResult r = run_open_loop(*s.d, spec, s.ops, s.check);
        check_run(w, b, s, r, reg, rep, "goodput probe");
        return r.within_pct(w.slo.limit) >= w.slo.pct;
    };
    return bisect_rate(w.search_lo, w.search_hi, kSearchStep, holds);
}

/// Counters read at a phase boundary of the traced run.
struct Snap {
    std::map<std::string, double> reg;
    std::uint64_t packets = 0, bytes = 0, drops = 0;
    sim::Time transit = 0, cpu = 0, queue = 0;
    std::uint64_t signs = 0, verifies = 0, macs = 0, hashes = 0;
    std::uint64_t app_exec = 0;
};

void write_requests(const std::string& path, const std::vector<RequestRecord>& recs,
                    Report& rep) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    rep.require(f != nullptr, "cannot write " + path);
    if (!f) return;
    for (const RequestRecord& q : recs) {
        std::fprintf(f,
                     "{\"session\":%u,\"k\":%u,\"due_ns\":%" PRId64 ",\"start_ns\":%" PRId64
                     ",\"done_ns\":%" PRId64
                     ",\"outcome\":\"%s\",\"gen_ns\":%u,\"invoke_ns\":%u,\"cb_ns\":%u}\n",
                     q.session, q.k, q.due, q.start, q.done, outcome_name(q.outcome), q.gen_ns,
                     q.invoke_ns, q.cb_ns);
    }
    rep.require(std::fclose(f) == 0, "cannot write " + path);
}

}  // namespace

LoadSpec reference_spec(const WorkloadDef& w, const PassOptions& o) {
    LoadSpec s;
    s.seed = o.seed;
    s.rate = w.ref_rate;
    s.window = o.quick ? w.quick_window : w.ref_window;
    return s;
}

RefRun reference_run(const WorkloadDef& w, const LoadSpec& spec, const BuildOptions& b,
                     Report& rep, const std::string& tag) {
    System s = build_system(w, b);
    obs::Registry reg;
    s.d->register_obs(reg, kPrefix, nullptr);
    RefRun rr;
    rr.load = run_open_loop(*s.d, spec, s.ops, s.check);
    check_run(w, b, s, rr.load, reg, rep, tag);
    rr.fingerprint = fingerprint(rr.load);
    return rr;
}

Report run_untraced(const WorkloadDef& w, const PassOptions& o) {
    Report rep(w.name, false);
    const BuildOptions b = base_build(o);

    // The first build is not timed: it fills caches and lazy tables.
    std::vector<double> builds;
    for (int i = 0; i <= kSetupBuilds; ++i) {
        const std::uint64_t t0 = host_ns();
        System s = build_system(w, b);
        const std::uint64_t t1 = host_ns();
        if (i > 0) builds.push_back(static_cast<double>(t1 - t0) * 1e-9);
    }

    std::vector<double> walls;
    RefRun first;
    long peak_kb = 0;
    const std::uint64_t start = host_ns();
    for (int i = 0;; ++i) {
        const std::string tag = "reference run " + std::to_string(i + 1);
        RefRun rr = reference_run(w, reference_spec(w, o), b, rep, tag);
        walls.push_back(rr.load.wall_s);
        if (i == 0) {
            // Peak RSS through set-up and one reference run: later repeats
            // and the search's probes only add allocator reuse noise.
            peak_kb = peak_rss_kb();
            first = std::move(rr);
        } else {
            rep.require(rr.fingerprint == first.fingerprint,
                        tag + " disagrees with run 1 on simulated results");
        }
        const double elapsed = static_cast<double>(host_ns() - start) * 1e-9;
        if (i + 1 >= kMinRepeats && elapsed >= o.seconds) break;
    }

    LoadResult stats;
    if (w.stats_window > 0) {
        BuildOptions modeled = b;
        modeled.crypto = crypto::CryptoMode::kModeled;
        const RefRun same =
            reference_run(w, reference_spec(w, o), modeled, rep, "modeled-crypto reference run");
        rep.require(same.fingerprint == first.fingerprint,
                    "modeled and real crypto disagree on simulated results");
        LoadSpec longer = reference_spec(w, o);
        if (!o.quick) longer.window = w.stats_window;
        stats = reference_run(w, longer, modeled, rep, "modeled-crypto statistics run").load;
    } else {
        stats = std::move(first.load);
    }

    const double goodput = search_goodput(w, o, rep);

    rep.set("goodput_kops", goodput / 1e3);
    rep.set("p50_us", pct(stats.latency_us, 50));
    rep.set("p99_us", pct(stats.latency_us, 99));
    rep.set("p999_us", pct(stats.latency_us, 99.9));
    rep.set("mean_us", stats.latency_us.empty() ? 0 : stats.latency_us.mean());
    rep.set("ok_pct", stats.ok_pct());
    rep.set("wall_s", median(walls));
    rep.set("setup_s", median(builds));
    rep.set("peak_rss_mb", static_cast<double>(peak_kb) / 1024.0);
    rep.attempted = stats.due;
    rep.failed = stats.missing + stats.invalid;
    return rep;
}

namespace {

void traced_pass(const WorkloadDef& w, const PassOptions& o, const std::string& out,
                 Report& rep, HostTrace& ht) {
    // Declared before the system: the timed apps write into these.
    std::deque<TimedApp::Counters> apps;
    std::uint64_t app_make_ns = 0;
    BuildOptions b = base_build(o);
    if (w.kind != Kind::kYcsbTxn) {
        b.wrap_app = [&apps, &app_make_ns](const AppMaker& make) {
            const std::uint64_t t0 = host_ns();
            std::unique_ptr<app::StateMachine> inner = make();
            app_make_ns += host_ns() - t0;
            apps.emplace_back();
            return std::make_unique<TimedApp>(std::move(inner), apps.back());
        };
    }
    auto app_totals = [&apps] {
        TimedApp::Counters t;
        for (const TimedApp::Counters& c : apps) {
            t.exec += c.exec;
            t.exec_ns += c.exec_ns;
            t.undo += c.undo;
            t.snapshots += c.snapshots;
            t.snapshot_ns += c.snapshot_ns;
            t.restores += c.restores;
        }
        return t;
    };

    System s;
    double deploy_ms = 0;
    {
        HostTrace::Scope span(ht, "setup.deploy");
        s = build_system(w, b);
        deploy_ms = span.elapsed_ms();
    }
    const long rss_setup_kb = current_rss_kb();
    bench::Deployment& d = *s.d;
    sim::Simulator& sim = d.simulator();
    obs::Registry reg;
    d.register_obs(reg, kPrefix, nullptr);
    obs::TraceSink spans;
    spans.set_kind_mask(obs::kSpanKindMask);
    sim.set_trace(&spans);

    auto take = [&] {
        Snap sn;
        sn.reg = reg.snapshot();
        sim::Network& net = d.network();
        sn.packets = net.packets_sent();
        sn.bytes = net.bytes_sent();
        sn.drops = net.packets_dropped();
        sn.transit = net.transit_time();
        sn.cpu = net.total_cpu_busy();
        sn.queue = net.total_queue_wait();
        for (NodeId id : d.replica_ids()) {
            if (crypto::CostMeter* m = d.replica_meter(id)) {
                sn.signs += m->signs;
                sn.verifies += m->verifies;
                sn.macs += m->macs;
                sn.hashes += m->hashes;
            }
        }
        sn.app_exec = app_totals().exec;
        return sn;
    };
    const Snap base = take();
    Snap win, end;

    LoadSpec spec = reference_spec(w, o);
    spec.trace = true;
    const sim::Time end_t = spec.warmup + spec.window + spec.drain;

    // Catch-up of the recovered replica: its execution frontier against the
    // slowest other replica's, sampled from the registry at 1 ms global
    // events from the recovery on.
    sim::Time caught_up_at = -1;
    std::function<void(sim::Time)> sample;
    if (w.kind == Kind::kFailover) {
        const std::string node = std::to_string(kCrashedReplica);
        sample = [&, node](sim::Time t) {
            std::map<std::string, double> f =
                per_node(reg.snapshot(), "replica", "executed_frontier");
            double others = std::numeric_limits<double>::infinity();
            for (const auto& [id, v] : f) {
                if (id != node) others = std::min(others, v);
            }
            if (f[node] >= others) {
                caught_up_at = t;
            } else if (t + kCatchupSample < end_t) {
                sim.at(t + kCatchupSample, [&sample, t] { sample(t + kCatchupSample); });
            }
        };
        sim.at(kReplicaRecoverAt, [&sample] { sample(kReplicaRecoverAt); });
    }

    RunHooks hooks;
    hooks.trace = &ht;
    hooks.at_window = [&] { win = take(); };
    hooks.at_end = [&] { end = take(); };
    LoadResult r;
    {
        HostTrace::Scope span(ht, "run_open_loop");
        r = run_open_loop(d, spec, s.ops, s.check, hooks);
    }
    sim.set_trace(nullptr);
    const long peak_kb = peak_rss_kb();

    double audit_ms = 0;
    {
        HostTrace::Scope span(ht, "obs.auditor_finalize");
        d.auditor().finalize();
        audit_ms = span.elapsed_ms();
    }
    check_run(w, b, s, r, reg, rep, "traced run");

    obs::CriticalPathReport cp;
    double cp_ms = 0;
    {
        HostTrace::Scope span(ht, "obs.analyze_spans");
        std::vector<obs::SpanRecord> recs;
        for (const obs::TraceEvent& e : spans.events()) {
            if (e.t < spec.warmup) continue;
            recs.push_back({e.t, e.node, e.kind == obs::EventKind::kSpanBegin, e.label, e.a, e.b});
        }
        cp = obs::analyze_spans(recs);
        cp_ms = span.elapsed_ms();
    }
    const bench::Deployment::TxnTotals txn = d.txn_totals();
    const std::uint64_t failovers = d.failovers();
    const TimedApp::Counters app = app_totals();
    const std::string traced_fp = fingerprint(r);
    const double ok = static_cast<double>(std::max<std::uint64_t>(r.ok, 1));
    // Free the traced system before the comparison runs.
    spans.clear();
    s = System{};

    RefRun plain;
    {
        HostTrace::Scope span(ht, "reference.untraced");
        plain =
            reference_run(w, reference_spec(w, o), base_build(o), rep, "untraced reference run");
    }
    rep.require(plain.fingerprint == traced_fp,
                "traced and untraced runs disagree on simulated results");

    double pdes_speedup = 0, real_extra_ms = 0, host_share = 0, ref50 = 0, ref99 = 0;
    if (w.kind == Kind::kYcsbTxn) {
        HostTrace::Scope span(ht, "reference.serial");
        BuildOptions serial = base_build(o);
        serial.sim_threads = 1;
        RefRun sr = reference_run(w, reference_spec(w, o), serial, rep, "serial reference run");
        rep.require(sr.fingerprint == plain.fingerprint,
                    "serial and partitioned engines disagree on simulated results");
        pdes_speedup = sr.load.wall_s / plain.load.wall_s;
    }
    if (w.kind == Kind::kEchoPkReal) {
        HostTrace::Scope span(ht, "reference.modeled_crypto");
        BuildOptions modeled = base_build(o);
        modeled.crypto = crypto::CryptoMode::kModeled;
        RefRun mr =
            reference_run(w, reference_spec(w, o), modeled, rep, "modeled-crypto reference run");
        rep.require(mr.fingerprint == plain.fingerprint,
                    "modeled and real crypto disagree on simulated results");
        real_extra_ms = (plain.load.wall_s - mr.load.wall_s) * 1e3;
        host_share = 100.0 * (plain.load.wall_s - mr.load.wall_s) / plain.load.wall_s;
    }
    if (w.kind == Kind::kEchoHm) {
        HostTrace::Scope span(ht, "reference.unreplicated");
        System u = build_unreplicated(w, o.seed);
        obs::Registry ureg;
        LoadResult ur = run_open_loop(*u.d, reference_spec(w, o), u.ops, u.check);
        check_run(w, b, u, ur, ureg, rep, "unreplicated reference run");
        ref50 = pct(ur.latency_us, 50);
        ref99 = pct(ur.latency_us, 99);
    }

    // ---- sim
    const double run_ms = r.wall_s * 1e3;
    rep.set("sim.events_per_op", static_cast<double>(r.events) / ok);
    rep.set("sim.packets_per_op", static_cast<double>(end.packets - win.packets) / ok);
    rep.set("sim.bytes_per_op", static_cast<double>(end.bytes - win.bytes) / ok);
    rep.set("sim.drops", static_cast<double>(end.drops - base.drops));
    rep.set("sim.net_us_per_op", sim::to_us(end.transit - win.transit) / ok);
    rep.set("sim.cpu_us_per_op", sim::to_us(end.cpu - win.cpu) / ok);
    rep.set("sim.queue_us_per_op", sim::to_us(end.queue - win.queue) / ok);
    rep.set("sim.run_ms", run_ms);
    rep.set("sim.host_ns_per_event",
            r.events ? r.wall_s * 1e9 / static_cast<double>(r.events) : 0);
    // App time inside the measured run_until is approximated by the
    // window's share of all executes.
    const double window_execs = static_cast<double>(end.app_exec - win.app_exec);
    const double app_run_ns =
        app.exec ? static_cast<double>(app.exec_ns) * window_execs / static_cast<double>(app.exec)
                 : 0;
    rep.set("sim.self_ms",
            run_ms - (app_run_ns + static_cast<double>(r.gen_ns + r.cb_ns)) * 1e-6);
    rep.set("sim.pdes_speedup", pdes_speedup);

    // ---- aom
    auto delta = [&](const char* group, const char* stat) {
        return sum_of(end.reg, group, stat) - sum_of(win.reg, group, stat);
    };
    auto total = [&](const char* group, const char* stat) {
        return sum_of(end.reg, group, stat) - sum_of(base.reg, group, stat);
    };
    const double sigs = delta("sequencer", "signatures_generated");
    const double skipped = delta("sequencer", "signatures_skipped");
    rep.set("aom.seq.sequenced_per_op", delta("sequencer", "packets_sequenced") / ok);
    rep.set("aom.seq.signatures_per_op", sigs / ok);
    rep.set("aom.seq.sig_skipped_pct", sigs + skipped > 0 ? 100.0 * skipped / (sigs + skipped) : 0);
    rep.set("aom.seq.tail_drops", total("sequencer", "tail_drops"));
    rep.set("aom.rx.delivered_drops", total("replica", "aom.delivered_drops"));
    rep.set("aom.rx.rejected_packets", total("replica", "aom.rejected_packets"));
    const double seals = delta("replica", "aom.confirm_seals");
    rep.set("aom.rx.confirm_batch_mean",
            seals > 0 ? delta("replica", "aom.delivered_messages") / seals : 0);

    // ---- neobft
    double views = 0;
    {
        std::map<std::string, double> b0 = per_node(base.reg, "replica", "views_entered");
        for (const auto& [id, v] : per_node(end.reg, "replica", "views_entered")) {
            views = std::max(views, v - b0[id]);
        }
    }
    rep.set("neo.gap_agreements", total("replica", "gap_agreements_started"));
    rep.set("neo.gap_noops", total("replica", "gap_noops_committed"));
    rep.set("neo.view_changes", views);
    rep.set("neo.rollbacks", total("replica", "rollbacks"));
    rep.set("neo.syncs", total("replica", "syncs_completed"));
    rep.set("neo.ckpt_installs", total("replica", "ckpt_installs"));
    rep.set("neo.recoveries", total("replica", "recoveries"));
    rep.set("neo.failovers", static_cast<double>(failovers));
    rep.set("neo.catchup_ms",
            w.kind != Kind::kFailover ? 0
            : caught_up_at >= 0       ? sim::to_ms(caught_up_at - kReplicaRecoverAt)
                                      : sim::to_ms(end_t - kReplicaRecoverAt));
    rep.set("neo.unavailable_ms", sim::to_ms(r.longest_gap));
    const double decided = static_cast<double>(txn.committed_txns + txn.aborted_txns);
    rep.set("txn.abort_pct",
            decided > 0 ? 100.0 * static_cast<double>(txn.aborted_txns) / decided : 0);
    rep.set("txn.cross_pct", txn.txns_started ? 100.0 * static_cast<double>(txn.cross_shard_txns) /
                                                    static_cast<double>(txn.txns_started)
                                              : 0);

    // ---- crypto
    rep.set("crypto.signs_per_op", static_cast<double>(end.signs - win.signs) / ok);
    rep.set("crypto.verifies_per_op", static_cast<double>(end.verifies - win.verifies) / ok);
    rep.set("crypto.macs_per_op", static_cast<double>(end.macs - win.macs) / ok);
    rep.set("crypto.hashes_per_op", static_cast<double>(end.hashes - win.hashes) / ok);
    rep.set("crypto.real_extra_ms", real_extra_ms);
    rep.set("crypto.host_share_pct", host_share);

    // ---- apps
    rep.set("apps.exec_per_op", window_execs / ok);
    rep.set("apps.exec_ns",
            app.exec ? static_cast<double>(app.exec_ns) / static_cast<double>(app.exec) : 0);
    rep.set("apps.undo_count", static_cast<double>(app.undo));
    rep.set("apps.snapshot_count", static_cast<double>(app.snapshots));
    rep.set("apps.snapshot_ms", static_cast<double>(app.snapshot_ns) * 1e-6);
    rep.set("apps.restore_count", static_cast<double>(app.restores));

    // ---- critical path
    for (std::size_t i = 0; i < obs::kPhaseOrderCount; ++i) {
        const std::string p = obs::kPhaseOrder[i];
        if (p == "batch") continue;
        double p50 = 0, p99 = 0, share = 0;
        for (const obs::PhaseStat& ph : cp.phases) {
            if (ph.phase == p) {
                p50 = ph.p50_us;
                p99 = ph.p99_us;
                share = ph.share_pct;
            }
        }
        rep.set("phase." + p + ".p50_us", p50);
        rep.set("phase." + p + ".p99_us", p99);
        rep.set("phase." + p + ".share_pct", share);
    }
    // Phase durations are whole virtual ns summed as doubles in us; a real
    // mismatch is at least 1 ns, float rounding is far below half of one.
    const double residual_us = std::round(cp.residual_us * 1e3) / 1e3;
    rep.set("phase.residual_us", residual_us);
    rep.require(cp.requests > 0, "the span stream holds no committed request");
    rep.require(residual_us == 0, "critical-path phases do not sum to end-to-end latency");

    // ---- obs, memory
    rep.set("obs.audit_ms", audit_ms);
    rep.set("obs.critical_path_ms", cp_ms);
    rep.set("obs.trace_overhead_pct", 100.0 * (r.wall_s - plain.load.wall_s) / plain.load.wall_s);
    rep.set("mem.kb_per_op", static_cast<double>(peak_kb - rss_setup_kb) / ok);

    // ---- the load generator itself
    rep.set("bench.late_p99_us", pct(r.late_us, 99));
    rep.set("bench.late_max_us", r.late_us.empty() ? 0 : r.late_us.max());
    rep.set("bench.gen_ns_per_op",
            r.generated ? static_cast<double>(r.gen_ns) / static_cast<double>(r.generated) : 0);
    rep.set("bench.cb_ns_per_op",
            r.callbacks ? static_cast<double>(r.cb_ns) / static_cast<double>(r.callbacks) : 0);
    rep.set("bench.samples", static_cast<double>(r.latency_us.count()));
    rep.set("setup.deploy_ms", deploy_ms);
    rep.set("setup.app_ms", static_cast<double>(app_make_ns) * 1e-6);
    rep.set("ref.unreplicated_p50_us", ref50);
    rep.set("ref.unreplicated_p99_us", ref99);

    rep.attempted = r.due;
    rep.failed = r.missing + r.invalid;

    {
        HostTrace::Scope span(ht, "write_outputs");
        write_requests(out + ".requests.jsonl", r.records, rep);
        std::ofstream phases(out + ".phases.txt", std::ios::trunc);
        phases << obs::format_report(cp);
        rep.require(static_cast<bool>(phases), "cannot write " + out + ".phases.txt");
    }
    ht.add("client.op_gen", r.generated, r.gen_ns);
    ht.add("client.invoke", r.generated, r.invoke_ns);
    ht.add("client.callback", r.callbacks, r.cb_ns);
    ht.add("app.execute", app.exec, app.exec_ns);
    ht.add("app.snapshot", app.snapshots, app.snapshot_ns);
}

}  // namespace

Report run_traced(const WorkloadDef& w, const PassOptions& o) {
    Report rep(w.name, true);
    std::error_code ec;
    std::filesystem::create_directories(o.trace_dir, ec);
    rep.require(!ec, "cannot create " + o.trace_dir);
    const std::string out = o.trace_dir + "/" + w.name;
    HostTrace ht;
    {
        HostTrace::Scope span(ht, "traced_pass");
        traced_pass(w, o, out, rep, ht);
    }
    rep.require(ht.write_chrome(out + ".host.json"), "cannot write " + out + ".host.json");
    return rep;
}

}  // namespace neo::e2e
