#include "workloads.hpp"

#include <sched.h>

#include <algorithm>

#include "apps/kvstore.hpp"
#include "common/rng.hpp"
#include "scenario/scenario.hpp"

namespace neo::e2e {

namespace {

constexpr std::size_t kEchoBytes = 64;

std::vector<WorkloadDef> make_workloads() {
    std::vector<WorkloadDef> v;

    // The paper's headline configuration (Fig 7): the event loop and the
    // network do nearly all the host work.
    WorkloadDef hm;
    hm.name = "echo-hm";
    hm.kind = Kind::kEchoHm;
    hm.ref_rate = 200'000;
    hm.ref_window = 300 * sim::kMillisecond;
    hm.quick_window = 20 * sim::kMillisecond;
    hm.slo = {99, 500 * sim::kMicrosecond};
    hm.search_lo = 50'000;
    hm.search_hi = 800'000;
    v.push_back(hm);

    // Real secp256k1 signing and batch verification do most of the host
    // work: the opposite of echo-hm for every crypto-layer change. Real
    // crypto is ~15x slower on the host, so the timed window is short and
    // the latency statistics come from a 1 s modeled run (PK's tail varies
    // more across seeds than HM's).
    WorkloadDef pk = hm;
    pk.name = "echo-pk-real";
    pk.kind = Kind::kEchoPkReal;
    pk.ref_window = 30 * sim::kMillisecond;
    pk.quick_window = 5 * sim::kMillisecond;
    pk.stats_window = 1 * sim::kSecond;
    v.push_back(pk);

    // The write / 2PC use of the same ordering layers: kvstore, 2PC locking
    // and PDES do the work. Aborts grow slowly with load, so the SLO
    // crossing is shallow and probes need a longer window to be steady.
    WorkloadDef ycsb;
    ycsb.name = "ycsb-txn";
    ycsb.kind = Kind::kYcsbTxn;
    ycsb.sessions = 64;
    ycsb.ref_rate = 30'000;
    ycsb.ref_window = 500 * sim::kMillisecond;
    ycsb.quick_window = 20 * sim::kMillisecond;
    ycsb.slo = {90, 2 * sim::kMillisecond};
    ycsb.search_lo = 5'000;
    ycsb.search_hi = 400'000;
    ycsb.probe_window = 600 * sim::kMillisecond;
    v.push_back(ycsb);

    // Paper 6.4: sequencer failover, then a replica crash and Merkle state
    // transfer, with requests falling due through the outage.
    WorkloadDef fo = hm;
    fo.name = "failover";
    fo.kind = Kind::kFailover;
    fo.ref_rate = 100'000;
    fo.ref_window = 600 * sim::kMillisecond;
    fo.quick_window = 450 * sim::kMillisecond;
    v.push_back(fo);
    return v;
}

/// Echo ops: 64 random bytes from the session's own stream.
OpSource echo_source(std::uint64_t seed, int sessions) {
    auto rngs = std::make_shared<std::vector<StreamRng>>();
    for (int s = 0; s < sessions; ++s) {
        rngs->emplace_back(seed ^ 0xec40ec40ec40ec40ull, static_cast<std::uint64_t>(s));
    }
    return [rngs](int s) { return (*rngs)[static_cast<std::size_t>(s)].bytes(kEchoBytes); };
}

Verdict echo_check(BytesView op, BytesView reply) {
    return op.size() == reply.size() && std::equal(op.begin(), op.end(), reply.begin())
               ? Verdict::kOk
               : Verdict::kInvalid;
}

Verdict kv_check(BytesView, BytesView reply) {
    std::optional<app::KvResult> r = app::KvResult::parse(reply);
    if (!r) return Verdict::kInvalid;
    if (r->status == app::KvStatus::kOk) return Verdict::kOk;
    if (r->status == app::KvStatus::kTxnAborted) return Verdict::kFailed;
    return Verdict::kInvalid;
}

}  // namespace

const std::vector<WorkloadDef>& workloads() {
    static const std::vector<WorkloadDef> v = make_workloads();
    return v;
}

const WorkloadDef* find_workload(const std::string& name) {
    for (const WorkloadDef& w : workloads()) {
        if (w.name == name) return &w;
    }
    return nullptr;
}

unsigned auto_sim_threads() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
    int n = CPU_COUNT(&set);
    return n < 1 ? 1u : static_cast<unsigned>(n);
}

System build_system(const WorkloadDef& w, const BuildOptions& o) {
    System sys;
    if (w.kind == Kind::kYcsbTxn) {
        bench::ShardParams p;
        p.n_shards = 8;
        p.n_clients = w.sessions;
        p.seed = o.seed;
        p.sim_threads = o.sim_threads.value_or(auto_sim_threads());
        p.crypto_mode = o.crypto.value_or(crypto::CryptoMode::kModeled);
        p.dataset = {10'000, 32, 0.5, 0.99};
        sys.d = bench::make_sharded_neobft(p);

        bench::ShardTxnWorkload tw;
        tw.n_shards = p.n_shards;
        tw.cross_shard_ratio = 0.2;
        tw.ops_per_txn = 4;
        tw.seed = o.seed;
        tw.dataset = p.dataset;
        bench::OpGen gen = bench::sharded_txn_ops(tw, w.sessions);
        sys.ops = [gen](int s) { return gen(s, 0); };
        sys.check = kv_check;
        return sys;
    }

    bench::NeoParams p;
    p.n_clients = w.sessions;
    p.seed = o.seed;
    p.sim_threads = o.sim_threads.value_or(1);
    p.variant = w.kind == Kind::kEchoPkReal ? bench::NeoVariant::kPk : bench::NeoVariant::kHm;
    p.crypto_mode = o.crypto.value_or(w.kind == Kind::kEchoPkReal ? crypto::CryptoMode::kReal
                                                                  : crypto::CryptoMode::kModeled);
    if (w.kind == Kind::kFailover) p.checkpoint_interval = 1024;
    if (o.wrap_app) {
        p.app_factory = [wrap = o.wrap_app] {
            return wrap([] { return std::make_unique<app::EchoApp>(); });
        };
    }
    sys.d = bench::make_neobft(p);
    sys.ops = echo_source(o.seed, w.sessions);
    sys.check = echo_check;

    if (w.kind == Kind::kFailover && o.faults) {
        // The sequencer stall goes through the deployment's own hook, which
        // stalls only the active switch, so the config service can fail
        // over to the standby. Scheduled from setup: a global event.
        bench::Deployment* d = sys.d.get();
        d->simulator().at(kSequencerFailAt, [d] { d->inject_sequencer_failure(); });

        scenario::Scenario sc;
        sc.name = "failover";
        sc.events.push_back({kReplicaCrashAt, scenario::FaultKind::kCrash, {kCrashedReplica}});
        sc.events.push_back(
            {kReplicaRecoverAt, scenario::FaultKind::kRecover, {kCrashedReplica}});
        sys.adapter = std::make_unique<bench::ScenarioAdapter>(*sys.d);
        scenario::apply(sc, *sys.adapter);
    }
    return sys;
}

System build_unreplicated(const WorkloadDef& w, std::uint64_t seed) {
    bench::CommonParams p;
    p.n_clients = w.sessions;
    p.seed = seed;
    System sys;
    sys.d = bench::make_unreplicated(p);
    sys.ops = echo_source(seed, w.sessions);
    sys.check = echo_check;
    return sys;
}

}  // namespace neo::e2e
