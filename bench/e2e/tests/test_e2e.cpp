// Tests of the end-to-end benchmark: the open-loop generator's accounting, the
// arrival schedule, the goodput search, the metric catalogue, determinism
// across engine partition counts, and the correctness gate.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "harness/bench_json.hpp"
#include "open_loop.hpp"
#include "passes.hpp"
#include "report.hpp"
#include "workloads.hpp"

using namespace neo;
using namespace neo::e2e;

namespace {

PassOptions quick(std::uint64_t seed = 42) {
    PassOptions o;
    o.seed = seed;
    o.quick = true;
    return o;
}

/// Replies with the first byte flipped: a faulty application.
class CorruptingApp : public app::StateMachine {
  public:
    explicit CorruptingApp(std::unique_ptr<app::StateMachine> inner) : inner_(std::move(inner)) {}
    Bytes execute(BytesView op) override {
        Bytes r = inner_->execute(op);
        if (!r.empty()) r[0] ^= 0xff;
        return r;
    }
    void undo_last() override { inner_->undo_last(); }
    void commit_prefix(std::uint64_t n) override { inner_->commit_prefix(n); }
    Bytes snapshot() const override { return inner_->snapshot(); }
    void restore(BytesView snap) override { inner_->restore(snap); }

  private:
    std::unique_ptr<app::StateMachine> inner_;
};

}  // namespace

TEST(OpenLoop, LatencyIsMeasuredFromTheDueTime) {
    // One session offered far more than one outstanding request at a time
    // can carry: requests queue behind their predecessors, and that wait
    // must be part of their latency.
    bench::CommonParams p;
    p.n_clients = 1;
    p.seed = 7;
    auto d = bench::make_unreplicated(p);
    LoadSpec spec;
    spec.seed = 7;
    spec.rate = 200'000;
    spec.window = 2 * sim::kMillisecond;
    spec.trace = true;
    const ReplyCheck echo = [](BytesView op, BytesView reply) {
        return Bytes(op.begin(), op.end()) == Bytes(reply.begin(), reply.end()) ? Verdict::kOk
                                                                                : Verdict::kInvalid;
    };
    LoadResult r = run_open_loop(*d, spec, [](int) { return Bytes(8, 1); }, echo);

    ASSERT_GT(r.ok, 10u);
    Histogram service;
    std::uint64_t queued = 0;
    for (const RequestRecord& q : r.records) {
        if (q.outcome != Outcome::kOk) continue;
        EXPECT_GE(q.start, q.due);
        service.add(sim::to_us(q.done - q.start));
        queued += q.start > q.due ? 1 : 0;
    }
    EXPECT_GT(queued, r.ok / 2);
    EXPECT_GT(r.latency_us.percentile(50), 5 * service.percentile(50));
    EXPECT_GT(r.late_us.percentile(50), 0);
}

TEST(OpenLoop, RequestsNeverIssuedCountAsFailed) {
    // Every packet is lost: each session's first request never finishes,
    // so every later request falls due without being issued.
    bench::CommonParams p;
    p.n_clients = 4;
    p.drop_rate = 1.0;
    auto d = bench::make_unreplicated(p);
    LoadSpec spec;
    spec.rate = 40'000;
    spec.warmup = 0;
    spec.window = 5 * sim::kMillisecond;
    spec.trace = true;
    LoadResult r = run_open_loop(
        *d, spec, [](int) { return Bytes(8, 1); },
        [](BytesView, BytesView) { return Verdict::kOk; });

    ASSERT_GT(r.due, 100u);
    EXPECT_EQ(r.ok, 0u);
    EXPECT_EQ(r.missing, r.due);
    EXPECT_EQ(r.ok_pct(), 0.0);
    EXPECT_EQ(r.within_pct(sim::kSecond), 0.0);
    std::uint64_t unfinished = 0, not_issued = 0;
    for (const RequestRecord& q : r.records) {
        unfinished += q.outcome == Outcome::kUnfinished ? 1 : 0;
        not_issued += q.outcome == Outcome::kNotIssued ? 1 : 0;
    }
    EXPECT_EQ(unfinished, 4u);
    EXPECT_EQ(unfinished + not_issued, r.due);
}

TEST(OpenLoop, ArrivalsArePureFunctionOfSeedAndSession) {
    ArrivalSchedule a(42, 3, 1'000, 0), b(42, 3, 1'000, 0);
    ArrivalSchedule other_session(42, 4, 1'000, 0), other_seed(43, 3, 1'000, 0);
    bool session_differs = false, seed_differs = false;
    sim::Time last = 0;
    for (int i = 0; i < 10'000; ++i) {
        (void)other_session.next();  // interleaved draws of another stream
        const sim::Time t = a.next();
        EXPECT_EQ(t, b.next());
        EXPECT_GE(t, last);
        last = t;
        session_differs |= other_session.next() != t;
        seed_differs |= other_seed.next() != t;
    }
    EXPECT_TRUE(session_differs);
    EXPECT_TRUE(seed_differs);
    // 10 000 gaps at 1 000/s: about 10 s, Poisson spread ~1 %.
    EXPECT_NEAR(sim::to_sec(last), 10.0, 0.5);
}

TEST(OpenLoop, BisectionFindsAPlantedThreshold) {
    const double threshold = 313.7;
    int probes = 0;
    const double found =
        bisect_rate(50, 800, 1.02, [&](double rate) { return rate <= threshold; }, &probes);
    EXPECT_LE(found, threshold);
    EXPECT_GT(found, threshold / 1.02);
    EXPECT_EQ(probes, 8);
    EXPECT_EQ(bisect_rate(50, 800, 1.02, [](double) { return false; }), 50.0);
}

TEST(Catalogue, MetricNamesAreValidAndMatchBenchmarkJson) {
    std::set<std::string> names;
    for (const auto* cat : {&end_to_end_metrics(), &per_layer_metrics()}) {
        for (const MetricDef& m : *cat) {
            EXPECT_TRUE(valid_metric_name(m.name)) << m.name;
            EXPECT_TRUE(names.insert(m.name).second) << "duplicate " << m.name;
        }
    }
    EXPECT_LE(per_layer_metrics().size(), 128u);
    EXPECT_FALSE(valid_metric_name("p99 us"));
    EXPECT_FALSE(valid_metric_name(".hidden"));

    const bench::Json j = bench::Json::parse_file(NEO_E2E_BENCHMARK_JSON);
    auto same = [](const bench::Json& listed, const std::vector<MetricDef>& cat) {
        ASSERT_EQ(listed.items().size(), cat.size());
        for (std::size_t i = 0; i < cat.size(); ++i) {
            const bench::Json& m = listed.items()[i];
            EXPECT_EQ(m.at("name").string(), cat[i].name);
            EXPECT_EQ(m.at("unit").string(), cat[i].unit);
            EXPECT_EQ(m.at("better").string(), cat[i].higher_is_better ? "higher" : "lower");
        }
    };
    same(j.at("end_to_end"), end_to_end_metrics());
    same(j.at("per_layer"), per_layer_metrics());
    ASSERT_EQ(j.at("workloads").items().size(), workloads().size());
    for (std::size_t i = 0; i < workloads().size(); ++i) {
        EXPECT_EQ(j.at("workloads").items()[i].at("name").string(), workloads()[i].name);
    }
}

TEST(Determinism, YcsbTxnIsIdenticalAcrossPartitionCounts) {
    const WorkloadDef& w = *find_workload("ycsb-txn");
    Report rep(w.name, false);
    BuildOptions serial, parallel;
    serial.sim_threads = 1;
    parallel.sim_threads = 4;
    const RefRun a = reference_run(w, reference_spec(w, quick()), serial, rep, "serial");
    const RefRun b = reference_run(w, reference_spec(w, quick()), parallel, rep, "4 partitions");
    EXPECT_TRUE(rep.correct()) << rep.failures().front();
    EXPECT_GT(a.load.ok, 100u);
    EXPECT_GT(a.load.failed, 0u);  // aborted transactions count as failed
    EXPECT_EQ(a.fingerprint, b.fingerprint);
}

TEST(Gate, TripsOnCorruptedEchoReplies) {
    const WorkloadDef& w = *find_workload("echo-hm");
    Report rep(w.name, false);
    BuildOptions b;
    b.wrap_app = [](const AppMaker& make) { return std::make_unique<CorruptingApp>(make()); };
    const RefRun r = reference_run(w, reference_spec(w, quick()), b, rep, "corrupted");
    EXPECT_GT(r.load.invalid, 0u);
    ASSERT_FALSE(rep.correct());
    EXPECT_NE(rep.failures().front().find("reply check"), std::string::npos);

    Report clean(w.name, false);
    reference_run(w, reference_spec(w, quick()), BuildOptions{}, clean, "clean");
    EXPECT_TRUE(clean.correct());
}

TEST(Passes, QuickPassesReportEveryMetricAndPassTheGate) {
    const WorkloadDef& w = *find_workload("echo-hm");
    Report plain = run_untraced(w, quick());
    EXPECT_TRUE(plain.correct()) << plain.failures().front();
    EXPECT_EQ(plain.metrics().size(), end_to_end_metrics().size());

    PassOptions o = quick();
    o.trace_dir = NEO_E2E_SCRATCH;
    Report traced = run_traced(w, o);
    EXPECT_TRUE(traced.correct()) << traced.failures().front();
    for (const Metric& m : traced.metrics()) {
        if (m.name == "phase.residual_us") {
            EXPECT_EQ(m.value, 0.0);
        }
        if (m.name == "apps.exec_per_op") {
            EXPECT_NEAR(m.value, 4.0, 0.5);
        }
    }
    for (const char* ext : {".host.json", ".requests.jsonl", ".phases.txt"}) {
        EXPECT_TRUE(std::filesystem::exists(std::string(NEO_E2E_SCRATCH) + "/echo-hm" + ext))
            << ext;
    }
    // The JSON round trip the parent process relies on.
    Report back = Report::from_json(traced.to_json());
    EXPECT_EQ(back.to_json().dump(), traced.to_json().dump());
}
