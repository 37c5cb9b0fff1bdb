// §6.4 "Sequencer switch failover": throughput timeline around a sequencer
// failure.
//
// paper: throughput drops to zero on failure; the view change completes in
//        <200us; total failover <100ms, dominated by network reconfiguration;
//        throughput then returns to its previous peak.
#include <cstdio>
#include <memory>
#include <vector>

#include "harness/runner.hpp"

using namespace neo;
using namespace neo::bench;

namespace {

constexpr sim::Time kBucket = 10 * sim::kMillisecond;
constexpr sim::Time kFailAt = 200 * sim::kMillisecond;
constexpr sim::Time kEnd = 600 * sim::kMillisecond;

std::string bucket_metric(std::size_t i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "tput_t%03zu", i * 10);  // bucket start in ms
    return buf;
}

std::map<std::string, double> run_failover(RunCtx& ctx) {
    NeoParams p;
    p.n_clients = 32;
    p.variant = NeoVariant::kHm;
    p.seed = ctx.seed();
    p.sim_threads = ctx.sim_threads();
    auto d = make_neobft(p);
    auto obs = ctx.attach(*d);
    sim::Simulator& sim = d->simulator();

    // Throughput sampled in 10ms buckets. Client completions fire on the
    // client's partition, so each client accumulates into its own row (and
    // draws from its own RNG stream); rows are summed after the run.
    const auto nbuckets = static_cast<std::size_t>(kEnd / kBucket);
    auto per_client =
        std::make_shared<std::vector<std::vector<std::uint64_t>>>(
            static_cast<std::size_t>(p.n_clients), std::vector<std::uint64_t>(nbuckets, 0));
    auto rngs = std::make_shared<std::vector<StreamRng>>();
    for (int c = 0; c < p.n_clients; ++c) {
        rngs->emplace_back(ctx.seed() + 1'000'003, static_cast<std::uint64_t>(c));
    }

    // Held weakly by itself and strongly by in-flight callbacks (no cycle).
    auto issue = std::make_shared<std::function<void(int)>>();
    std::weak_ptr<std::function<void(int)>> self = issue;
    *issue = [&d, self, per_client, rngs](int c) {
        if (d->simulator().now() >= kEnd) return;
        d->invoke(c, (*rngs)[static_cast<std::size_t>(c)].bytes(64),
                  [&d, loop = self.lock(), per_client, c](Bytes) {
                      auto& row = (*per_client)[static_cast<std::size_t>(c)];
                      auto idx = static_cast<std::size_t>(d->simulator().now() / kBucket);
                      if (idx < row.size()) ++row[idx];
                      (*loop)(c);
                  });
    };
    for (int c = 0; c < p.n_clients; ++c) (*issue)(c);

    sim.run_until(kFailAt);
    d->inject_sequencer_failure();
    sim.run_until(kEnd);

    std::vector<std::uint64_t> buckets(nbuckets, 0);
    for (const auto& row : *per_client) {
        for (std::size_t i = 0; i < nbuckets; ++i) buckets[i] += row[i];
    }

    // Recovery analysis: first bucket at >=80% of the pre-failure rate.
    std::size_t fail_bucket = static_cast<std::size_t>(kFailAt / kBucket);
    double before = 0;
    for (std::size_t i = fail_bucket - 5; i < fail_bucket; ++i) {
        before += static_cast<double>(buckets[i]);
    }
    before /= 5;
    std::size_t recovered_at = buckets.size();
    for (std::size_t i = fail_bucket; i < buckets.size(); ++i) {
        if (static_cast<double>(buckets[i]) >= 0.8 * before) {
            recovered_at = i;
            break;
        }
    }
    // Not recovering within the window reports the full window — a real
    // regression, not a silent sentinel.
    double recovered_ms = sim::to_ms(static_cast<sim::Time>(
        (recovered_at < buckets.size() ? recovered_at - fail_bucket : buckets.size()) *
        kBucket));

    std::map<std::string, double> metrics{
        {"failovers", static_cast<double>(d->failovers())},
        {"recovered_ms", recovered_ms},
        {"pre_failure_tput_ops", before / sim::to_sec(kBucket)},
    };
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        metrics[bucket_metric(i)] = static_cast<double>(buckets[i]) / sim::to_sec(kBucket);
    }
    return metrics;
}

}  // namespace

int main(int argc, char** argv) {
    BenchMain bm(argc, argv, "fig9b_failover");
    std::printf("=== §6.4: NeoBFT throughput during sequencer failover ===\n\n");
    std::printf("sequencer killed at t=%.0fms\n\n", sim::to_ms(kFailAt));

    std::vector<PointResult> results =
        bm.run({{"failover", {}, [](RunCtx& ctx) { return run_failover(ctx); }}});
    const PointResult& r = results[0];

    TablePrinter table({"t_ms", "tput_ops"});
    for (std::size_t i = 0; i < static_cast<std::size_t>(kEnd / kBucket); ++i) {
        table.row({fmt_double(sim::to_ms(static_cast<sim::Time>(i) * kBucket), 0),
                   fmt_double(r.mean(bucket_metric(i)), 0)});
    }

    std::printf("\nfailovers performed: %.0f\n", r.mean("failovers"));
    double recovered_ms = r.mean("recovered_ms");
    if (recovered_ms < sim::to_ms(kEnd - kFailAt)) {
        std::printf("throughput recovered to >=80%% of pre-failure rate after ~%.0f ms\n",
                    recovered_ms);
    } else {
        std::printf("throughput did NOT recover within the window\n");
    }
    std::printf("paper anchor: total failover <100ms, view change <200us of it\n");
    return 0;
}
