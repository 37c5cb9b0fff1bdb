#include "report.hpp"

#include <stdexcept>

#include "obs/critical_path.hpp"

namespace neo::e2e {

namespace {

std::vector<MetricDef> make_per_layer() {
    std::vector<MetricDef> v = {
        // sim: engine and network
        {"sim.events_per_op", "count", false},
        {"sim.packets_per_op", "count", false},
        {"sim.bytes_per_op", "B", false},
        {"sim.drops", "count", false},
        {"sim.net_us_per_op", "us", false},
        {"sim.cpu_us_per_op", "us", false},
        {"sim.queue_us_per_op", "us", false},
        {"sim.run_ms", "ms", false},
        {"sim.host_ns_per_event", "ns", false},
        {"sim.self_ms", "ms", false},
        {"sim.pdes_speedup", "x", true},
        // aom: sequencer and receiver
        {"aom.seq.sequenced_per_op", "count", false},
        {"aom.seq.signatures_per_op", "count", false},
        {"aom.seq.sig_skipped_pct", "%", true},
        {"aom.seq.tail_drops", "count", false},
        {"aom.rx.delivered_drops", "count", false},
        {"aom.rx.rejected_packets", "count", false},
        {"aom.rx.confirm_batch_mean", "count", true},
        // neobft: replica, client, shard client
        {"neo.gap_agreements", "count", false},
        {"neo.gap_noops", "count", false},
        {"neo.view_changes", "count", false},
        {"neo.rollbacks", "count", false},
        {"neo.syncs", "count", false},
        {"neo.ckpt_installs", "count", false},
        {"neo.recoveries", "count", false},
        {"neo.failovers", "count", false},
        {"neo.catchup_ms", "ms", false},
        {"neo.unavailable_ms", "ms", false},
        {"txn.abort_pct", "%", false},
        {"txn.cross_pct", "%", false},
        // crypto
        {"crypto.signs_per_op", "count", false},
        {"crypto.verifies_per_op", "count", false},
        {"crypto.macs_per_op", "count", false},
        {"crypto.hashes_per_op", "count", false},
        {"crypto.real_extra_ms", "ms", false},
        {"crypto.host_share_pct", "%", false},
        // apps: the replica application, through a timing decorator
        {"apps.exec_per_op", "count", false},
        {"apps.exec_ns", "ns", false},
        {"apps.undo_count", "count", false},
        {"apps.snapshot_count", "count", false},
        {"apps.snapshot_ms", "ms", false},
        {"apps.restore_count", "count", false},
    };
    // Commit critical path. NeoBFT has no leader batcher, so the
    // baselines-only "batch" phase is left out.
    for (std::size_t i = 0; i < obs::kPhaseOrderCount; ++i) {
        std::string p = obs::kPhaseOrder[i];
        if (p == "batch") continue;
        v.push_back({"phase." + p + ".p50_us", "us", false});
        v.push_back({"phase." + p + ".p99_us", "us", false});
        v.push_back({"phase." + p + ".share_pct", "%", false});
    }
    std::vector<MetricDef> tail = {
        {"phase.residual_us", "us", false},
        // obs
        {"obs.audit_ms", "ms", false},
        {"obs.critical_path_ms", "ms", false},
        {"obs.trace_overhead_pct", "%", false},
        {"mem.kb_per_op", "KB", false},
        // bench: the load generator itself
        {"bench.late_p99_us", "us", false},
        {"bench.late_max_us", "us", false},
        {"bench.gen_ns_per_op", "ns", false},
        {"bench.cb_ns_per_op", "ns", false},
        {"bench.samples", "count", true},
        {"setup.deploy_ms", "ms", false},
        {"setup.app_ms", "ms", false},
        // single-node reference
        {"ref.unreplicated_p50_us", "us", false},
        {"ref.unreplicated_p99_us", "us", false},
    };
    v.insert(v.end(), tail.begin(), tail.end());
    return v;
}

}  // namespace

const std::vector<MetricDef>& end_to_end_metrics() {
    static const std::vector<MetricDef> v = {
        {"goodput_kops", "kops/s", true},
        {"p50_us", "us", false},
        {"p99_us", "us", false},
        {"p999_us", "us", false},
        {"mean_us", "us", false},
        {"ok_pct", "%", true},
        {"wall_s", "s", false},
        {"setup_s", "s", false},
        {"peak_rss_mb", "MB", false},
    };
    return v;
}

const std::vector<MetricDef>& per_layer_metrics() {
    static const std::vector<MetricDef> v = make_per_layer();
    return v;
}

bool valid_metric_name(const std::string& name) {
    if (name.empty() || name.size() > 64) return false;
    auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
    };
    if (!alnum(name[0])) return false;
    for (char c : name) {
        if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
    }
    return true;
}

Report::Report(std::string workload, bool traced)
    : workload_(std::move(workload)), traced_(traced) {
    values_.assign(catalogue().size(), 0.0);
    set_.assign(catalogue().size(), false);
}

const std::vector<MetricDef>& Report::catalogue() const {
    return traced_ ? per_layer_metrics() : end_to_end_metrics();
}

void Report::set(const std::string& name, double value) {
    const auto& cat = catalogue();
    for (std::size_t i = 0; i < cat.size(); ++i) {
        if (cat[i].name == name) {
            values_[i] = value;
            set_[i] = true;
            return;
        }
    }
    throw std::logic_error("uncatalogued metric " + name);
}

void Report::require(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
}

std::vector<Metric> Report::metrics() const {
    std::vector<Metric> out;
    const auto& cat = catalogue();
    for (std::size_t i = 0; i < cat.size(); ++i) {
        if (!set_[i]) throw std::logic_error("metric never set: " + cat[i].name);
        out.push_back({cat[i].name, values_[i], cat[i].unit});
    }
    return out;
}

void Report::print(std::FILE* out) const {
    for (const Metric& m : metrics()) {
        std::fprintf(out, "%s %s %s %s\n", workload_.c_str(), m.name.c_str(),
                     bench::Json::format_number(m.value).c_str(), m.unit.c_str());
    }
    for (const std::string& f : failures_) {
        std::fprintf(out, "%s FAILED %s\n", workload_.c_str(), f.c_str());
    }
    std::fflush(out);
}

bench::Json Report::to_json() const {
    using bench::Json;
    Json j = Json::object();
    j.set("workload", Json(workload_));
    j.set("traced", Json(traced_));
    j.set("correct", Json(correct()));
    j.set("attempted", Json(static_cast<double>(attempted)));
    j.set("failed", Json(static_cast<double>(failed)));
    Json fails = Json::array();
    for (const std::string& f : failures_) fails.push_back(Json(f));
    j.set("failures", std::move(fails));
    Json ms = Json::object();
    for (const Metric& m : metrics()) {
        Json one = Json::object();
        one.set("value", Json(m.value));
        one.set("unit", Json(m.unit));
        ms.set(m.name, std::move(one));
    }
    j.set("metrics", std::move(ms));
    return j;
}

Report Report::from_json(const bench::Json& j) {
    Report r(j.at("workload").string(), j.at("traced").boolean());
    r.attempted = static_cast<std::uint64_t>(j.at("attempted").number());
    r.failed = static_cast<std::uint64_t>(j.at("failed").number());
    for (const bench::Json& f : j.at("failures").items()) r.failures_.push_back(f.string());
    for (const auto& [name, m] : j.at("metrics").members()) r.set(name, m.at("value").number());
    return r;
}

}  // namespace neo::e2e
