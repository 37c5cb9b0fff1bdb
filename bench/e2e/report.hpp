// Metric catalogue and per-workload reports of the end-to-end benchmark.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/bench_json.hpp"

namespace neo::e2e {

/// A metric as BENCHMARK.json lists it; README.md defines each one.
struct MetricDef {
    std::string name;
    std::string unit;
    bool higher_is_better = false;
};

/// Untraced pass: what a user of the system sees.
const std::vector<MetricDef>& end_to_end_metrics();
/// Traced pass: one layer each.
const std::vector<MetricDef>& per_layer_metrics();

/// Metric names are [A-Za-z0-9_.-]+, starting with a letter or digit.
bool valid_metric_name(const std::string& name);

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/// One workload's result: metrics in catalogue order plus the correctness
/// gate's findings.
class Report {
  public:
    explicit Report(std::string workload, bool traced);

    /// Sets a catalogued metric (the unit comes from the catalogue).
    void set(const std::string& name, double value);
    /// Records a correctness failure unless `ok`.
    void require(bool ok, const std::string& what);

    bool correct() const { return failures_.empty(); }
    const std::vector<std::string>& failures() const { return failures_; }
    /// Catalogue order; a metric never set is a failure of the pass itself.
    std::vector<Metric> metrics() const;

    /// Requests due in the reference run, and those without a valid reply.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /// `workload metric value unit` lines, then one line per failure.
    void print(std::FILE* out) const;
    /// {"workload","traced","correct","attempted","failed","failures",
    ///  "metrics":{name:{"value","unit"}}}
    bench::Json to_json() const;
    static Report from_json(const bench::Json& j);

  private:
    const std::vector<MetricDef>& catalogue() const;

    std::string workload_;
    bool traced_ = false;
    std::vector<double> values_;
    std::vector<bool> set_;
    std::vector<std::string> failures_;
};

}  // namespace neo::e2e
