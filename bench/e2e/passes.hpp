// The benchmark's two passes over one workload.
//
// Untraced pass (end-to-end metrics): the deployment is built 1 + 5 times
// (setup_s = median of the last 5), the reference configuration runs at
// least 3 times and until `seconds` of host time are spent (wall_s = median;
// every repeat must reproduce the first one's simulated results exactly),
// then the goodput search runs.
//
// Traced pass (per-layer metrics): one reference run with host spans, hot
// boundary aggregates, per-request records, a timing app decorator and the
// program's span stream, followed by the untraced runs it is compared with.
#pragma once

#include <string>

#include "open_loop.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace neo::e2e {

struct PassOptions {
    std::uint64_t seed = 42;
    /// Host seconds the reference repeats fill (at least 3 repeats run).
    double seconds = 0;
    /// Shorter virtual windows, for the tests only.
    bool quick = false;
    /// Traced pass output directory.
    std::string trace_dir;
};

/// One run of the reference configuration, with a fingerprint of its
/// simulated results (equal fingerprints = byte-identical results).
struct RefRun {
    LoadResult load;
    std::string fingerprint;
};

/// The reference configuration's load: rate and window of `w` (the quick
/// window under --quick).
LoadSpec reference_spec(const WorkloadDef& w, const PassOptions& o);

/// Runs `spec` once on a fresh deployment of `w` built with `b`, applying
/// the correctness gate; findings go into `rep` under `tag`.
RefRun reference_run(const WorkloadDef& w, const LoadSpec& spec, const BuildOptions& b,
                     Report& rep, const std::string& tag);

Report run_untraced(const WorkloadDef& w, const PassOptions& o);
Report run_traced(const WorkloadDef& w, const PassOptions& o);

}  // namespace neo::e2e
