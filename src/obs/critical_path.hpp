// Commit critical-path analysis over request-scoped spans.
//
// Every committed request leaves a small span set in the trace, all keyed
// by one trace id (obs::trace_id over the serialized signed request):
//
//   client   "request"   submit -> quorum completion (peer on the end
//                        event = the replica whose reply completed the
//                        2f+1 quorum)
//   client   "quorum"    first matching reply -> quorum completion
//   leader   "batch"     request queued in the leader's adaptive batcher
//                        -> batch sealed (baselines only)
//   switch   "sequence"  sequencer ingress -> stamped emission
//   replica  "deliver"   first aom packet for the seq -> app delivery
//   replica  "execute"   delivery handler -> app execution done
//
// The analyzer cuts each request's end-to-end interval at the boundaries
// observed on the quorum-completing replica, so the per-phase durations
// telescope: their sum equals the end-to-end commit latency *exactly*.
// Missing spans (baselines have no sequence/deliver) merge into the next
// observed phase; out-of-order cuts (a first reply arriving before the
// completing replica finished) are skipped the same way.
//
// Consumed both in-process (TraceSink::events() after a bench run, for the
// phase_* suite metrics) and offline (bench/trace_report parses exported
// JSONL/Chrome files back into SpanRecords).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/trace.hpp"
#include "sim/time.hpp"

namespace neo::obs {

/// Format-independent span event (one kSpanBegin/kSpanEnd record).
struct SpanRecord {
    sim::Time t = 0;
    NodeId node = 0;
    bool begin = false;
    std::string name;
    std::uint64_t tid = 0;
    std::uint64_t peer = 0;
};

/// Per-phase attribution across all committed requests.
struct PhaseStat {
    std::string phase;
    std::size_t count = 0;      // requests where the phase was observed
    double mean_us = 0;
    double p50_us = 0;
    double p99_us = 0;
    double max_us = 0;
    double share_pct = 0;       // of summed end-to-end time
    std::size_t dominant = 0;   // requests where this phase was the longest
};

struct CriticalPathReport {
    std::size_t requests = 0;   // committed requests analyzed
    double e2e_mean_us = 0;
    double e2e_p50_us = 0;
    double e2e_p99_us = 0;
    /// Pipeline order (client_submit, sequence, ..., reply_quorum); only
    /// phases observed at least once appear.
    std::vector<PhaseStat> phases;
    /// Sum over requests of (sum of phases - end_to_end); exactly 0 by
    /// construction, kept as a self-check the report prints.
    double residual_us = 0;
};

/// Canonical phase order; unknown phases sort last.
extern const char* const kPhaseOrder[];
extern const std::size_t kPhaseOrderCount;

CriticalPathReport analyze_spans(const std::vector<SpanRecord>& spans);

/// The p50/p99 phase-attribution table + dominant-phase (critical path)
/// distribution, as printed by fig7 --phases and bench/trace_report.
std::string format_report(const CriticalPathReport& r);

}  // namespace neo::obs
