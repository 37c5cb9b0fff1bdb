#include "obs/critical_path.hpp"

#include <cstdio>
#include <map>

#include "common/histogram.hpp"

namespace neo::obs {

const char* const kPhaseOrder[] = {
    "client_submit",  // client invoke -> sequencer ingress (NeoBFT) or
                      // arrival in the leader's batcher (baselines)
    "batch",          // wait in the leader's adaptive batcher until seal
                      // (baselines only; NeoBFT has no leader batching)
    "sequence",       // sequencer ingress -> stamped emission
    "net_fanout",     // emission -> first aom packet at the completing replica
    "aom_deliver",    // aom authentication/confirm -> delivery to the replica
    "ordering",       // delivery -> execution start (baselines: the whole
                      // ordering protocol, since they have no aom spans)
    "execute",        // app execution on the completing replica
    "reply_net",      // execution done -> first matching reply at the client
    "reply_quorum",   // first matching reply -> 2f+1 quorum completion
};
const std::size_t kPhaseOrderCount = sizeof(kPhaseOrder) / sizeof(kPhaseOrder[0]);

namespace {

constexpr sim::Time kUnset = -1;

struct PerTid {
    sim::Time req_b = kUnset, req_e = kUnset;
    NodeId completing = 0;
    sim::Time quorum_b = kUnset;
    sim::Time batch_b = kUnset, batch_e = kUnset;
    sim::Time seq_b = kUnset, seq_e = kUnset;
    std::map<NodeId, sim::Time> deliver_b, deliver_e;
    std::map<NodeId, sim::Time> exec_b, exec_e;
};

sim::Time lookup(const std::map<NodeId, sim::Time>& m, NodeId node) {
    auto it = m.find(node);
    return it == m.end() ? kUnset : it->second;
}

void set_once(sim::Time& slot, sim::Time t) {
    if (slot == kUnset) slot = t;
}

}  // namespace

CriticalPathReport analyze_spans(const std::vector<SpanRecord>& spans) {
    std::map<std::uint64_t, PerTid> reqs;
    for (const SpanRecord& s : spans) {
        PerTid& r = reqs[s.tid];
        if (s.name == "request") {
            if (s.begin) {
                set_once(r.req_b, s.t);
            } else if (r.req_e == kUnset) {
                r.req_e = s.t;
                r.completing = static_cast<NodeId>(s.peer);
            }
        } else if (s.name == "quorum") {
            if (s.begin) set_once(r.quorum_b, s.t);
        } else if (s.name == "batch") {
            if (s.begin) set_once(r.batch_b, s.t);
            else set_once(r.batch_e, s.t);
        } else if (s.name == "sequence") {
            if (s.begin) set_once(r.seq_b, s.t);
            else set_once(r.seq_e, s.t);
        } else if (s.name == "deliver") {
            auto& m = s.begin ? r.deliver_b : r.deliver_e;
            m.try_emplace(s.node, s.t);
        } else if (s.name == "execute") {
            auto& m = s.begin ? r.exec_b : r.exec_e;
            m.try_emplace(s.node, s.t);
        }
    }

    CriticalPathReport rep;
    std::map<std::string, Histogram> phase_hist;
    std::map<std::string, std::size_t> dominant;
    Histogram e2e;
    double phase_sum_total = 0;
    double e2e_sum_total = 0;

    for (auto& [tid, r] : reqs) {
        if (r.req_b == kUnset || r.req_e == kUnset) continue;  // not committed
        ++rep.requests;

        struct Cut {
            const char* phase;
            sim::Time t;
        };
        const Cut cuts[] = {
            // client_submit ends where the pipeline first takes custody of
            // the request: the sequencer ingress (NeoBFT) or the leader's
            // batcher (baselines, which have no sequence spans).
            {"client_submit", r.batch_b != kUnset ? r.batch_b : r.seq_b},
            {"batch", r.batch_e},
            {"sequence", r.seq_e},
            {"net_fanout", lookup(r.deliver_b, r.completing)},
            {"aom_deliver", lookup(r.deliver_e, r.completing)},
            {"ordering", lookup(r.exec_b, r.completing)},
            {"execute", lookup(r.exec_e, r.completing)},
            {"reply_net", r.quorum_b},
        };

        // Walk the pipeline; each observed, monotonic cut closes one phase.
        // Skipped cuts fold their interval into the next observed phase, so
        // the phase durations always sum to exactly req_e - req_b.
        sim::Time prev = r.req_b;
        const char* longest = "reply_quorum";
        sim::Time longest_dur = -1;
        double phase_sum = 0;
        auto close = [&](const char* phase, sim::Time t) {
            sim::Time dur = t - prev;
            prev = t;
            double us = static_cast<double>(dur) / 1000.0;
            phase_hist[phase].add(us);
            phase_sum += us;
            if (dur > longest_dur) {
                longest_dur = dur;
                longest = phase;
            }
        };
        for (const Cut& c : cuts) {
            if (c.t == kUnset || c.t < prev || c.t > r.req_e) continue;
            close(c.phase, c.t);
        }
        close("reply_quorum", r.req_e);

        double e2e_us = static_cast<double>(r.req_e - r.req_b) / 1000.0;
        e2e.add(e2e_us);
        ++dominant[longest];
        phase_sum_total += phase_sum;
        e2e_sum_total += e2e_us;
    }

    if (!e2e.empty()) {
        rep.e2e_mean_us = e2e.mean();
        rep.e2e_p50_us = e2e.percentile(50);
        rep.e2e_p99_us = e2e.percentile(99);
    }
    rep.residual_us = phase_sum_total - e2e_sum_total;

    auto emit = [&](const std::string& name) {
        auto it = phase_hist.find(name);
        if (it == phase_hist.end()) return;
        Histogram& h = it->second;
        PhaseStat st;
        st.phase = name;
        st.count = h.count();
        st.mean_us = h.mean();
        st.p50_us = h.percentile(50);
        st.p99_us = h.percentile(99);
        st.max_us = h.max();
        st.share_pct =
            e2e_sum_total > 0 ? 100.0 * h.mean() * h.count() / e2e_sum_total : 0;
        auto dit = dominant.find(name);
        st.dominant = dit == dominant.end() ? 0 : dit->second;
        rep.phases.push_back(std::move(st));
        phase_hist.erase(it);
    };
    for (std::size_t i = 0; i < kPhaseOrderCount; ++i) emit(kPhaseOrder[i]);
    while (!phase_hist.empty()) emit(phase_hist.begin()->first);  // unknown names
    return rep;
}

std::string format_report(const CriticalPathReport& r) {
    char buf[256];
    std::string out;
    std::snprintf(buf, sizeof(buf),
                  "critical path over %zu committed requests: e2e mean %.3f us, "
                  "p50 %.3f us, p99 %.3f us\n",
                  r.requests, r.e2e_mean_us, r.e2e_p50_us, r.e2e_p99_us);
    out += buf;
    std::snprintf(buf, sizeof(buf), "%-14s %8s %10s %10s %10s %10s %7s %9s\n", "phase", "count",
                  "mean_us", "p50_us", "p99_us", "max_us", "share%", "dominant%");
    out += buf;
    for (const PhaseStat& p : r.phases) {
        double dom_pct = r.requests > 0 ? 100.0 * static_cast<double>(p.dominant) /
                                              static_cast<double>(r.requests)
                                        : 0;
        std::snprintf(buf, sizeof(buf), "%-14s %8zu %10.3f %10.3f %10.3f %10.3f %7.2f %9.2f\n",
                      p.phase.c_str(), p.count, p.mean_us, p.p50_us, p.p99_us, p.max_us,
                      p.share_pct, dom_pct);
        out += buf;
    }
    std::snprintf(buf, sizeof(buf), "phase-sum residual vs end-to-end: %.6f us\n", r.residual_us);
    out += buf;
    return out;
}

}  // namespace neo::obs
