#include "host_trace.hpp"

#include <fstream>

#include "harness/bench_json.hpp"
#include "open_loop.hpp"

namespace neo::e2e {

HostTrace::Scope::Scope(HostTrace& t, std::string name) : t_(t) {
    index_ = static_cast<int>(t_.spans_.size());
    t_.spans_.push_back({std::move(name), host_ns(), 0, t_.open_.empty() ? -1 : t_.open_.back()});
    t_.open_.push_back(index_);
}

HostTrace::Scope::~Scope() {
    t_.spans_[static_cast<std::size_t>(index_)].end_ns = host_ns();
    t_.open_.pop_back();
}

double HostTrace::Scope::elapsed_ms() const {
    return static_cast<double>(host_ns() - t_.spans_[static_cast<std::size_t>(index_)].start_ns) *
           1e-6;
}

void HostTrace::add(const std::string& name, std::uint64_t count, std::uint64_t ns) {
    Agg& a = aggs_[name];
    a.count += count;
    a.ns += ns;
}

bool HostTrace::write_chrome(const std::string& path) const {
    using bench::Json;
    const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    Json events = Json::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        Json e = Json::object();
        e.set("name", Json(s.name));
        e.set("ph", Json(std::string("X")));
        e.set("pid", Json(1.0));
        e.set("tid", Json(1.0));
        e.set("ts", Json(static_cast<double>(s.start_ns - origin) / 1e3));
        e.set("dur", Json(static_cast<double>(s.end_ns - s.start_ns) / 1e3));
        Json args = Json::object();
        args.set("id", Json(static_cast<double>(i)));
        args.set("parent", Json(static_cast<double>(s.parent)));
        e.set("args", std::move(args));
        events.push_back(std::move(e));
    }
    Json aggs = Json::object();
    for (const auto& [name, a] : aggs_) {
        Json o = Json::object();
        o.set("count", Json(static_cast<double>(a.count)));
        o.set("ns", Json(static_cast<double>(a.ns)));
        aggs.set(name, std::move(o));
    }
    Json root = Json::object();
    root.set("traceEvents", std::move(events));
    root.set("displayTimeUnit", Json(std::string("ms")));
    root.set("aggregates", std::move(aggs));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << root.dump() << "\n";
    return static_cast<bool>(out);
}

Bytes TimedApp::execute(BytesView op) {
    const std::uint64_t t0 = host_ns();
    Bytes r = inner_->execute(op);
    c_.exec_ns += host_ns() - t0;
    ++c_.exec;
    return r;
}

void TimedApp::undo_last() {
    ++c_.undo;
    inner_->undo_last();
}

Bytes TimedApp::snapshot() const {
    const std::uint64_t t0 = host_ns();
    Bytes s = inner_->snapshot();
    c_.snapshot_ns += host_ns() - t0;
    ++c_.snapshots;
    return s;
}

void TimedApp::restore(BytesView snap) {
    ++c_.restores;
    inner_->restore(snap);
}

}  // namespace neo::e2e
