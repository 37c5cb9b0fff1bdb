// Host-time tracing for the traced pass, recorded from outside the program:
// coarse spans around each call the benchmark makes into a layer, and
// count/time aggregates for the hot boundaries (op generation, invoke,
// completion callbacks, app execute). Everything stays in memory until the
// pass writes it out. Main thread only; hot boundaries aggregate per
// session or per replica and are added here after the run.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/state_machine.hpp"

namespace neo::e2e {

class HostTrace {
  public:
    /// Opens a span under the innermost open one.
    class Scope {
      public:
        Scope(HostTrace& t, std::string name);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;
        /// Host milliseconds since the span opened.
        double elapsed_ms() const;

      private:
        HostTrace& t_;
        int index_;
    };

    void add(const std::string& name, std::uint64_t count, std::uint64_t ns);

    /// Chrome trace_event JSON: one complete event per span, aggregates as
    /// the metadata object "aggregates".
    bool write_chrome(const std::string& path) const;

  private:
    struct Span {
        std::string name;
        std::uint64_t start_ns = 0;
        std::uint64_t end_ns = 0;
        int parent = -1;  // index of the enclosing span, -1 = root
    };
    struct Agg {
        std::uint64_t count = 0;
        std::uint64_t ns = 0;
    };

    std::vector<Span> spans_;
    std::vector<int> open_;
    std::map<std::string, Agg> aggs_;
};

/// Replica application decorator that counts and times every call into the
/// app layer. Forwards everything, including the virtual execute cost, so
/// simulated results are unchanged.
class TimedApp : public app::StateMachine {
  public:
    struct Counters {
        std::uint64_t exec = 0, exec_ns = 0, undo = 0;
        std::uint64_t snapshots = 0, snapshot_ns = 0, restores = 0;
    };

    TimedApp(std::unique_ptr<app::StateMachine> inner, Counters& c)
        : inner_(std::move(inner)), c_(c) {}

    void set_txn_observer(TxnObserver obs) override { inner_->set_txn_observer(std::move(obs)); }
    Bytes execute(BytesView op) override;
    void undo_last() override;
    void commit_prefix(std::uint64_t n) override { inner_->commit_prefix(n); }
    std::int64_t execute_cost_ns(BytesView op) const override {
        return inner_->execute_cost_ns(op);
    }
    Bytes snapshot() const override;
    void restore(BytesView snap) override;

  private:
    std::unique_ptr<app::StateMachine> inner_;
    Counters& c_;
};

}  // namespace neo::e2e
