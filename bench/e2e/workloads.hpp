// The benchmark's four workloads and the systems they run on.
//
// Every workload uses groups of 4 replicas (f = 1) and takes its inputs from
// the seed only. Why each one exists: workloads.cpp and README.md.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/state_machine.hpp"
#include "crypto/identity.hpp"
#include "harness/harness.hpp"
#include "open_loop.hpp"

namespace neo::e2e {

enum class Kind { kEchoHm, kEchoPkReal, kYcsbTxn, kFailover };

/// Latency objective: at least `pct` percent of the requests due in a
/// window succeed within `limit` (failed requests miss it).
struct Slo {
    double pct = 99;
    sim::Time limit = 500 * sim::kMicrosecond;
};

struct WorkloadDef {
    std::string name;
    Kind kind = Kind::kEchoHm;
    int sessions = 256;
    double ref_rate = 0;        // offered requests per second, reference run
    sim::Time ref_window = 0;   // measured window of the reference run
    sim::Time quick_window = 0; // --quick (tests only)
    /// Nonzero: the simulated end-to-end metrics come from a modeled-crypto
    /// run of this window, not from the short real-crypto reference run
    /// (simulated results do not depend on the crypto mode; the untraced
    /// pass checks that on the reference window).
    sim::Time stats_window = 0;
    Slo slo;
    double search_lo = 0;       // goodput search range, requests per second
    double search_hi = 0;
    sim::Time probe_window = 100 * sim::kMillisecond;
};

const std::vector<WorkloadDef>& workloads();
/// nullptr when no workload has that name.
const WorkloadDef* find_workload(const std::string& name);

/// Partitions of the engine's automatic choice: one per CPU this process
/// may run on (what `nproc` prints).
unsigned auto_sim_threads();

/// Builds each NeoBFT replica's application from the workload's own maker,
/// usually decorating it; empty = the plain app.
using AppMaker = std::function<std::unique_ptr<app::StateMachine>()>;
using AppWrap = std::function<std::unique_ptr<app::StateMachine>(const AppMaker& make)>;

struct BuildOptions {
    std::uint64_t seed = 42;
    /// Simulator partitions; nullopt = the workload's own choice (serial,
    /// or the automatic choice for ycsb-txn).
    std::optional<unsigned> sim_threads;
    /// Crypto mode; nullopt = the workload's own (real for echo-pk-real).
    std::optional<crypto::CryptoMode> crypto;
    AppWrap wrap_app;
    /// Schedule the workload's faults (failover). Off for goodput probes,
    /// which measure the fault-free deployment.
    bool faults = true;
};

/// A deployment ready to be driven, with its inputs and reply check.
struct System {
    std::unique_ptr<bench::Deployment> d;
    OpSource ops;
    ReplyCheck check;
    /// Keeps the scenario engine's adapter alive for the run (failover).
    std::unique_ptr<bench::ScenarioAdapter> adapter;
};

System build_system(const WorkloadDef& w, const BuildOptions& o);

/// The single-node reference: an unreplicated server with echo-hm's
/// sessions and ops.
System build_unreplicated(const WorkloadDef& w, std::uint64_t seed);

/// Virtual times of the failover workload's fault schedule.
constexpr sim::Time kSequencerFailAt = 200 * sim::kMillisecond;
constexpr sim::Time kReplicaCrashAt = 350 * sim::kMillisecond;
constexpr sim::Time kReplicaRecoverAt = 400 * sim::kMillisecond;
/// The replica the failover workload crashes and recovers.
constexpr NodeId kCrashedReplica = 2;

}  // namespace neo::e2e
