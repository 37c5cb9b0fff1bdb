// Replica log with O(1) hash chaining (§5.3) and the replica/group
// configuration shared by the protocol's components.
#pragma once

#include <optional>
#include <variant>
#include <vector>

#include "aom/cert.hpp"
#include "common/types.hpp"
#include "neobft/messages.hpp"
#include "sim/time.hpp"

namespace neo::neobft {

/// Static protocol configuration for one replication group.
struct Config {
    std::vector<NodeId> replicas;
    int f = 1;
    GroupId group = 1;
    NodeId config_service = kInvalidNode;

    // Timeouts.
    sim::Time query_retry = 1 * sim::kMillisecond;
    sim::Time view_change_timeout = 20 * sim::kMillisecond;
    sim::Time view_change_rebroadcast = 10 * sim::kMillisecond;
    sim::Time request_aom_timeout = 20 * sim::kMillisecond;

    /// State-sync period in log entries (§B.2's configurable N).
    std::uint64_t sync_interval = 128;

    /// Checkpoint period in log entries; 0 disables checkpointing (the
    /// protocol-level benchmarks run without it so the perf baselines are
    /// undisturbed). When enabled it must be a multiple of sync_interval:
    /// a checkpoint becomes stable when a sync certificate covering its
    /// slot binds the application-state Merkle root, after which the log
    /// prefix is garbage-collected and lagging replicas fetch the snapshot
    /// via Merkle-verified chunks instead of replaying from slot 1.
    std::uint64_t checkpoint_interval = 0;

    int n() const { return static_cast<int>(replicas.size()); }
    std::size_t quorum() const { return static_cast<std::size_t>(2 * f + 1); }

    bool is_replica(NodeId node) const {
        for (NodeId r : replicas) {
            if (r == node) return true;
        }
        return false;
    }

    NodeId leader_of(const ViewId& v) const {
        return replicas[static_cast<std::size_t>(v.leader % static_cast<LeaderNum>(replicas.size()))];
    }

    std::vector<NodeId> others(NodeId self) const {
        std::vector<NodeId> out;
        for (NodeId r : replicas) {
            if (r != self) out.push_back(r);
        }
        return out;
    }
};

/// One log position: a client request backed by an ordering certificate, or
/// a committed no-op backed by a gap certificate. The log grows without bound
/// when checkpointing is off, so an entry holds only one of the two
/// certificates and no execution result (replies are sent right after
/// execution and cached per client, not per slot).
struct LogEntry {
    std::variant<aom::OrderingCert, GapCertificate> cert;
    Digest32 cum_hash{};  // hash chain up to and including this slot

    // Execution bookkeeping (not part of the durable entry).
    bool executed = false;
    bool applied = false;        // app_->execute() actually ran (vs no-op/dup/invalid)
    bool valid_request = false;  // request parsed + client signature ok
    NodeId client = 0;
    std::uint64_t request_id = 0;

    bool noop() const { return std::holds_alternative<GapCertificate>(cert); }
    /// The entry's certificate; the wrong kind for this entry throws.
    const aom::OrderingCert& oc() const { return std::get<aom::OrderingCert>(cert); }
    const GapCertificate& gap_cert() const { return std::get<GapCertificate>(cert); }
};

/// 1-indexed append-only log (slot 0 is the empty prefix). Checkpointing
/// garbage-collects a stable prefix: slots (0, base] are gone, only the
/// cumulative hash at `base` survives, and slot numbers stay absolute.
class Log {
  public:
    std::uint64_t size() const { return base_ + entries_.size(); }
    /// First retained slot minus one; 0 until gc_prefix/reset_base.
    std::uint64_t base() const { return base_; }
    bool has(std::uint64_t slot) const { return slot > base_ && slot <= size(); }

    const LogEntry& at(std::uint64_t slot) const;
    LogEntry& at(std::uint64_t slot);

    /// Appends at slot size()+1 and extends the hash chain.
    void append(LogEntry entry);

    /// Replaces `slot` and recomputes the hash chain from there on.
    void replace(std::uint64_t slot, LogEntry entry);

    /// Hash of the chain up to `slot` (slot 0 -> zero digest). Valid for
    /// retained slots and for the GC base itself.
    Digest32 hash_at(std::uint64_t slot) const;

    /// Truncates everything after `slot` (view-change merges). `slot` must
    /// not be below the GC base — a stable checkpoint is never rolled back.
    void truncate_to(std::uint64_t slot);

    /// Drops entries up to and including `slot` (stable-checkpoint GC);
    /// records the cumulative hash at `slot` as the new chain anchor.
    void gc_prefix(std::uint64_t slot);

    /// Discards everything and restarts the chain at `slot` with the given
    /// cumulative hash (installing a fetched checkpoint).
    void reset_base(std::uint64_t slot, const Digest32& hash);

    WireLogEntry wire_entry(std::uint64_t slot) const;

  private:
    void rechain_from(std::uint64_t slot);
    static Digest32 entry_digest(const LogEntry& e, std::uint64_t slot);

    std::uint64_t base_ = 0;
    Digest32 base_hash_{};  // cumulative hash at base_ (zero when base_ == 0)
    std::vector<LogEntry> entries_;
};

// ---- Quorum-certificate validation (shared by replica + tests) ----

bool verify_gap_certificate(const GapCertificate& cert, const Config& cfg,
                            crypto::NodeCrypto& crypto);
bool verify_epoch_certificate(const EpochCertificate& cert, const Config& cfg,
                              crypto::NodeCrypto& crypto);
bool verify_sync_certificate(const SyncCertificate& cert, const Config& cfg,
                             crypto::NodeCrypto& crypto);

}  // namespace neo::neobft
