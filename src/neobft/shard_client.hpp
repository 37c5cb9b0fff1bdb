// Cross-shard transaction coordinator for multi-group deployments.
//
// A ShardClient fronts one logical client over N sharded NeoBFT groups. It
// owns one child `Client` per shard (each a real network node with its own
// aom sender / retry machinery) and drives client-side two-phase commit:
// every phase is an ordered state-machine operation on the participant
// shard, so the auditor's safety invariants extend across shards.
//
//   - Transactions whose keys all route to one shard take the fast path: a
//     single kTxnLocal op, atomic within that shard's log.
//   - Cross-shard transactions run PREPARE on every participant (locks +
//     staged writes, §2PC phase 1), then COMMIT iff every shard voted
//     PREPARED, else ABORT. The coordinator is the client; the decision is
//     durable because each phase is itself replicated via NeoBFT.
//
// Deadlock/livelock freedom: prepares are issued SEQUENTIALLY in ascending
// shard-index order (a canonical order derived from the key hash tiling),
// so two transactions can only collide on their common first shard instead
// of locking disjoint prefixes and aborting each other forever. On a
// kTxnWait vote (wait-die: this txn is older than the lock holder) the
// coordinator retries the same shard with the same txn_id after a fixed
// backoff — seniority is preserved, so the oldest transaction always
// eventually runs. abandon() models a coordinator crash between prepare
// and decision; participants then rely on the state machine's
// presumed-abort timeout to release the orphaned locks.
//
// Concurrency contract: all child clients of one ShardClient MUST be placed
// on the same simulator partition (the deployment's placement policy does
// this) — phase callbacks fire inside child-node events and mutate the
// shared coordinator state without locks.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "apps/kvstore.hpp"
#include "neobft/client.hpp"
#include "neobft/shard_router.hpp"

namespace neo::neobft {

class ShardClient {
  public:
    using Callback = std::function<void(Bytes result)>;

    struct Stats {
        std::uint64_t txns_started = 0;
        std::uint64_t committed_txns = 0;
        std::uint64_t aborted_txns = 0;
        /// Single-key ops inside committed transactions (the aggregate
        /// committed-throughput numerator for fig_shard_scaling).
        std::uint64_t committed_ops = 0;
        std::uint64_t cross_shard_txns = 0;
        std::uint64_t wait_retries = 0;    // kTxnWait votes that were retried
        std::uint64_t abandoned_txns = 0;  // dropped by abandon() mid-flight
    };

    /// `children[s]` serves shard s (router order); `coordinator_tag` must
    /// be unique per ShardClient — it is the high half of every txn id.
    ShardClient(const ShardRouter* router, std::vector<Client*> children,
                std::uint32_t coordinator_tag);

    /// Issues one multi-key transaction (a serialized kTxnLocal KvTxnOp;
    /// the router decides which shards actually participate). `cb` fires
    /// with a KvResult: kOk = committed, kTxnAborted = aborted. One
    /// outstanding transaction at a time (closed loop).
    void invoke(Bytes txn_op, Callback cb);

    /// Drops the in-flight transaction without firing its callback or
    /// sending a decision — a coordinator crash between prepare and
    /// decision. Child clients abandon their outstanding ops; any locks
    /// already taken on participants are released by the state machine's
    /// presumed-abort timeout.
    void abandon();

    bool busy() const { return pending_.has_value(); }
    const Stats& stats() const { return stats_; }
    std::size_t n_shards() const { return children_.size(); }
    Client& child(std::size_t s) { return *children_[s]; }

  private:
    struct Pending {
        std::uint64_t txn_id = 0;
        std::vector<std::size_t> participants;          // dense shard indices
        std::vector<Bytes> prepare_wires;               // per participant
        std::size_t next_prepare = 0;  // phase-1 cursor (canonical order)
        std::size_t waiting = 0;       // phase-2 decisions outstanding
        bool any_abort = false;
        int wait_retries_left = 0;
        sim::ProcessingNode::TimerId backoff_timer = 0;  // pending wait-die retry
        Client* backoff_child = nullptr;
        std::size_t n_ops = 0;
        Callback cb;
    };

    void send_next_prepare();
    void on_prepare_vote(app::KvStatus vote);
    void start_phase2();
    void on_phase2_done();
    void finish(bool committed);

    const ShardRouter* router_;
    std::vector<Client*> children_;
    std::uint64_t coordinator_tag_;
    std::uint64_t next_txn_ = 1;
    std::optional<Pending> pending_;
    Stats stats_;
};

}  // namespace neo::neobft
