// Key -> replica-group routing for sharded deployments.
//
// A sharded deployment runs N independent NeoBFT replica groups, each
// sequenced by its own aom group, and partitions the application keyspace
// across them: a key belongs to the group whose [key_lo, key_hi] range
// (see aom::GroupConfig) contains the key's 64-bit hash. The router is the
// client-side view of that table — a sorted, disjoint, gap-free cover of
// the full 2^64 hash space, so every key routes to exactly one group (no
// orphan keys) and routing is a pure function of the key bytes (stable
// across clients, runs and thread counts).
#pragma once

#include <cstdint>
#include <vector>

#include "aom/types.hpp"
#include "common/bytes.hpp"

namespace neo::neobft {

class ShardRouter {
  public:
    /// 64-bit FNV-1a over the key bytes. The hash — not the raw key —
    /// is what group ranges partition, so arbitrary-length keys spread
    /// uniformly over the shards.
    static std::uint64_t key_hash(BytesView key);

    /// Splits the hash space evenly into `groups.size()` contiguous ranges,
    /// one per group, in the given order. Range i is
    /// [floor(i * 2^64 / N), floor((i+1) * 2^64 / N) - 1].
    static std::vector<aom::GroupConfig> assign_ranges(std::vector<aom::GroupConfig> groups);

    ShardRouter() = default;
    /// Builds the routing table from the groups' key ranges; asserts the
    /// ranges are disjoint and cover the full hash space.
    explicit ShardRouter(const std::vector<aom::GroupConfig>& groups);

    std::size_t shards() const { return ranges_.size(); }
    bool empty() const { return ranges_.empty(); }

    /// The group owning `key`, and its dense index in [0, shards()).
    GroupId route(BytesView key) const { return ranges_[index_of_hash(key_hash(key))].group; }
    std::size_t shard_index(BytesView key) const { return index_of_hash(key_hash(key)); }
    std::size_t index_of_hash(std::uint64_t h) const;

  private:
    struct Range {
        std::uint64_t lo = 0;
        std::uint64_t hi = 0;
        GroupId group = 0;
    };
    std::vector<Range> ranges_;  // sorted by lo; disjoint; covers [0, 2^64)
};

}  // namespace neo::neobft
