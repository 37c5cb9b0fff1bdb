// aom configuration service (§4.1, §4.2).
//
// Owns group membership and sequencer assignment. On receiving f+1
// distinct failover requests for the next epoch it installs the group on
// the next switch in the pool (after a reconfiguration delay modelling the
// network-level routing updates the paper measured at the bulk of the
// ~100 ms failover, §6.4) and announces the new epoch to all receivers.
//
// Per §5.1 the service itself follows the standard trusted-infrastructure
// assumption: it is modelled as a correct, always-available node.
#pragma once

#include <map>
#include <set>
#include <vector>

#include "aom/keys.hpp"
#include "aom/sender.hpp"
#include "aom/sequencer.hpp"
#include "aom/types.hpp"
#include "sim/processing_node.hpp"

namespace neo::aom {

class ConfigService : public sim::ProcessingNode, public SequencerDirectory {
  public:
    explicit ConfigService(std::vector<SequencerSwitch*> switch_pool,
                           sim::Time reconfig_delay = 50 * sim::kMillisecond)
        : pool_(std::move(switch_pool)), reconfig_delay_(reconfig_delay) {}

    /// Registers a group and installs it on pool switch `initial_switch`
    /// at epoch 1. Sharded deployments spread their N groups across the
    /// pool (one sequencer per shard); the pool is still shared, so a
    /// failover moves a group to the next switch round-robin.
    void register_group(const GroupConfig& group, std::size_t initial_switch = 0);

    // SequencerDirectory.
    NodeId current_sequencer(GroupId group) const override;
    EpochNum current_epoch(GroupId group) const override;

    const GroupConfig& group_config(GroupId group) const;

    /// Test/bench hook: forces an immediate failover without waiting for
    /// receiver quorum (e.g. operator-driven maintenance).
    void force_failover(GroupId group);

    std::uint64_t failovers_performed() const { return failovers_performed_; }

  protected:
    void handle(NodeId from, BytesView data) override;

  private:
    struct GroupState {
        GroupConfig cfg;
        EpochNum epoch = 0;
        std::size_t switch_index = 0;
        bool reconfig_in_progress = false;
        /// next_epoch -> distinct requesting receivers.
        std::map<EpochNum, std::set<NodeId>> failover_requests;
    };

    void start_reconfig(GroupState& gs, EpochNum next_epoch);

    std::vector<SequencerSwitch*> pool_;
    sim::Time reconfig_delay_;
    std::map<GroupId, GroupState> groups_;
    std::uint64_t failovers_performed_ = 0;
};

}  // namespace neo::aom
