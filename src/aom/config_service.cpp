#include "aom/config_service.hpp"

#include "common/assert.hpp"
#include "common/logging.hpp"

namespace neo::aom {

void ConfigService::register_group(const GroupConfig& group, std::size_t initial_switch) {
    NEO_ASSERT_MSG(!pool_.empty(), "config service needs at least one switch");
    NEO_ASSERT_MSG(!groups_.contains(group.group), "group already registered");
    NEO_ASSERT_MSG(initial_switch < pool_.size(), "initial switch outside the pool");
    GroupState gs;
    gs.cfg = group;
    gs.epoch = 1;
    gs.switch_index = initial_switch;
    pool_[initial_switch]->install_group(group, gs.epoch);
    groups_[group.group] = std::move(gs);
}

NodeId ConfigService::current_sequencer(GroupId group) const {
    auto it = groups_.find(group);
    if (it == groups_.end()) return kInvalidNode;
    return pool_[it->second.switch_index]->id();
}

EpochNum ConfigService::current_epoch(GroupId group) const {
    auto it = groups_.find(group);
    return it != groups_.end() ? it->second.epoch : 0;
}

const GroupConfig& ConfigService::group_config(GroupId group) const {
    auto it = groups_.find(group);
    NEO_ASSERT_MSG(it != groups_.end(), "unknown group");
    return it->second.cfg;
}

void ConfigService::handle(NodeId from, BytesView data) {
    auto kind = peek_kind(data);
    if (!kind || *kind != static_cast<std::uint8_t>(Wire::kFailoverReq)) return;

    FailoverRequest req;
    try {
        Reader r(data.subspan(1));
        req = FailoverRequest::parse(r);
    } catch (const CodecError&) {
        return;
    }
    if (req.sender != from) return;  // spoofed sender field

    auto it = groups_.find(req.group);
    if (it == groups_.end()) return;
    GroupState& gs = it->second;
    if (req.next_epoch <= gs.epoch) return;  // stale
    if (gs.cfg.receiver_index(from) < 0) return;  // only group members may ask

    gs.failover_requests[req.next_epoch].insert(from);

    // f+1 distinct receivers guarantee at least one correct replica wants
    // the failover; Byzantine receivers alone cannot trigger churn.
    std::size_t threshold = static_cast<std::size_t>(gs.cfg.f + 1);
    if (!gs.reconfig_in_progress &&
        gs.failover_requests[req.next_epoch].size() >= threshold) {
        start_reconfig(gs, req.next_epoch);
    }
}

void ConfigService::force_failover(GroupId group) {
    auto it = groups_.find(group);
    NEO_ASSERT_MSG(it != groups_.end(), "unknown group");
    if (!it->second.reconfig_in_progress) {
        start_reconfig(it->second, it->second.epoch + 1);
    }
}

void ConfigService::start_reconfig(GroupState& gs, EpochNum next_epoch) {
    gs.reconfig_in_progress = true;
    GroupId group = gs.cfg.group;

    // The commit mutates cross-node shared state — switch group tables and
    // the directory entries clients read on every send — so it must run as
    // a GLOBAL event (between parallel windows, workers parked), not a
    // node-local timer. reconfig_delay_ (ms) dwarfs the lookahead (µs), so
    // the node-scheduled-global contract holds.
    sim().at_global(sim().now() + reconfig_delay_, [this, group, next_epoch] {
        auto it = groups_.find(group);
        if (it == groups_.end()) return;
        GroupState& gs2 = it->second;

        pool_[gs2.switch_index]->remove_group(group);
        gs2.switch_index = (gs2.switch_index + 1) % pool_.size();
        gs2.epoch = next_epoch;
        pool_[gs2.switch_index]->install_group(gs2.cfg, gs2.epoch);
        gs2.reconfig_in_progress = false;
        gs2.failover_requests.erase(gs2.failover_requests.begin(),
                                    gs2.failover_requests.upper_bound(next_epoch));
        ++failovers_performed_;

        NewEpochAnnouncement ann;
        ann.group = group;
        ann.epoch = next_epoch;
        ann.sequencer = pool_[gs2.switch_index]->id();
        sim::Packet wire(ann.serialize());
        for (NodeId r : gs2.cfg.receivers) send_to(r, wire);

        NEO_INFO("config-service: group " << group << " failed over to switch "
                                          << ann.sequencer << " epoch " << next_epoch);
    });
    NEO_INFO("config-service: reconfiguring group " << gs.cfg.group << " for epoch "
                                                    << next_epoch);
}

}  // namespace neo::aom
