#include "sim/network.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "obs/metrics.hpp"

namespace neo::sim {

void Network::add_node(Node& node, NodeId id) {
    NEO_ASSERT_MSG(id != kInvalidNode, "add_node() requires a real node id");
    NEO_ASSERT_MSG(id >= nodes_.size() || nodes_[id] == nullptr, "duplicate node id");
    NEO_ASSERT_MSG(node.net_ == nullptr, "node already attached");
    node.net_ = this;
    node.id_ = id;
    // Size every NodeId-indexed table here, from setup code, so nothing is
    // resized once workers run.
    if (id >= nodes_.size()) nodes_.resize(static_cast<std::size_t>(id) + 1, nullptr);
    nodes_[id] = &node;
    for (Shard& s : shards_) {
        if (id >= s.delivered_to.size()) s.delivered_to.resize(nodes_.size(), 0);
    }
    // Memoize the node's partition under the current placement policy
    // (setup-time only; the table is immutable once workers run).
    sim_.bind_node(id);
    if (id >= streams_.size()) grow_streams(id);
}

void Network::grow_streams(NodeId id) {
    for (std::size_t i = streams_.size(); i <= id; ++i) {
        streams_.emplace_back(seed_, static_cast<std::uint64_t>(i));
    }
}

void Network::refresh_lookahead() {
    Time min_latency = default_link_.latency;
    for (const auto& [k, cfg] : link_overrides_) min_latency = std::min(min_latency, cfg.latency);
    sim_.set_lookahead(min_latency);
}

void Network::set_link(NodeId from, NodeId to, const LinkConfig& cfg) {
    link_overrides_[key(from, to)] = cfg;
    refresh_lookahead();
}

const LinkConfig& Network::link(NodeId from, NodeId to) const {
    auto it = link_overrides_.find(key(from, to));
    return it != link_overrides_.end() ? it->second : default_link_;
}

void Network::set_node_down(NodeId id, bool down) {
    if (down) {
        down_.insert(id);
    } else {
        down_.erase(id);
    }
}

std::uint64_t Network::delivered_to(NodeId id) const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) {
        if (id < s.delivered_to.size()) total += s.delivered_to[id];
    }
    return total;
}

void Network::reset_counters() {
    for (auto& s : shards_) {
        s = Shard{};
        s.delivered_to.resize(nodes_.size(), 0);
    }
}

Time Network::total_cpu_busy() const {
    Time total = 0;
    for (const Node* node : nodes_) {
        if (node != nullptr) total += node->cpu_busy_time();
    }
    return total;
}

Time Network::total_queue_wait() const {
    Time total = 0;
    for (const Node* node : nodes_) {
        if (node != nullptr) total += node->cpu_queue_wait();
    }
    return total;
}

void Network::count_drop(obs::DropReason reason, Time t, NodeId from, NodeId to,
                         std::size_t bytes) {
    Shard& s = shard();
    ++s.packets_dropped;
    ++s.drops_by_reason[static_cast<std::size_t>(reason)];
    if (obs::TraceSink* tr = sim_.trace()) tr->packet_drop(t, from, to, bytes, reason);
}

void Network::register_metrics(obs::Registry& reg, const std::string& prefix) {
    reg.add_collector([this, prefix](obs::Registry& r) {
        r.set_value(prefix + ".packets_sent", static_cast<double>(packets_sent()));
        r.set_value(prefix + ".packets_delivered", static_cast<double>(packets_delivered()));
        r.set_value(prefix + ".packets_dropped", static_cast<double>(packets_dropped()));
        r.set_value(prefix + ".bytes_sent", static_cast<double>(bytes_sent()));
        r.set_value(prefix + ".transit_time_ns", static_cast<double>(transit_time()));
        for (std::size_t i = 0; i < static_cast<std::size_t>(obs::DropReason::kCount_); ++i) {
            std::uint64_t n = dropped_for(static_cast<obs::DropReason>(i));
            if (n == 0) continue;
            r.set_value(prefix + ".drops." +
                            obs::drop_reason_name(static_cast<obs::DropReason>(i)),
                        static_cast<double>(n));
        }
        if (std::uint64_t n = tamper_mutations(); n != 0) {
            r.set_value(prefix + ".tamper.mutations", static_cast<double>(n));
        }
        // Per-destination counts summed over shards, in id order; ids that
        // received nothing publish no key.
        for (NodeId node = 0; node < nodes_.size(); ++node) {
            if (std::uint64_t n = delivered_to(node); n != 0) {
                r.set_value(prefix + ".delivered_to." + std::to_string(node),
                            static_cast<double>(n));
            }
        }
    });
}

void Network::send_at(Time depart, NodeId from, NodeId to, Packet data) {
    NEO_ASSERT(depart >= sim_.now());
    {
        Shard& s = shard();
        ++s.packets_sent;
        s.bytes_sent += data.size();
    }

    if (is_down(from)) {
        count_drop(obs::DropReason::kSenderDown, depart, from, to, data.size());
        return;
    }
    if (is_blocked(from, to)) {
        count_drop(obs::DropReason::kPartitioned, depart, from, to, data.size());
        return;
    }

    // All randomness below comes from the sender's private counter-based
    // stream, in a fixed per-packet draw order (drop gate, then jitter):
    // the values depend only on this sender's send history, not on global
    // event interleaving or thread count.
    StreamRng& rng = stream(from);

    const LinkConfig& cfg = link(from, to);
    double effective_drop = cfg.drop_rate + global_drop_rate_;
    if (effective_drop > 0.0 && rng.chance(effective_drop)) {
        count_drop(obs::DropReason::kLinkLoss, depart, from, to, data.size());
        return;
    }

    if (tamper_) {
        // Copy-on-write: the tamper hook mutates a private copy so the
        // other receivers of a shared multicast buffer are unaffected.
        Bytes mutated(data.view().begin(), data.view().end());
        if (tamper_(from, to, mutated) == TamperAction::kDrop) {
            count_drop(obs::DropReason::kTampered, depart, from, to, mutated.size());
            return;
        }
        // Attribute actual mutations (the clone may come back unchanged —
        // most hooks target one link): counter + structured trace event,
        // identical on the serial and PDES paths. Untouched clones keep the
        // original shared buffer.
        bool changed = mutated.size() != data.size() ||
                       !std::equal(mutated.begin(), mutated.end(), data.view().begin());
        if (changed) {
            ++shard().tamper_mutations;
            if (obs::TraceSink* tr = sim_.trace()) {
                tr->tamper_mutate(depart, from, to, mutated.size());
            }
            data = Packet(std::move(mutated));
        }
    }

    if (obs::TraceSink* tr = sim_.trace()) tr->packet_send(depart, from, to, data.size());

    Time latency = cfg.latency;
    if (cfg.jitter > 0) latency += static_cast<Time>(rng.uniform(static_cast<std::uint64_t>(cfg.jitter)));
    latency += static_cast<Time>(cfg.ns_per_byte * static_cast<double>(data.size()));

    auto deliver = [this, from, to, latency, data = std::move(data)]() {
        Node* node = to < nodes_.size() ? nodes_[to] : nullptr;
        if (node == nullptr) {
            count_drop(obs::DropReason::kNoRoute, sim_.now(), from, to, data.size());
            return;
        }
        if (is_down(to)) {
            count_drop(obs::DropReason::kReceiverDown, sim_.now(), from, to, data.size());
            return;
        }
        Shard& s = shard();
        ++s.packets_delivered;
        ++s.delivered_to[to];
        s.transit_time += latency;
        if (obs::TraceSink* tr = sim_.trace()) {
            tr->packet_deliver(sim_.now(), from, to, data.size());
        }
        node->on_packet(from, data);
    };
    // The whole point of the EventFn small-buffer store: a delivery event
    // must never allocate. If this closure grows past the inline capacity,
    // shrink it (or grow EventFn::kInlineSize) rather than silently
    // spilling to the heap.
    static_assert(EventFn::fits_inline<decltype(deliver)>,
                  "packet-delivery closure must fit EventFn's inline buffer");
    // Executes on the receiver's partition; latency >= cfg.latency >= the
    // simulator lookahead, so the conservative contract holds for every
    // cross-partition delivery.
    sim_.at_node(depart + latency, to, std::move(deliver));
}

}  // namespace neo::sim
