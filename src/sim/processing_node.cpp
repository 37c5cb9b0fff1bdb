#include "sim/processing_node.hpp"

#include <cstdio>

#include "common/assert.hpp"
#include "obs/metrics.hpp"

namespace neo::sim {

void ProcessingNode::on_packet(NodeId from, const Packet& pkt) {
    BytesView data = pkt.view();
    ++rx_by_kind_[data.empty() ? 0 : data[0]];
    // Refcount bump only — the arrival queue shares the sender's buffer.
    queue_.push_back(QueuedItem{from, pkt, {}, 0, sim().now(), ""});
    maybe_schedule_drain();
}

void ProcessingNode::register_rx_metrics(obs::Registry& reg, const std::string& prefix,
                                         KindNameFn name_fn) {
    reg.add_collector([this, prefix, name_fn](obs::Registry& r) {
        for (std::size_t kind = 0; kind < rx_by_kind_.size(); ++kind) {
            if (rx_by_kind_[kind] == 0) continue;
            const char* name = name_fn ? name_fn(static_cast<std::uint8_t>(kind)) : nullptr;
            std::string key;
            if (name != nullptr) {
                key = prefix + ".rx." + name;
            } else {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "0x%02zx", kind);
                key = prefix + ".rx." + buf;
            }
            r.set_value(key, static_cast<double>(rx_by_kind_[kind]));
        }
    });
}

void ProcessingNode::maybe_schedule_drain() {
    if (drain_scheduled_ || queue_.empty()) return;
    drain_scheduled_ = true;
    Time start = std::max(sim().now(), busy_until_);
    // Owner-routed: the drain must execute on this node's partition.
    sim().at_node(start, id(), [this] { drain_one(); });
}

void ProcessingNode::drain_one() {
    NEO_ASSERT(!queue_.empty());
    QueuedItem item = std::move(queue_.front());
    queue_.pop_front();
    drain_scheduled_ = false;

    if (item.task) {
        if (live_timers_.erase(item.timer_id) == 1) {
            total_queue_wait_ += sim().now() - item.enqueued_at;
            run_task(cfg_.timer_overhead_ns, item.task, item.label);
        }
    } else {
        ++messages_handled_;
        total_queue_wait_ += sim().now() - item.enqueued_at;
        Time recv_cost = cfg_.recv_overhead_ns +
                         static_cast<Time>(cfg_.io_ns_per_byte *
                                           static_cast<double>(item.packet.size()));
        run_task(recv_cost, [&] { handle(item.from, item.packet.view()); }, "handle");
    }

    maybe_schedule_drain();
}

void ProcessingNode::run_task(Time fixed_cost, FunctionRef work, const char* label) {
    NEO_ASSERT_MSG(!in_task_, "nested task execution");
    in_task_ = true;
    out_.clear();
    extra_sync_ = 0;

    work();

    Time sync = fixed_cost + extra_sync_;
    Time async = 0;
    Time sync_crypto = 0;
    if (meter_ != nullptr) {
        sync_crypto = meter_->drain();
        sync += sync_crypto;
        async += meter_->drain_async(cfg_.crypto_parallelism);
    }
    for (const auto& send : out_) {
        sync += cfg_.send_overhead_ns +
                static_cast<Time>(cfg_.io_ns_per_byte * static_cast<double>(send.data.size()));
    }

    Time start = sim().now();
    busy_until_ = start + sync;
    total_busy_ += sync;

    if (obs::TraceSink* tr = sim().trace()) {
        tr->cpu_span(start, id(), label, sync);
        if (sync_crypto > 0) tr->crypto_cost(start, id(), "sync", sync_crypto);
        if (async > 0) tr->crypto_cost(start, id(), "async", async);
    }

    Time depart = busy_until_ + async;
    for (auto& send : out_) {
        net().send_at(depart, id(), send.to, std::move(send.data));
    }
    out_.clear();
    in_task_ = false;
}

void ProcessingNode::send_to(NodeId to, Packet data) {
    if (in_task_) {
        out_.push_back(PendingSend{to, std::move(data)});
    } else {
        // Outside a task (e.g. initialisation code): send immediately.
        net().send_at(sim().now(), id(), to, std::move(data));
    }
}

void ProcessingNode::broadcast(const std::vector<NodeId>& dests, const Packet& data) {
    for (NodeId d : dests) send_to(d, data);
}

ProcessingNode::TimerId ProcessingNode::set_timer(Time delay, std::function<void()> fn,
                                                  const char* label) {
    TimerId tid = next_timer_++;
    live_timers_.insert(tid);
    if (obs::TraceSink* tr = sim().trace()) tr->timer_arm(sim().now(), id(), tid, label, delay);
    auto fire = [this, tid, label, fn = std::move(fn)]() mutable {
        if (net().is_down(id()) || tid < min_valid_timer_) {
            live_timers_.erase(tid);
            return;
        }
        if (obs::TraceSink* tr = sim().trace()) {
            // Cancelled timers still pass through the queue (drain_one
            // suppresses them) so the simulator's event structure is
            // independent of cancellation; only the trace skips them.
            if (live_timers_.contains(tid)) tr->timer_fire(sim().now(), id(), tid, label);
        }
        // Timer work contends for the same CPU as message handling: enqueue
        // it behind whatever the node is currently processing.
        queue_.push_back(QueuedItem{kInvalidNode, {}, std::move(fn), tid, sim().now(), label});
        maybe_schedule_drain();
    };
    static_assert(EventFn::fits_inline<decltype(fire)>,
                  "timer-fire closure must fit EventFn's inline buffer");
    sim().at_node(sim().now() + delay, id(), std::move(fire));
    return tid;
}

void ProcessingNode::cancel_timer(TimerId id) {
    live_timers_.erase(id);
    if (obs::TraceSink* tr = sim().trace()) {
        tr->timer_cancel(sim().now(), this->id(), id);
    }
}

}  // namespace neo::sim
