#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace neo::sim {
namespace {

TEST(Simulator, StartsAtZero) {
    Simulator s;
    EXPECT_EQ(s.now(), 0);
    EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulator, EventsFireInTimeOrder) {
    Simulator s;
    std::vector<int> order;
    s.at(30, [&] { order.push_back(3); });
    s.at(10, [&] { order.push_back(1); });
    s.at(20, [&] { order.push_back(2); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(s.now(), 30);
}

TEST(Simulator, SameTimestampFifoOrder) {
    Simulator s;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) s.at(5, [&order, i] { order.push_back(i); });
    s.run();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, AfterSchedulesRelative) {
    Simulator s;
    Time fired = -1;
    s.at(100, [&] { s.after(50, [&] { fired = s.now(); }); });
    s.run();
    EXPECT_EQ(fired, 150);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
    Simulator s;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 5) s.after(10, chain);
    };
    s.after(10, chain);
    s.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(s.now(), 50);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
    Simulator s;
    int fired = 0;
    s.at(10, [&] { ++fired; });
    s.at(20, [&] { ++fired; });
    s.at(30, [&] { ++fired; });
    s.run_until(20);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(s.now(), 20);
    EXPECT_EQ(s.pending_events(), 1u);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
    Simulator s;
    s.run_until(1000);
    EXPECT_EQ(s.now(), 1000);
}

TEST(Simulator, EventAtBoundaryIncluded) {
    Simulator s;
    bool fired = false;
    s.at(100, [&] { fired = true; });
    s.run_until(100);
    EXPECT_TRUE(fired);
}

TEST(Simulator, StopHaltsRun) {
    Simulator s;
    int fired = 0;
    s.at(1, [&] {
        ++fired;
        s.stop();
    });
    s.at(2, [&] { ++fired; });
    s.run();
    EXPECT_EQ(fired, 1);
    // A subsequent run resumes.
    s.run();
    EXPECT_EQ(fired, 2);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
    Simulator s;
    EXPECT_FALSE(s.step());
    s.at(0, [] {});
    EXPECT_TRUE(s.step());
    EXPECT_FALSE(s.step());
}

TEST(Simulator, ExecutedEventsCounter) {
    Simulator s;
    for (int i = 0; i < 7; ++i) s.at(i, [] {});
    s.run();
    EXPECT_EQ(s.executed_events(), 7u);
}

// ---------------------------------------------------------------------------
// Event queue: order, ownership and moves per closure.

/// Random node events scheduled from setup code and from inside node
/// events, with the key the simulator must give each one modelled
/// independently: (t, scheduling lane, per-lane counter), where setup code
/// schedules on kGlobalLane and a node event on its own node's lane.
struct QueueModel {
    using Key = std::tuple<Time, std::uint64_t, std::uint64_t>;

    explicit QueueModel(unsigned partitions) : sim(std::make_unique<Simulator>(partitions)) {}

    void schedule(std::uint64_t lane);

    Rng rng{2024};
    std::map<std::uint64_t, std::uint64_t> lane_next;
    std::vector<Key> keys;       // by event id
    std::vector<int> destroyed;  // by event id: live closure destructions
    std::vector<std::size_t> executed;
    std::unique_ptr<Simulator> sim;  // last: pending closures die first
};

/// Counts the destruction of the one live copy of a closure; moved-from
/// copies count nothing.
struct DestroyOnce {
    QueueModel* m;
    std::size_t id;
    DestroyOnce(QueueModel* model, std::size_t event) : m(model), id(event) {}
    DestroyOnce(DestroyOnce&& o) noexcept : m(std::exchange(o.m, nullptr)), id(o.id) {}
    DestroyOnce& operator=(DestroyOnce&&) = delete;
    ~DestroyOnce() {
        if (m != nullptr) ++m->destroyed[id];
    }
};

/// A node event: records its id, then schedules up to two children.
/// `Pad` bytes make the closure inline (0) or boxed (over 64 B).
template <std::size_t Pad>
struct ModelEvent {
    DestroyOnce tag;
    NodeId owner;
    std::array<std::uint8_t, Pad> pad{};

    void operator()() {
        QueueModel& m = *tag.m;
        m.executed.push_back(tag.id);
        const std::uint64_t r = m.rng.uniform(4);
        const std::uint64_t children = r < 2 ? 0 : r - 1;  // 0.75 on average
        for (std::uint64_t k = 0; k < children; ++k) m.schedule(owner);
    }
};
static_assert(EventFn::fits_inline<ModelEvent<0>>);
static_assert(!EventFn::fits_inline<ModelEvent<96>>);

void QueueModel::schedule(std::uint64_t lane) {
    const std::size_t id = keys.size();
    // A node event schedules at least 1 ns ahead: its own lane may sort
    // below the running event's, and a same-time key below the running one
    // would run after it by definition, out of key order.
    const Time min_delay = lane == Simulator::kGlobalLane ? 0 : 1;
    const Time t = sim->now() + min_delay + static_cast<Time>(rng.uniform(64 - min_delay));
    const auto owner = static_cast<NodeId>(rng.uniform(8));
    keys.emplace_back(t, lane, lane_next[lane]++);
    destroyed.push_back(0);
    if (rng.uniform(4) == 0) {
        sim->at_node(t, owner, ModelEvent<96>{DestroyOnce(this, id), owner});
    } else {
        sim->at_node(t, owner, ModelEvent<0>{DestroyOnce(this, id), owner});
    }
}

TEST(SimulatorQueue, RandomScheduleAndStepRunInKeyOrder) {
    for (unsigned partitions : {1u, 3u}) {
        SCOPED_TRACE(partitions);
        QueueModel m(partitions);
        for (int call = 0; call < 20'000; ++call) {
            if (m.rng.uniform(2) == 0) {
                m.schedule(Simulator::kGlobalLane);
            } else {
                m.sim->step();
            }
        }
        m.sim->run();
        ASSERT_EQ(m.executed.size(), m.keys.size());
        std::vector<std::size_t> by_key(m.keys.size());
        for (std::size_t i = 0; i < by_key.size(); ++i) by_key[i] = i;
        std::sort(by_key.begin(), by_key.end(),
                  [&](std::size_t a, std::size_t b) { return m.keys[a] < m.keys[b]; });
        EXPECT_EQ(m.executed, by_key);
        for (std::size_t i = 0; i < m.destroyed.size(); ++i) {
            ASSERT_EQ(m.destroyed[i], 1) << "event " << i;
        }
    }
}

TEST(SimulatorQueue, PendingClosuresAreDestroyedOnceWithTheSimulator) {
    QueueModel m(1);
    for (int i = 0; i < 2'000; ++i) m.schedule(Simulator::kGlobalLane);
    for (int i = 0; i < 1'000; ++i) m.sim->step();
    const std::size_t scheduled = m.keys.size();
    ASSERT_GT(m.sim->pending_events(), 0u);
    m.sim.reset();
    EXPECT_EQ(m.keys.size(), scheduled);  // destruction runs no closure
    EXPECT_EQ(m.executed.size(), 1'000u);
    for (std::size_t i = 0; i < m.destroyed.size(); ++i) {
        ASSERT_EQ(m.destroyed[i], 1) << "event " << i;
    }
}

/// Moves of one closure between at() and its call, with `pending` other
/// events in the queue. A warm-up first grows the queue to that depth, so
/// no vector growth relocates the closure.
int moves_until_call(std::size_t pending) {
    struct MoveCounter {
        int* moves;
        int* at_call;
        MoveCounter(int* m, int* c) : moves(m), at_call(c) {}
        MoveCounter(MoveCounter&& o) noexcept : moves(o.moves), at_call(o.at_call) { ++*moves; }
        void operator()() const { *at_call = *moves; }
    };
    Simulator s;
    for (std::size_t i = 0; i <= pending; ++i) s.at(1, [] {});
    s.run();
    for (std::size_t i = 0; i < pending; ++i) s.at(100 + static_cast<Time>(i % 97), [] {});
    int moves = 0;
    int at_call = -1;
    s.at(50, MoveCounter(&moves, &at_call));
    EXPECT_TRUE(s.step());
    EXPECT_EQ(s.pending_events(), pending);
    return at_call;
}

TEST(SimulatorQueue, ClosureMovesDoNotGrowWithQueueDepth) {
    const int shallow = moves_until_call(10);
    const int deep = moves_until_call(10'000);
    EXPECT_EQ(shallow, deep);
    EXPECT_GE(shallow, 1);
    EXPECT_LE(shallow, 6);
}

TEST(SimulatorDeath, SchedulingInPastAborts) {
    Simulator s;
    s.at(100, [] {});
    s.step();
    EXPECT_DEATH(s.at(50, [] {}), "cannot schedule an event in the past");
}

}  // namespace
}  // namespace neo::sim
