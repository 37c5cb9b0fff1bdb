// Simulator hot-path micro-benchmarks (google-benchmark): the real-time
// cost of the event loop, timer machinery and multicast packet path that
// every protocol run sits on. These track the zero-copy/allocation-free
// rework — simulated results are identical by construction (see the
// determinism tests); these measure how fast the host gets them.
#include <benchmark/benchmark.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "aom/keys.hpp"
#include "aom/sender.hpp"
#include "aom/sequencer.hpp"
#include "aom/wire.hpp"
#include "baselines/common.hpp"
#include "common/rng.hpp"
#include "crypto/identity.hpp"
#include "harness/runner.hpp"
#include "neobft/messages.hpp"
#include "sim/network.hpp"
#include "sim/processing_node.hpp"

using namespace neo;
using namespace neo::sim;

namespace {

/// Terminal endpoint: counts deliveries, keeps no bytes.
class CountingSink : public Node {
  public:
    void on_packet(NodeId, const Packet&) override { ++delivered; }
    std::uint64_t delivered = 0;
};

/// ProcessingNode that does nothing per message (isolates queue/drain cost).
class NullHandler : public ProcessingNode {
  protected:
    void handle(NodeId, BytesView) override {}
};

// Event-queue throughput: schedule-then-fire cycles through the binary
// heap, with callbacks shaped like the packet-delivery closures (inline
// EventFn storage, no heap allocation per event).
void BM_EventQueueThroughput(benchmark::State& state) {
    const std::size_t events = static_cast<std::size_t>(state.range(0));
    std::uint64_t fired = 0;
    for (auto _ : state) {
        Simulator sim;
        // Interleaved timestamps so sift_up/sift_down do real work.
        for (std::size_t i = 0; i < events; ++i) {
            sim.at(static_cast<Time>((i * 7919) % events), [&fired] { ++fired; });
        }
        sim.run();
    }
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventQueueThroughput)->Arg(1 << 10)->Arg(1 << 16);

// Hold model: a standing queue of N pending node events, where every
// executed event schedules one successor at a pseudo-random later time, so
// the queue stays N deep. This is the traffic of a protocol run (timers and
// in-flight deliveries wait while others fire). Each closure captures 56
// bytes, the size of the timer-fire closure, so the queue moves closures of
// the real size. Delays and owners come from a generator the closures
// reach through a pointer, so the compiler cannot fold them. Items
// processed counts executed events.
struct HoldEvent {
    Simulator* sim;
    std::uint64_t* rng;  // shared xorshift64 state
    std::uint64_t* fired;
    std::uint64_t* stop_at;
    std::uint64_t pad[3];

    void operator()() const {
        std::uint64_t x = *rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *rng = x;
        const Time delay = 1 + static_cast<Time>(x % 1024);
        sim->at_node(sim->now() + delay, static_cast<NodeId>((x >> 32) % 8), HoldEvent(*this));
        if (++*fired == *stop_at) sim->stop();
    }
};
static_assert(sizeof(HoldEvent) == 56, "hold closures are timer-fire sized");
static_assert(EventFn::fits_inline<HoldEvent>, "hold closures must stay inline");

void BM_EventQueueHold(benchmark::State& state) {
    constexpr std::uint64_t kBatch = 1024;  // events executed per iteration
    const std::size_t pending = static_cast<std::size_t>(state.range(0));
    Simulator sim;
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    std::uint64_t fired = 0;
    std::uint64_t stop_at = 0;
    for (std::size_t i = 0; i < pending; ++i) {
        sim.at_node(static_cast<Time>(i % 1024), static_cast<NodeId>(i % 8),
                    HoldEvent{&sim, &rng, &fired, &stop_at, {}});
    }
    for (auto _ : state) {
        stop_at += kBatch;
        sim.run();
    }
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(static_cast<std::int64_t>(fired));
}
BENCHMARK(BM_EventQueueHold)->Arg(1 << 10)->Arg(1 << 14);

// Timer churn: arm/cancel/fire through ProcessingNode's timer queue, the
// pattern retry/gap/batch timers follow. Half the timers are cancelled
// before firing (cancelled timers still traverse the event queue).
void BM_TimerChurn(benchmark::State& state) {
    const int timers = static_cast<int>(state.range(0));
    for (auto _ : state) {
        Simulator sim;
        Network net(sim, /*seed=*/1);
        NullHandler node;
        net.add_node(node, 1);
        std::uint64_t fired = 0;
        for (int i = 0; i < timers; ++i) {
            auto tid = node.set_timer(static_cast<Time>(100 + i), [&fired] { ++fired; },
                                      "bench_timer");
            if (i % 2 == 0) node.cancel_timer(tid);
        }
        sim.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * timers);
}
BENCHMARK(BM_TimerChurn)->Arg(1 << 10)->Arg(1 << 14);

// N-way multicast fan-out: one serialisation shared across N deliveries.
// Items processed counts deliveries, so ns/item is the per-receiver cost —
// flat across N is the zero-copy win.
void BM_MulticastFanout(benchmark::State& state) {
    const int receivers = static_cast<int>(state.range(0));
    Rng rng(3);
    Bytes payload = rng.bytes(512);
    std::uint64_t delivered = 0;
    for (auto _ : state) {
        Simulator sim;
        Network net(sim, /*seed=*/1);
        LinkConfig link;
        link.jitter = 0;
        net.set_default_link(link);
        CountingSink source;
        net.add_node(source, 1);
        std::vector<CountingSink> sinks(static_cast<std::size_t>(receivers));
        for (int i = 0; i < receivers; ++i) {
            net.add_node(sinks[static_cast<std::size_t>(i)], static_cast<NodeId>(100 + i));
        }
        constexpr int kRounds = 64;
        for (int round = 0; round < kRounds; ++round) {
            Packet pkt{Bytes(payload)};  // one buffer per round...
            for (int i = 0; i < receivers; ++i) {
                net.send(1, static_cast<NodeId>(100 + i), pkt);  // ...shared N ways
            }
            sim.run();
        }
        for (const auto& s : sinks) delivered += s.delivered;
    }
    benchmark::DoNotOptimize(delivered);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64 * receivers);
}
BENCHMARK(BM_MulticastFanout)->Arg(4)->Arg(16)->Arg(64);

// Multi-group sequencing: one switch serving N groups, requests arriving
// round-robin across them. The per-packet group lookup is a dense array
// indexed by GroupId (bounds check + pointer load); ns/item staying flat
// from 1 to 16 groups is that table's win over hashed lookup. Items
// processed counts sequenced packets, so ns/item is the full per-packet
// sequencing cost (parse, lookup, MAC vector, 4-receiver fan-out).
void BM_MultiGroupSequence(benchmark::State& state) {
    const int n_groups = static_cast<int>(state.range(0));
    constexpr int kReceiversPerGroup = 4;
    constexpr int kRounds = 64;
    crypto::TrustRoot root(crypto::CryptoMode::kModeled, /*seed=*/7);
    aom::AomKeyService keys(/*seed=*/9);
    Rng rng(5);
    Bytes payload = rng.bytes(128);
    std::uint64_t sequenced = 0;
    for (auto _ : state) {
        Simulator sim;
        Network net(sim, /*seed=*/1);
        aom::SequencerSwitch sw(aom::SequencerConfig{}, root.provision(500), &keys);
        net.add_node(sw, 500);
        std::vector<CountingSink> sinks(
            static_cast<std::size_t>(n_groups * kReceiversPerGroup));
        std::vector<Bytes> requests;  // one pre-serialised request per group
        auto sender_crypto = root.provision(999);
        for (int g = 0; g < n_groups; ++g) {
            aom::GroupConfig gc;
            gc.group = static_cast<GroupId>(g);
            gc.variant = aom::AuthVariant::kHmacVector;
            gc.f = 1;
            for (int r = 0; r < kReceiversPerGroup; ++r) {
                NodeId rid = static_cast<NodeId>(100 + g * kReceiversPerGroup + r);
                net.add_node(sinks[static_cast<std::size_t>(g * kReceiversPerGroup + r)], rid);
                gc.receivers.push_back(rid);
            }
            sw.install_group(gc, /*epoch=*/1);
            aom::DataPacket pkt;
            pkt.group = gc.group;
            pkt.digest = sender_crypto->hash(payload);
            pkt.payload = payload;
            requests.push_back(pkt.serialize());
        }
        // Spaced beyond the pipeline service time so nothing tail-drops:
        // the measurement is the sequencing path, not queue policy.
        for (int i = 0; i < kRounds * n_groups; ++i) {
            sim.at(static_cast<Time>(i) * 2 * kMicrosecond, [&net, &requests, i, n_groups] {
                net.send(999, 500, Packet{Bytes(requests[static_cast<std::size_t>(i % n_groups)])});
            });
        }
        sim.run();
        sequenced += sw.packets_sequenced();
    }
    benchmark::DoNotOptimize(sequenced);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kRounds * n_groups);
}
BENCHMARK(BM_MultiGroupSequence)->Arg(1)->Arg(4)->Arg(16);

// -------------------------------------------------------------- Wire codec
// Per-message encode and decode of the formats on every request's path:
// the aom-hm sequencer packet (4 MACs, 64-byte payload), NeoBFT's client
// request (encode includes its signed body) and reply, and the baselines'
// client request. Decode starts after the kind byte, as the dispatchers do.

aom::HmPacket hm_sample() {
    aom::HmPacket p;
    p.group = 1;
    p.epoch = 1;
    p.seq = 42;
    p.digest.fill(0x5a);
    p.n_subgroups = 1;
    p.macs = {0x01020304, 0x05060708, 0x090a0b0c, 0x0d0e0f10};
    p.payload = Bytes(64, 0xab);
    return p;
}

neobft::Request neo_request_sample() {
    neobft::Request m;
    m.client = 200;
    m.request_id = 7;
    m.op = Bytes(64, 0xab);
    m.signature = Bytes(64, 0xcd);
    return m;
}

neobft::Reply neo_reply_sample() {
    neobft::Reply m;
    m.view = neobft::ViewId{1, 0};
    m.replica = 1;
    m.slot = 42;
    m.log_hash.fill(0x77);
    m.request_id = 7;
    m.result = Bytes(64, 0xab);
    m.mac = Bytes(8, 0xee);
    return m;
}

baselines::Request bft_request_sample() {
    baselines::Request m;
    m.client = 200;
    m.request_id = 7;
    m.op = Bytes(64, 0xab);
    m.mac = Bytes(8, 0xee);
    return m;
}

template <class Fn>
void BM_WireCodec(benchmark::State& state, Fn fn) {
    for (auto _ : state) fn();
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

template <class T>
void encode_once(const T& m) {
    Bytes wire = m.serialize();
    benchmark::DoNotOptimize(wire.data());
    benchmark::ClobberMemory();
}

template <class T>
void decode_once(const Bytes& wire) {
    Reader r(BytesView(wire).subspan(1));
    T m = T::parse(r);
    benchmark::DoNotOptimize(&m);
}

const aom::HmPacket kHm = hm_sample();
const Bytes kHmWire = kHm.serialize();
const neobft::Request kNeoRequest = neo_request_sample();
const Bytes kNeoRequestWire = kNeoRequest.serialize();
const neobft::Reply kNeoReply = neo_reply_sample();
const Bytes kNeoReplyWire = kNeoReply.serialize();
const baselines::Request kBftRequest = bft_request_sample();
const Bytes kBftRequestWire = kBftRequest.serialize();

BENCHMARK_CAPTURE(BM_WireCodec, hm_encode, [] { encode_once(kHm); });
BENCHMARK_CAPTURE(BM_WireCodec, hm_decode, [] { decode_once<aom::HmPacket>(kHmWire); });
BENCHMARK_CAPTURE(BM_WireCodec, neo_request_encode, [] {
    encode_once(kNeoRequest);
    Bytes body = kNeoRequest.signed_body();
    benchmark::DoNotOptimize(body.data());
    benchmark::ClobberMemory();
});
BENCHMARK_CAPTURE(BM_WireCodec, neo_request_decode,
                  [] { decode_once<neobft::Request>(kNeoRequestWire); });
BENCHMARK_CAPTURE(BM_WireCodec, neo_reply_encode, [] { encode_once(kNeoReply); });
BENCHMARK_CAPTURE(BM_WireCodec, neo_reply_decode,
                  [] { decode_once<neobft::Reply>(kNeoReplyWire); });
BENCHMARK_CAPTURE(BM_WireCodec, bft_request_encode, [] { encode_once(kBftRequest); });
BENCHMARK_CAPTURE(BM_WireCodec, bft_request_decode,
                  [] { decode_once<baselines::Request>(kBftRequestWire); });

// --------------------------------------------------------------------- PDES
// Parallel-engine micro-benchmarks. These isolate the three costs the
// conservative engine adds on top of the serial drain: the window barrier,
// the cross-partition mailboxes, and the window-size sensitivity to
// lookahead. All of them run the real engine (workers, epochs, parities).
// Window work may run on worker threads, so they measure the whole
// process's CPU time; the calling thread's alone would miss the workers.

// Per-window overhead vs partition count: one self-reposting event per
// partition, spaced exactly one lookahead apart, so every window executes
// one event per partition and the measurement is dominated by the cost of
// running a window as the engine chooses to run it — on the workers behind
// the dispatch/park barrier, or inline on the calling thread when that is
// cheaper. ns/item is the per-window cost.
void BM_WindowBarrier(benchmark::State& state) {
    const unsigned partitions = static_cast<unsigned>(state.range(0));
    constexpr Time kLookahead = 1'000;
    constexpr int kWindows = 512;
    std::uint64_t fired = 0;
    for (auto _ : state) {
        Simulator sim(partitions);
        sim.set_lookahead(kLookahead);
        for (unsigned n = 0; n < partitions; ++n) {
            auto self = std::make_shared<std::function<void()>>();
            NodeId id = static_cast<NodeId>(n);
            *self = [&sim, &fired, self, id] {
                ++fired;
                sim.at_node(sim.now() + kLookahead, id, [self] { (*self)(); });
            };
            sim.at_node(0, id, [self] { (*self)(); });
        }
        sim.run_until(kWindows * kLookahead);
    }
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kWindows);
}
BENCHMARK(BM_WindowBarrier)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->MeasureProcessCPUTime();

// Mailbox throughput: partition 0 pushes a batch of cross-partition events
// to partition 1 every window (double-buffered outbox write, merge on the
// consumer side). ns/item is the per-event mailbox cost.
void BM_MailboxThroughput(benchmark::State& state) {
    const std::size_t batch = static_cast<std::size_t>(state.range(0));
    constexpr Time kLookahead = 1'000;
    constexpr int kWindows = 128;
    std::uint64_t received = 0;
    for (auto _ : state) {
        Simulator sim(2);
        sim.set_lookahead(kLookahead);
        auto pump = std::make_shared<std::function<void()>>();
        *pump = [&sim, &received, pump, batch] {
            for (std::size_t i = 0; i < batch; ++i) {
                sim.at_node(sim.now() + kLookahead, 1, [&received] { ++received; });
            }
            sim.at_node(sim.now() + kLookahead, 0, [pump] { (*pump)(); });
        };
        sim.at_node(0, 0, [pump] { (*pump)(); });
        sim.run_until(kWindows * kLookahead);
    }
    benchmark::DoNotOptimize(received);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kWindows *
                            static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_MailboxThroughput)->Arg(1)->Arg(16)->Arg(256)->MeasureProcessCPUTime();

// Lookahead sensitivity: a fixed workload (4 partitions, events every
// 1000ns) under a shrinking lookahead. Work per run is constant; only the
// number of windows the engine must cut changes (1000/L windows per event
// period), so the slowdown from Arg(1000) to Arg(125) is pure conservative-
// synchronisation cost — the simulated results never change.
void BM_LookaheadSensitivity(benchmark::State& state) {
    const Time lookahead = static_cast<Time>(state.range(0));
    constexpr Time kPeriod = 1'000;  // event spacing, fixed across args
    constexpr int kRounds = 256;
    constexpr unsigned kParts = 4;
    std::uint64_t fired = 0;
    for (auto _ : state) {
        Simulator sim(kParts);
        sim.set_lookahead(lookahead);
        for (unsigned n = 0; n < kParts; ++n) {
            auto self = std::make_shared<std::function<void()>>();
            NodeId id = static_cast<NodeId>(n);
            *self = [&sim, &fired, self, id] {
                ++fired;
                sim.at_node(sim.now() + kPeriod, id, [self] { (*self)(); });
            };
            sim.at_node(0, id, [self] { (*self)(); });
        }
        sim.run_until(kRounds * kPeriod);
    }
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kRounds * kParts);
}
BENCHMARK(BM_LookaheadSensitivity)
    ->Arg(1000)
    ->Arg(500)
    ->Arg(250)
    ->Arg(125)
    ->MeasureProcessCPUTime();

}  // namespace

// Custom main mirroring micro_crypto: accept the uniform runner flags
// (--json/--seed/--seeds/--jobs/--quick/--trace/--metrics) but hand only
// google-benchmark's own flags through, mapping --json onto its JSON
// reporter and --quick onto a short min-time.
int main(int argc, char** argv) {
    bench::BenchOptions opt = bench::BenchOptions::parse(argc, argv);
    bench::ObsSession obs(argc, argv);
    (void)obs;

    std::vector<std::string> kept;
    kept.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        bool takes_value = a == "--trace" || a == "--metrics" || a == "--json" || a == "--seed" ||
                           a == "--seeds" || a == "--jobs" || a == "--sim-threads";
        if (takes_value) {
            ++i;
            continue;
        }
        if (a == "--quick" || a.rfind("--trace=", 0) == 0 || a.rfind("--metrics=", 0) == 0 ||
            a.rfind("--json=", 0) == 0 || a.rfind("--seed=", 0) == 0 ||
            a.rfind("--seeds=", 0) == 0 || a.rfind("--jobs=", 0) == 0 ||
            a.rfind("--sim-threads=", 0) == 0) {
            continue;
        }
        kept.push_back(a);
    }
    if (!opt.json_path.empty()) {
        kept.push_back("--benchmark_out=" + opt.json_path);
        kept.push_back("--benchmark_out_format=json");
    }
    if (opt.quick) {
        kept.push_back("--benchmark_min_time=0.05");
    }

    std::vector<char*> args;
    args.reserve(kept.size());
    for (std::string& s : kept) args.push_back(s.data());
    int filtered_argc = static_cast<int>(args.size());
    benchmark::Initialize(&filtered_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
