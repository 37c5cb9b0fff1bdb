// Host-side crypto tuning switches (HostCryptoTuning: batch verification,
// the process-wide verdict memo, SIMD SipHash) change HOST wall-clock
// only. These tests run full real-crypto deployments with each switch
// flipped — and with batching on across PDES partition counts — and
// byte-compare the serialized trace streams plus the derived metrics. Any
// verdict, timing or charging difference between the paths shows up here
// as a trace diff.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "crypto/tuning.hpp"
#include "harness/harness.hpp"
#include "obs/trace.hpp"

namespace neo::bench {
namespace {

/// Applies a tuning combination for the duration of a scope.
struct TuningGuard {
    TuningGuard(bool batch, bool shared, bool simd) {
        crypto::HostCryptoTuning& t = crypto::host_crypto_tuning();
        prev_batch_ = t.batch_verify.exchange(batch);
        prev_shared_ = t.shared_memo.exchange(shared);
        prev_simd_ = t.simd_siphash.exchange(simd);
    }
    ~TuningGuard() {
        crypto::HostCryptoTuning& t = crypto::host_crypto_tuning();
        t.batch_verify.store(prev_batch_);
        t.shared_memo.store(prev_shared_);
        t.simd_siphash.store(prev_simd_);
    }
    bool prev_batch_, prev_shared_, prev_simd_;
};

struct Stream {
    std::string jsonl;
    std::map<std::string, double> phase;
    std::uint64_t completed = 0;
};

Stream run_bn(unsigned sim_threads) {
    NeoParams p;
    p.n_replicas = 4;
    p.n_clients = 6;
    p.seed = 23;
    p.sim_threads = sim_threads;
    p.crypto_mode = crypto::CryptoMode::kReal;
    p.variant = NeoVariant::kBn;  // signed confirm batches -> verify_batch
    std::unique_ptr<Deployment> d = make_neobft(p);

    obs::TraceSink sink;
    d->simulator().set_trace(&sink);
    Measured m = run_closed_loop(*d, echo_ops(64), sim::kMillisecond, 3 * sim::kMillisecond);
    d->simulator().set_trace(nullptr);

    Stream s;
    std::ostringstream os;
    sink.write_jsonl(os);
    s.jsonl = os.str();
    s.phase = m.phase;
    s.completed = m.completed;
    return s;
}

TEST(CryptoDeterminism, TuningSwitchesPreserveTraceBytes) {
    Stream all_on = [&] {
        TuningGuard g(true, true, true);
        return run_bn(1);
    }();
    ASSERT_GT(all_on.completed, 0u);
    ASSERT_FALSE(all_on.jsonl.empty());

    struct Combo {
        const char* name;
        bool batch, shared, simd;
    };
    const Combo combos[] = {
        {"batch_off", false, true, true},
        {"shared_off", true, false, true},  // no verdict memo at all
        {"simd_off", true, true, false},
        {"all_off", false, false, false},
    };
    for (const Combo& c : combos) {
        TuningGuard g(c.batch, c.shared, c.simd);
        Stream s = run_bn(1);
        EXPECT_EQ(all_on.jsonl, s.jsonl) << c.name;
        EXPECT_EQ(all_on.completed, s.completed) << c.name;
        EXPECT_EQ(all_on.phase, s.phase) << c.name;
    }
}

TEST(CryptoDeterminism, BatchingIdenticalAcrossSimThreads) {
    TuningGuard g(true, true, true);
    Stream serial = run_bn(1);
    Stream parallel = run_bn(8);
    ASSERT_GT(serial.completed, 0u);
    EXPECT_EQ(serial.jsonl, parallel.jsonl);
    EXPECT_EQ(serial.completed, parallel.completed);
    EXPECT_EQ(serial.phase, parallel.phase);
}

}  // namespace
}  // namespace neo::bench
