// Real-crypto host paths (batch verification, the process-wide verdict
// memo, SIMD SipHash) change HOST wall-clock only. These tests run full
// real-crypto deployments at one and at eight PDES partitions, where
// verifiers on different threads share the memo, and byte-compare the
// serialized trace streams plus the derived metrics. Any verdict, timing
// or charging difference between the runs shows up here as a trace diff.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "harness/harness.hpp"
#include "obs/trace.hpp"

namespace neo::bench {

/// Names the test parameter, so ctest lists .../NeoBN and .../NeoPK.
void PrintTo(NeoVariant v, std::ostream* os) { *os << (v == NeoVariant::kBn ? "NeoBN" : "NeoPK"); }

namespace {

struct Stream {
    std::string jsonl;
    std::map<std::string, double> phase;
    std::uint64_t completed = 0;
};

Stream run_neo(NeoVariant variant, unsigned sim_threads) {
    NeoParams p;
    p.n_replicas = 4;
    p.n_clients = 6;
    p.seed = 23;
    p.sim_threads = sim_threads;
    p.crypto_mode = crypto::CryptoMode::kReal;
    p.variant = variant;
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

/// Neo-BN verifies signed confirm batches through verify_batch; Neo-PK
/// verifies each packet's sequencer signature through the verdict memo
/// that every replica shares.
class CryptoDeterminism : public ::testing::TestWithParam<NeoVariant> {};

TEST_P(CryptoDeterminism, BatchingIdenticalAcrossSimThreads) {
    Stream serial = run_neo(GetParam(), 1);
    Stream parallel = run_neo(GetParam(), 8);
    ASSERT_GT(serial.completed, 0u);
    ASSERT_FALSE(serial.jsonl.empty());
    EXPECT_EQ(serial.jsonl, parallel.jsonl);
    EXPECT_EQ(serial.completed, parallel.completed);
    EXPECT_EQ(serial.phase, parallel.phase);
}

INSTANTIATE_TEST_SUITE_P(NeoVariants, CryptoDeterminism,
                         ::testing::Values(NeoVariant::kBn, NeoVariant::kPk));

}  // namespace
}  // namespace neo::bench
