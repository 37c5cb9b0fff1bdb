// Crypto primitive micro-benchmarks (google-benchmark): the real-time cost
// of the from-scratch implementations backing the simulation's cost model.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "harness/runner.hpp"
#include "crypto/batch_verify.hpp"
#include "crypto/hmac_sha256.hpp"
#include "crypto/secp256k1.hpp"
#include "crypto/sha256.hpp"
#include "crypto/siphash.hpp"

using namespace neo;
using namespace neo::crypto;

namespace {

Bytes payload(std::size_t n) {
    Rng rng(7);
    return rng.bytes(n);
}

void BM_Sha256(benchmark::State& state) {
    Bytes data = payload(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(sha256(data));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_HmacSha256(benchmark::State& state) {
    Bytes key = payload(32);
    Bytes data = payload(128);
    for (auto _ : state) {
        benchmark::DoNotOptimize(hmac_sha256(key, data));
    }
}
BENCHMARK(BM_HmacSha256);

void BM_SipHash24(benchmark::State& state) {
    SipKey key{1, 2};
    Bytes data = payload(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(siphash24(key, data));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_SipHash24)->Arg(52)->Arg(512);

void BM_HalfSipHash(benchmark::State& state) {
    HalfSipKey key{1, 2};
    Bytes data = payload(52);  // aom auth input size
    for (auto _ : state) {
        benchmark::DoNotOptimize(halfsiphash24(key, data));
    }
}
BENCHMARK(BM_HalfSipHash);

void BM_EcdsaSign(benchmark::State& state) {
    // Cycles over 16 digests, as BM_EcdsaVerify does: alternating two lets
    // the branch predictor learn both nonce walks and reads 3-13% fast.
    Rng rng(9);
    EcdsaPrivateKey priv = EcdsaPrivateKey::from_seed(rng.bytes(32));
    std::vector<Digest32> hs;
    for (int i = 0; i < 16; ++i) hs.push_back(sha256("benchmark message " + std::to_string(i)));
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(ecdsa_sign(priv, hs[i]));
        i = (i + 1) % hs.size();
    }
}
BENCHMARK(BM_EcdsaSign);

void BM_EcdsaVerify(benchmark::State& state) {
    // Cycles over distinct signatures: verifying one fixed (h, sig) pair
    // repeatedly lets the branch predictor learn the data-dependent wNAF
    // walk and understates the real cost by ~20%.
    Rng rng(9);
    EcdsaPrivateKey priv = EcdsaPrivateKey::from_seed(rng.bytes(32));
    EcdsaPublicKey pub = ecdsa_derive_public(priv);
    std::vector<Digest32> hs;
    std::vector<EcdsaSignature> sigs;
    for (int i = 0; i < 16; ++i) {
        hs.push_back(sha256("benchmark message " + std::to_string(i)));
        sigs.push_back(ecdsa_sign(priv, hs.back()));
    }
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(ecdsa_verify(pub, hs[i], sigs[i]));
        i = (i + 1) % hs.size();
    }
}
BENCHMARK(BM_EcdsaVerify);

void BM_GeneratorMul(benchmark::State& state) {
    Rng rng(11);
    Scalar k = Scalar::from_be_bytes_reduce(rng.bytes(32));
    for (auto _ : state) {
        benchmark::DoNotOptimize(generator_mul(k));
        k = k.add(Scalar::one());
    }
}
BENCHMARK(BM_GeneratorMul);

// The two inversions of a signature: the field inverse in to_affine (the
// nonce point R) and the scalar inverse k^-1. Both cycle over 16 values.
void BM_FieldInverse(benchmark::State& state) {
    Rng rng(15);
    std::vector<Fe> xs;
    for (int i = 0; i < 16; ++i) xs.push_back(Fe::from_u256(U256::from_be_bytes(rng.bytes(32))));
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(xs[i].inverse());
        i = (i + 1) % xs.size();
    }
}
BENCHMARK(BM_FieldInverse);

void BM_ScalarInverse(benchmark::State& state) {
    Rng rng(17);
    std::vector<Scalar> xs;
    for (int i = 0; i < 16; ++i) xs.push_back(Scalar::from_be_bytes_reduce(rng.bytes(32)));
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(xs[i].inverse());
        i = (i + 1) % xs.size();
    }
}
BENCHMARK(BM_ScalarInverse);

// Batch verification with shared precomputation; range(0) = batch size.
// Per-item time should drop well below BM_EcdsaVerify as the per-batch
// table build and inversions amortise.
void BM_EcdsaVerifyBatch(benchmark::State& state) {
    Rng rng(13);
    EcdsaPrivateKey priv = EcdsaPrivateKey::from_seed(rng.bytes(32));
    EcdsaPublicKey pub = ecdsa_derive_public(priv);
    std::vector<BatchVerifyItem> items;
    for (std::int64_t i = 0; i < state.range(0); ++i) {
        BatchVerifyItem item;
        item.pub = &pub;
        item.digest = sha256("batch item " + std::to_string(i));
        item.sig = ecdsa_sign(priv, item.digest);
        items.push_back(item);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(ecdsa_verify_batch(items));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_EcdsaVerifyBatch)->Arg(4)->Arg(16)->Arg(64);

// Same batch against a caller-cached signer table (the TrustRoot hot path:
// tables are built once at provision time).
void BM_EcdsaVerifyBatchCachedTable(benchmark::State& state) {
    Rng rng(13);
    EcdsaPrivateKey priv = EcdsaPrivateKey::from_seed(rng.bytes(32));
    EcdsaPublicKey pub = ecdsa_derive_public(priv);
    QTable table(pub.q);
    std::vector<BatchVerifyItem> items;
    for (std::int64_t i = 0; i < state.range(0); ++i) {
        BatchVerifyItem item;
        item.pub = &pub;
        item.table = &table;
        item.digest = sha256("batch item " + std::to_string(i));
        item.sig = ecdsa_sign(priv, item.digest);
        items.push_back(item);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(ecdsa_verify_batch(items));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_EcdsaVerifyBatchCachedTable)->Arg(16);

// Four HalfSipHash lanes per call — the sequencer's per-subgroup MAC
// vector (kHmSubgroupSize == 4). Dispatches to the SIMD kernel when the
// host supports it; compare against 4x BM_HalfSipHash for the lane win.
void BM_HalfSipHashX4(benchmark::State& state) {
    HalfSipKey keys[4] = {{1, 2}, {3, 4}, {5, 6}, {7, 8}};
    Bytes data = payload(52);  // aom auth input size
    std::uint32_t out[4];
    for (auto _ : state) {
        halfsiphash24_x4(keys, data, out);
        benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4);
}
BENCHMARK(BM_HalfSipHashX4);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): every bench binary accepts the
// uniform runner flags (--json/--seed/--seeds/--jobs/--quick on top of
// --trace/--metrics), but google-benchmark rejects flags it does not know,
// so consume them before handing argv over. These are wall-clock
// micro-benchmarks with no simulator: seeds and jobs do not apply (the
// measurements are hardware-bound, not model-bound), and --json maps onto
// google-benchmark's own JSON reporter so CI still gets a machine-readable
// artifact at the requested path.
int main(int argc, char** argv) {
    bench::BenchOptions opt = bench::BenchOptions::parse(argc, argv);
    bench::ObsSession obs(argc, argv);
    (void)obs;

    std::vector<std::string> kept;
    kept.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        bool takes_value = a == "--trace" || a == "--metrics" || a == "--json" || a == "--seed" ||
                           a == "--seeds" || a == "--jobs";
        if (takes_value) {
            ++i;  // skip the flag's value too
            continue;
        }
        if (a == "--quick" || a.rfind("--trace=", 0) == 0 || a.rfind("--metrics=", 0) == 0 ||
            a.rfind("--json=", 0) == 0 || a.rfind("--seed=", 0) == 0 ||
            a.rfind("--seeds=", 0) == 0 || a.rfind("--jobs=", 0) == 0) {
            continue;
        }
        kept.push_back(a);
    }
    if (!opt.json_path.empty()) {
        kept.push_back("--benchmark_out=" + opt.json_path);
        kept.push_back("--benchmark_out_format=json");
    }
    if (opt.quick) {
        // Plain double: the packaged google-benchmark predates the
        // suffixed "0.05s" form and rejects it.
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
