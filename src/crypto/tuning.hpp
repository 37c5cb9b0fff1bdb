// Process-wide switches for host-side crypto optimisations.
//
// Everything controlled here changes HOST wall-clock only. Verdicts, wire
// bytes and virtual CostMeter charges are identical in every combination —
// the determinism tests run full deployments with each switch flipped and
// byte-compare the traces (tests/crypto/test_crypto_determinism.cpp).
//
// These are test/bench hooks, not tunables: production code leaves all of
// them on. Reads are relaxed atomics on hot paths; flip them only while no
// simulation is running.
#pragma once

#include <atomic>

namespace neo::crypto {

struct HostCryptoTuning {
    /// Shared-precomputation batch ECDSA verification in
    /// NodeCrypto::verify_batch (off = verify one at a time).
    std::atomic<bool> batch_verify{true};
    /// TrustRoot's process-wide verdict memo + per-signer wNAF tables
    /// (off = no memo at all: every verification runs the EC math).
    std::atomic<bool> shared_memo{true};
    /// SIMD 4-wide HalfSipHash in the sequencer data-plane model
    /// (off = scalar lanes).
    std::atomic<bool> simd_siphash{true};
};

HostCryptoTuning& host_crypto_tuning();

}  // namespace neo::crypto
