// The process-wide verified-signature memo in TrustRoot: skips repeat EC
// math on the host while the virtual-time cost model stays oblivious — a
// memo hit and a memo miss charge the node's CostMeter identically, so
// simulated results cannot depend on cache state.
#include <gtest/gtest.h>

#include "crypto/identity.hpp"
#include "crypto/verify_memo.hpp"

using namespace neo;
using namespace neo::crypto;

namespace {

Bytes msg_bytes(const char* s) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(s);
    return Bytes(p, p + std::char_traits<char>::length(s));
}

TEST(VerifyMemo, RepeatVerificationHitsAndAgrees) {
    // Every replica verifies the same broadcast bytes: the first verifier
    // pays the EC math, every later one — on any node — hits.
    TrustRoot root(CryptoMode::kReal, /*seed=*/11);
    auto signer = root.provision(1);
    auto first = root.provision(2);
    auto second = root.provision(3);

    Bytes msg = msg_bytes("memoised message");
    Bytes sig = signer->sign(msg);

    EXPECT_TRUE(first->verify(1, msg, sig));
    EXPECT_EQ(root.memo_stats().hits, 0u);
    EXPECT_TRUE(second->verify(1, msg, sig));
    EXPECT_EQ(root.memo_stats().hits, 1u);
    EXPECT_TRUE(first->verify(1, msg, sig));
    EXPECT_TRUE(root.verify_unmetered(1, msg, sig));
    EXPECT_EQ(root.memo_stats().hits, 3u);
    EXPECT_EQ(root.memo_stats().misses, 1u);
}

TEST(VerifyMemo, HitChargesFullVirtualCost) {
    TrustRoot root(CryptoMode::kReal, /*seed=*/12);
    auto signer = root.provision(1);
    auto first = root.provision(2);
    auto second = root.provision(3);

    Bytes msg = msg_bytes("cost model is host-blind");
    Bytes sig = signer->sign(msg);

    ASSERT_TRUE(first->verify(1, msg, sig));  // miss: real EC math
    std::int64_t miss_sync = first->meter().drain();
    std::int64_t miss_async = first->meter().drain_async();

    ASSERT_TRUE(second->verify(1, msg, sig));  // hit: memo only
    std::int64_t hit_sync = second->meter().drain();
    std::int64_t hit_async = second->meter().drain_async();

    EXPECT_EQ(root.memo_stats().hits, 1u);
    EXPECT_EQ(hit_sync, miss_sync);
    EXPECT_EQ(hit_async, miss_async);
    EXPECT_EQ(hit_sync, root.costs().ecdsa_dispatch_ns);
    EXPECT_EQ(hit_async, root.costs().ecdsa_verify_ns);
    EXPECT_EQ(second->meter().verifies, 1u);  // op counters tick on hits too
}

TEST(VerifyMemo, InvalidSignaturesAreMemoisedAsInvalid) {
    TrustRoot root(CryptoMode::kReal, /*seed=*/13);
    auto signer = root.provision(1);
    auto first = root.provision(2);
    auto second = root.provision(3);

    Bytes msg = msg_bytes("tampered");
    Bytes sig = signer->sign(msg);
    sig[10] ^= 0x01;

    EXPECT_FALSE(first->verify(1, msg, sig));
    EXPECT_EQ(root.memo_stats().hits, 0u);
    EXPECT_FALSE(second->verify(1, msg, sig));  // hit, still invalid
    EXPECT_EQ(root.memo_stats().hits, 1u);
}

TEST(VerifyMemo, KeyCoversSignerDigestAndSignature) {
    TrustRoot root(CryptoMode::kReal, /*seed=*/14);
    auto node1 = root.provision(1);
    auto node2 = root.provision(2);
    auto checker = root.provision(3);

    Bytes msg = msg_bytes("same message");
    Bytes sig1 = node1->sign(msg);
    Bytes sig2 = node2->sign(msg);

    ASSERT_TRUE(checker->verify(1, msg, sig1));
    // Same (digest, sig) attributed to a different signer must NOT hit the
    // node-1 entry: it re-verifies against node 2's key and fails.
    EXPECT_FALSE(checker->verify(2, msg, sig1));
    // A different message under the same signer is its own entry.
    Bytes other = msg_bytes("different message");
    EXPECT_FALSE(checker->verify(1, other, sig1));
    // A different signature over the same message by the same signer too.
    EXPECT_FALSE(checker->verify(1, msg, sig2));
    EXPECT_EQ(root.memo_stats().hits, 0u);
    EXPECT_EQ(root.memo_stats().misses, 4u);
}

TEST(VerifyMemo, CollisionEvictionStaysCorrect) {
    // A tiny table forces constant evictions; every verdict must still be
    // correct (full-key compare on hit, re-verify on miss).
    VerifyMemo memo(/*slots=*/2);
    Digest32 d{};
    Bytes sig(VerifyMemo::kSigBytes, 0);
    for (std::uint32_t signer = 0; signer < 64; ++signer) {
        d[0] = static_cast<std::uint8_t>(signer);
        EXPECT_EQ(memo.find(signer, d, sig), nullptr);
        memo.insert(signer, d, sig, signer % 2 == 0);
    }
    // Whatever survived must report the verdict it was stored with.
    for (std::uint32_t signer = 0; signer < 64; ++signer) {
        d[0] = static_cast<std::uint8_t>(signer);
        const bool* v = memo.find(signer, d, sig);
        if (v != nullptr) {
            EXPECT_EQ(*v, signer % 2 == 0);
        }
    }
}

TEST(VerifyMemo, ModeledModeBypassesTheMemo) {
    // Modeled tags are recomputed with one HMAC: the memo is neither
    // consulted nor allocated.
    TrustRoot root(CryptoMode::kModeled, /*seed=*/15);
    auto signer = root.provision(1);
    auto checker = root.provision(2);
    Bytes msg = msg_bytes("modeled tags are cheap already");
    Bytes sig = signer->sign(msg);
    EXPECT_TRUE(checker->verify(1, msg, sig));
    EXPECT_TRUE(checker->verify(1, msg, sig));
    EXPECT_TRUE(root.verify_unmetered(1, msg, sig));
    TrustRoot::MemoStats stats = root.memo_stats();
    EXPECT_EQ(stats.hits + stats.misses, 0u);
    EXPECT_EQ(stats.capacity, 0u);
    EXPECT_GT(TrustRoot(CryptoMode::kReal, 15).memo_stats().capacity, 0u);
}

}  // namespace
