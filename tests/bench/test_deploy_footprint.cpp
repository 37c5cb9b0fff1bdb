// Host-memory guard for deployment setup: building the paper's headline
// Neo-HM configuration must stay a few MB of heap requests. Per-node host
// caches scale with the client count — a 416 KB verdict table on each of
// 256 clients once cost over 110 MB here before a single request ran.
#include <gtest/gtest.h>

#include <memory>

#include "harness/harness.hpp"
#include "support/alloc_hook.hpp"

namespace neo::bench {
namespace {

// Measured at about 1 MB (x86-64, libstdc++).
constexpr std::uint64_t kBoundBytes = 4 << 20;

TEST(DeployFootprint, NeoHm256ClientsModeledRequestsFewMegabytes) {
    ASSERT_TRUE(test_alloc::hook_active());
    NeoParams p;
    p.n_clients = 256;
    p.variant = NeoVariant::kHm;
    p.crypto_mode = crypto::CryptoMode::kModeled;

    const test_alloc::Stats before = test_alloc::snapshot();
    std::unique_ptr<Deployment> d = make_neobft(p);
    const test_alloc::Stats after = test_alloc::snapshot();
    ASSERT_NE(d, nullptr);

    const std::uint64_t requested = after.bytes - before.bytes;
    EXPECT_LE(requested, kBoundBytes) << "setup requested " << requested << " bytes";
}

}  // namespace
}  // namespace neo::bench
