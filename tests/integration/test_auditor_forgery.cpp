// The Auditor catching a real forged commit, end to end.
//
// A Byzantine network rewrites one sequencer packet on its way to a single
// replica: the attacker swaps in an earlier client's (validly signed)
// request and recomputes the HalfSipHash MAC vector with the switch keys.
// Under Neo-HM's crash-only network-trust assumption the receiver accepts
// the packet — the MAC scheme authenticates the switch, not the path — so
// the victim replica executes a different request than its peers at the
// same slot. The deployment's always-on obs::Auditor must flag this as a
// divergent commit. run_closed_loop() would abort the process on the
// violation by design, so this test drives the simulation directly and
// finalizes the auditor by hand.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "aom/keys.hpp"
#include "aom/types.hpp"
#include "aom/wire.hpp"
#include "common/bytes.hpp"
#include "common/codec.hpp"
#include "crypto/siphash.hpp"
#include "harness/harness.hpp"
#include "sim/network.hpp"

namespace neo::bench {
namespace {

constexpr std::uint64_t kSeed = 1234;
constexpr int kRequestsPerClient = 8;  // well under sync_interval (128 slots)

std::unique_ptr<Deployment> build() {
    NeoParams p;
    p.variant = NeoVariant::kHm;
    p.n_replicas = 4;
    p.n_clients = 2;
    p.seed = kSeed;
    return make_neobft(p);
}

/// Issues a short closed-loop workload and runs the sim to quiescence.
void drive(Deployment& d) {
    OpGen gen = echo_ops(64);
    // Held weakly by itself and strongly by in-flight callbacks (no cycle).
    auto issue = std::make_shared<std::function<void(int, std::uint64_t)>>();
    std::weak_ptr<std::function<void(int, std::uint64_t)>> self = issue;
    *issue = [&d, self, gen](int client, std::uint64_t k) {
        if (k >= kRequestsPerClient) return;
        d.invoke(client, gen(client, k),
                 [loop = self.lock(), client, k](Bytes) { (*loop)(client, k + 1); });
    };
    for (int c = 0; c < d.n_clients(); ++c) (*issue)(c, 0);
    d.simulator().run_until(10 * sim::kMillisecond);
}

TEST(AuditorForgery, CleanRunPassesTheAuditor) {
    std::unique_ptr<Deployment> d = build();
    drive(*d);
    obs::Auditor& aud = d->auditor();
    aud.finalize();
    EXPECT_TRUE(aud.ok()) << (aud.violations().empty()
                                  ? ""
                                  : aud.violations()[0].to_string());
}

TEST(AuditorForgery, ForgedHmPacketYieldsDivergentCommit) {
    std::unique_ptr<Deployment> d = build();
    const std::vector<NodeId> replicas = d->replica_ids();
    ASSERT_EQ(replicas.size(), 4u);
    const NodeId victim = replicas[0];

    // The attacker knows the switch's per-receiver keys (Neo-HM only claims
    // safety against a crash-faulty network). NeoDeployment provisions its
    // key service from seed + 2.
    aom::AomKeyService keys(kSeed + 2);

    bool forged = false;
    std::optional<aom::HmPacket> stash;
    d->network().set_tamper([&](NodeId from, NodeId to, Bytes& data) {
        if (forged || data.empty() ||
            data[0] != static_cast<std::uint8_t>(aom::Wire::kSeqHm)) {
            return sim::TamperAction::kDeliver;
        }
        aom::HmPacket pkt;
        try {
            Reader r(BytesView(data).subspan(1));
            pkt = aom::HmPacket::parse(r);
        } catch (...) {
            return sim::TamperAction::kDeliver;
        }
        if (!stash) {
            stash = pkt;  // first sequenced request: the substitute payload
            return sim::TamperAction::kDeliver;
        }
        if (to != victim || pkt.seq <= stash->seq || pkt.digest == stash->digest) {
            return sim::TamperAction::kDeliver;
        }
        // Splice the stashed request under the current sequence number and
        // re-authenticate every subgroup slot with the real switch keys.
        pkt.digest = stash->digest;
        pkt.payload = stash->payload;
        Bytes input = aom::auth_input(pkt.group, pkt.epoch, pkt.seq, pkt.digest);
        std::size_t base = static_cast<std::size_t>(pkt.subgroup) *
                           static_cast<std::size_t>(aom::kHmSubgroupSize);
        EXPECT_LE(base + pkt.macs.size(), replicas.size());
        for (std::size_t i = 0; i < pkt.macs.size(); ++i) {
            pkt.macs[i] =
                crypto::halfsiphash24(keys.hm_key(from, replicas[base + i]), input);
        }
        data = pkt.serialize();
        forged = true;
        return sim::TamperAction::kDeliver;
    });

    drive(*d);
    ASSERT_TRUE(forged) << "workload never produced a second distinct request";

    obs::Auditor& aud = d->auditor();
    aud.finalize();
    EXPECT_FALSE(aud.ok());
    bool divergent = false;
    for (const auto& v : aud.violations()) {
        if (std::string_view(v.invariant) == "divergent_commit") divergent = true;
    }
    EXPECT_TRUE(divergent) << "auditor missed the forged commit ("
                           << aud.violations().size() << " other violations)";
}

}  // namespace
}  // namespace neo::bench
