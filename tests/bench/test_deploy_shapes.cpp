// Deployment shapes beyond the paper's sizes must build. Replicas are
// numbered 1..n while the config service (900), switches (910+) and
// clients (1000+) sit above them; at 900 or more replicas those
// infrastructure ids move up instead of colliding.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "harness/harness.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace neo::bench {
namespace {

/// Ids of the nodes register_obs names, one trace track per distinct id.
std::vector<NodeId> track_ids(Deployment& d) {
    obs::Registry reg;
    obs::TraceSink sink;
    d.register_obs(reg, "d", &sink);
    std::ostringstream os;
    sink.write_chrome_trace(os);
    const std::string trace = os.str();
    const std::string key = "\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":";
    std::vector<NodeId> ids;
    for (std::size_t at = trace.find(key); at != std::string::npos;
         at = trace.find(key, at + 1)) {
        ids.push_back(static_cast<NodeId>(std::stoul(trace.substr(at + key.size()))));
    }
    return ids;
}

TEST(DeployShapes, NeoHmThousandReplicasHaveDistinctNodeIds) {
    // fig8_10x's largest point (software sequencer: no 64-receiver HM port
    // limit). Build only: running 1000 replicas takes seconds.
    NeoParams p;
    p.n_replicas = 1000;
    p.n_clients = 8;
    p.variant = NeoVariant::kHm;
    p.software_sequencer = true;
    p.crypto_mode = crypto::CryptoMode::kModeled;
    std::unique_ptr<Deployment> d = make_neobft(p);

    std::vector<NodeId> replicas = d->replica_ids();
    ASSERT_EQ(replicas.size(), 1000u);
    for (std::size_t i = 0; i < replicas.size(); ++i) EXPECT_EQ(replicas[i], i + 1);
    // 1000 replicas + 2 switches + config service + 8 clients, no id shared.
    EXPECT_EQ(track_ids(*d).size(), 1000u + 2u + 1u + 8u);
}

TEST(DeployShapes, SmallNeoKeepsItsNodeIds) {
    NeoParams p;
    p.n_replicas = 4;
    p.n_clients = 2;
    std::unique_ptr<Deployment> d = make_neobft(p);
    EXPECT_EQ(track_ids(*d), (std::vector<NodeId>{1, 2, 3, 4, 900, 910, 911, 1000, 1001}));
}

}  // namespace
}  // namespace neo::bench
