#include "harness/scenario_run.hpp"

#include <algorithm>
#include <cstdio>

#include "common/assert.hpp"

namespace neo::bench {

const std::vector<std::string>& scenario_protocols() {
    static const std::vector<std::string> protos = {
        "neo_hm", "neo_pk", "neo_hm_2shard", "neo_pk_2shard",
        "pbft",   "zyzzyva", "hotstuff",     "minbft"};
    return protos;
}

ScenarioRow make_scenario_row(const std::string& proto, std::uint64_t seed, unsigned sim_threads,
                              crypto::CryptoMode mode) {
    constexpr int kShardReplicas = 4;
    const bool sharded = proto.ends_with("_2shard");
    CommonParams c;
    c.n_clients = 4;
    c.seed = seed;
    c.sim_threads = sim_threads;
    c.crypto_mode = mode;
    ScenarioRow row;
    row.ops = echo_ops(64);
    if (proto.starts_with("neo_")) {
        ShardParams p;  // 2 shards x 4 replicas when sharded
        static_cast<CommonParams&>(p) = c;
        p.variant = proto.starts_with("neo_pk") ? NeoVariant::kPk : NeoVariant::kHm;
        p.n_replicas = kShardReplicas;
        p.checkpoint_interval = 128;  // must be a multiple of sync_interval
        row.d = sharded ? make_sharded_neobft(p) : make_neobft(p);
    } else if (proto == "zyzzyva") {
        row.d = make_zyzzyva(ZyzzyvaParams{c});
    } else if (proto == "pbft") {
        row.d = make_pbft(c);
    } else if (proto == "hotstuff") {
        row.d = make_hotstuff(c);
    } else {
        NEO_ASSERT_MSG(proto == "minbft", "unknown scenario protocol");
        row.d = make_minbft(c);
    }
    row.targets = row.d->replica_ids();
    if (sharded) {
        // Transaction generators are stateful: a fresh stream per row.
        ShardTxnWorkload w;
        w.n_shards = 2;
        w.cross_shard_ratio = 0.2;
        w.seed = seed;
        row.ops = sharded_txn_ops(w, row.d->n_clients());
        row.targets.erase(row.targets.begin(), row.targets.end() - kShardReplicas);
    }
    return row;
}

std::string ScenarioOutcome::to_string() const {
    std::string s = scenario + ": " + (ok ? "ok" : "FAIL");
    s += " violations=[";
    for (std::size_t i = 0; i < violations.size(); ++i) {
        if (i) s += ",";
        s += violations[i];
    }
    s += "] unexpected=[";
    for (std::size_t i = 0; i < unexpected.size(); ++i) {
        if (i) s += ",";
        s += unexpected[i];
    }
    s += "] missing=[";
    for (std::size_t i = 0; i < missing.size(); ++i) {
        if (i) s += ",";
        s += missing[i];
    }
    s += "] completed=" + std::to_string(total_completed);
    s += " min_client=" + std::to_string(min_client_completed);
    s += " per_client=[";
    for (std::size_t i = 0; i < client_completed.size(); ++i) {
        if (i) s += ",";
        s += std::to_string(client_completed[i]);
    }
    s += "]";
    return s;
}

ScenarioOutcome run_scenario(Deployment& d, const scenario::Scenario& sc, const OpGen& ops,
                             sim::Time duration) {
    sim::Simulator& sim = d.simulator();
    const sim::Time deadline = sim.now() + duration;

    // The adapter only needs to live until the last scheduled fault fires,
    // which is inside run_until below.
    ScenarioAdapter adapter(d);
    scenario::apply(sc, adapter);

    // Closed loop, one chain per client. Per-client slots only (a done
    // callback runs on that client's partition); merged after the run. The
    // loop holds itself weakly and in-flight callbacks hold it strongly, so
    // it is freed with the last callback.
    const std::size_t nclients = static_cast<std::size_t>(d.n_clients());
    auto completed = std::make_shared<std::vector<std::uint64_t>>(nclients, 0);
    auto per_client_k = std::make_shared<std::vector<std::uint64_t>>(nclients, 0);
    auto issue = std::make_shared<std::function<void(int)>>();
    std::weak_ptr<std::function<void(int)>> self = issue;
    *issue = [&d, &ops, self, completed, per_client_k, deadline](int c) {
        if (d.simulator().now() >= deadline) return;
        std::uint64_t k = (*per_client_k)[static_cast<std::size_t>(c)]++;
        d.invoke(c, ops(c, k), [&d, loop = self.lock(), completed, deadline, c](Bytes) {
            if (d.simulator().now() < deadline) ++(*completed)[static_cast<std::size_t>(c)];
            (*loop)(c);
        });
    };
    for (int c = 0; c < d.n_clients(); ++c) (*issue)(c);

    sim.run_until(deadline);

    ScenarioOutcome out;
    out.scenario = sc.name;
    out.client_completed = *completed;
    out.min_client_completed = nclients ? ~0ull : 0;
    for (std::uint64_t n : out.client_completed) {
        out.total_completed += n;
        out.min_client_completed = std::min(out.min_client_completed, n);
    }

    obs::Auditor& aud = d.auditor();
    aud.finalize();
    // Liveness floor rides on the auditor AFTER finalize (finalize clears
    // the violation list): every client must have reached the scenario's
    // commit floor by the deadline.
    for (std::size_t c = 0; c < nclients; ++c) {
        aud.expect_client_commits(static_cast<NodeId>(c), out.client_completed[c],
                                  sc.min_commits_per_client, deadline);
    }

    // Names in first-appearance order, duplicates collapsed.
    for (const auto& v : aud.violations()) {
        std::string name = v.invariant;
        if (std::find(out.violations.begin(), out.violations.end(), name) ==
            out.violations.end()) {
            out.violations.push_back(name);
        }
    }
    for (const std::string& name : out.violations) {
        bool expected = name == "liveness" ||
                        std::find(sc.expect_violations.begin(), sc.expect_violations.end(),
                                  name) != sc.expect_violations.end();
        if (!expected) out.unexpected.push_back(name);
    }
    if (sc.violations_required) {
        for (const std::string& name : sc.expect_violations) {
            if (std::find(out.violations.begin(), out.violations.end(), name) ==
                out.violations.end()) {
                out.missing.push_back(name);
            }
        }
    }

    bool live = std::find(out.violations.begin(), out.violations.end(), "liveness") ==
                out.violations.end();
    out.ok = out.unexpected.empty() && out.missing.empty() && live;
    if (!out.ok) {
        for (const auto& v : aud.violations()) {
            std::fprintf(stderr, "scenario %s: %s\n", sc.name.c_str(), v.to_string().c_str());
        }
    }
    return out;
}

}  // namespace neo::bench
