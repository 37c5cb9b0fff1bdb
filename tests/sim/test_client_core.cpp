// The client core's contract, checked through each protocol client: a reply
// from outside the group, one with a bad MAC and one replica's repeated
// reply never count towards completion, and abandon() drops a request for
// good while the next one still completes.
//
// The client runs alone: its group is silent sink nodes, and each test
// injects the replies it needs, MAC'd with the sender's own keys.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/zyzzyva.hpp"
#include "neobft/client.hpp"

namespace neo {
namespace {

constexpr NodeId kClient = 400;
constexpr NodeId kOutsider = 99;
constexpr NodeId kSequencer = 200;
const std::vector<NodeId> kReplicas = {1, 2, 3, 4};

/// A node that drops whatever it receives.
class Sink : public sim::Node {
  public:
    void on_packet(NodeId, const sim::Packet&) override {}
};

struct FixedRoute : aom::SequencerDirectory {
    NodeId current_sequencer(GroupId) const override { return kSequencer; }
    EpochNum current_epoch(GroupId) const override { return 0; }
};

baselines::BaseConfig base_config() {
    baselines::BaseConfig cfg;
    cfg.replicas = kReplicas;
    return cfg;
}

// One struct per client: its group, how many distinct senders complete a
// request, and a reply to request `rid` claiming to come from `from`,
// MAC'd to the client with `keys`.
struct NeoBft {
    using Client = neobft::Client;
    static constexpr std::size_t kQuorum = 3;  // 2f+1
    static std::vector<NodeId> group() { return kReplicas; }
    static std::unique_ptr<Client> make(std::unique_ptr<crypto::NodeCrypto> c) {
        static const FixedRoute route;
        neobft::Config cfg;
        cfg.replicas = kReplicas;
        return std::make_unique<Client>(cfg, std::move(c), &route);
    }
    static Bytes reply(crypto::NodeCrypto& keys, NodeId from, std::uint64_t rid) {
        neobft::Reply m;
        m.replica = from;
        m.request_id = rid;
        m.result = to_bytes("ok");
        m.mac = keys.mac_for(kClient, m.signed_body());
        return m.serialize();
    }
};

struct Quorum {
    using Client = baselines::QuorumClient;
    static constexpr std::size_t kQuorum = 2;  // f+1
    static std::vector<NodeId> group() { return kReplicas; }
    static std::unique_ptr<Client> make(std::unique_ptr<crypto::NodeCrypto> c) {
        return std::make_unique<Client>(base_config(), std::move(c));
    }
    static Bytes reply(crypto::NodeCrypto& keys, NodeId from, std::uint64_t rid) {
        baselines::Reply m;
        m.replica = from;
        m.request_id = rid;
        m.result = to_bytes("ok");
        m.mac = keys.mac_for(kClient, m.signed_body());
        return m.serialize();
    }
};

struct Zyzzyva {
    using Client = baselines::ZyzzyvaClient;
    static constexpr std::size_t kQuorum = 4;  // 3f+1, the fast path
    static std::vector<NodeId> group() { return kReplicas; }
    static std::unique_ptr<Client> make(std::unique_ptr<crypto::NodeCrypto> c) {
        return std::make_unique<Client>(base_config(), std::move(c));
    }
    static Bytes reply(crypto::NodeCrypto& keys, NodeId from, std::uint64_t rid) {
        baselines::SpecResponse m;
        m.seq = 1;
        m.replica = from;
        m.request_id = rid;
        m.result = to_bytes("ok");
        m.mac = keys.mac_for(kClient, m.signed_body());
        return m.serialize();
    }
};

struct Unreplicated {
    using Client = baselines::UnreplicatedClient;
    static constexpr std::size_t kQuorum = 1;
    static std::vector<NodeId> group() { return {kReplicas[0]}; }
    static std::unique_ptr<Client> make(std::unique_ptr<crypto::NodeCrypto> c) {
        return std::make_unique<Client>(kReplicas[0], std::move(c));
    }
    static Bytes reply(crypto::NodeCrypto& keys, NodeId, std::uint64_t rid) {
        baselines::UnrepReply m;
        m.request_id = rid;
        m.result = to_bytes("ok");
        m.mac = keys.mac_for(kClient, m.result);
        return m.serialize();
    }
};

template <typename T>
class ClientContract : public ::testing::Test {
  protected:
    ClientContract() : net(sim, 1), root(crypto::CryptoMode::kReal, 2) {
        net.set_default_link(sim::datacenter_link());
        std::vector<NodeId> ids = T::group();
        ids.push_back(kOutsider);
        ids.push_back(kSequencer);
        for (NodeId n : ids) {
            sinks.push_back(std::make_unique<Sink>());
            net.add_node(*sinks.back(), n);
            keys.emplace(n, root.provision(n));
        }
        client = T::make(root.provision(kClient));
        net.add_node(*client, kClient);
    }

    /// Issues the next request (request ids count from 1); its result
    /// lands in `result`.
    void invoke() {
        result.reset();
        client->invoke(to_bytes("op"), [this](Bytes r) { result = to_string(r); });
        settle();
    }

    /// `from` sends its reply to request `rid`; `bad_mac` flips a MAC bit.
    void reply(NodeId from, std::uint64_t rid, bool bad_mac = false) {
        Bytes wire = T::reply(*keys.at(from), from, rid);
        if (bad_mac) wire.back() ^= 1;  // the MAC is the last field
        net.send(from, kClient, sim::Packet(std::move(wire)));
        settle();
    }

    /// Replies to `rid` from the group's first `count` members.
    void replies(std::uint64_t rid, std::size_t count) {
        for (std::size_t i = 0; i < count; ++i) reply(T::group()[i], rid);
    }

    // Long enough to deliver and handle a packet; a test's replies all land
    // inside Zyzzyva's 400 us fast-path timeout.
    void settle() { sim.run_until(sim.now() + 20 * sim::kMicrosecond); }

    sim::Simulator sim;
    sim::Network net;
    crypto::TrustRoot root;
    std::vector<std::unique_ptr<Sink>> sinks;
    std::map<NodeId, std::unique_ptr<crypto::NodeCrypto>> keys;
    std::unique_ptr<typename T::Client> client;
    std::optional<std::string> result;
};

using Clients = ::testing::Types<NeoBft, Quorum, Zyzzyva, Unreplicated>;
TYPED_TEST_SUITE(ClientContract, Clients);

TYPED_TEST(ClientContract, IgnoresReplyFromOutsideGroup) {
    this->invoke();
    this->reply(kOutsider, 1);
    this->replies(1, TypeParam::kQuorum - 1);
    EXPECT_FALSE(this->result.has_value());
    EXPECT_TRUE(this->client->busy());
    this->reply(TypeParam::group()[TypeParam::kQuorum - 1], 1);
    EXPECT_EQ(this->result, "ok");
    EXPECT_FALSE(this->client->busy());
}

TYPED_TEST(ClientContract, IgnoresReplyWithBadMac) {
    const NodeId last = TypeParam::group()[TypeParam::kQuorum - 1];
    this->invoke();
    this->replies(1, TypeParam::kQuorum - 1);
    this->reply(last, 1, /*bad_mac=*/true);
    EXPECT_FALSE(this->result.has_value());
    this->reply(last, 1);
    EXPECT_EQ(this->result, "ok");
}

TYPED_TEST(ClientContract, AbandonIgnoresLateReplyAndNextInvokeCompletes) {
    this->invoke();
    this->client->abandon();
    EXPECT_FALSE(this->client->busy());
    this->replies(1, TypeParam::group().size());
    // Past several retry timeouts: a retry timer that outlived the
    // abandoned request would trip the core's assertion.
    this->sim.run_until(this->sim.now() + 100 * sim::kMillisecond);
    EXPECT_FALSE(this->result.has_value());

    this->invoke();
    this->replies(2, TypeParam::kQuorum);
    EXPECT_EQ(this->result, "ok");
}

// Only clients that wait for several replies can double-count one.
template <typename T>
class ReplicatedClientContract : public ClientContract<T> {};
using ReplicatedClients = ::testing::Types<NeoBft, Quorum, Zyzzyva>;
TYPED_TEST_SUITE(ReplicatedClientContract, ReplicatedClients);

TYPED_TEST(ReplicatedClientContract, CountsRepeatedReplyOnce) {
    this->invoke();
    for (std::size_t i = 0; i < TypeParam::kQuorum; ++i) this->reply(TypeParam::group()[0], 1);
    EXPECT_FALSE(this->result.has_value());
    for (std::size_t i = 1; i < TypeParam::kQuorum; ++i) this->reply(TypeParam::group()[i], 1);
    EXPECT_EQ(this->result, "ok");
}

}  // namespace
}  // namespace neo
