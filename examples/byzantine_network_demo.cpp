// Byzantine-network mode demo (§3.1, §4.2): under the full Byzantine fault
// model, an equivocating sequencer cannot split correct replicas — the
// confirm-message quorum blocks divergent deliveries.
//
//   ./build/examples/byzantine_network_demo
#include <cstdio>

#include "aom/config_service.hpp"
#include "apps/state_machine.hpp"
#include "crypto/sha256.hpp"
#include "neobft/client.hpp"
#include "neobft/replica.hpp"

using namespace neo;

namespace {

// A malicious sequencer: sends replica 1 different content (with valid
// per-receiver MACs — the Byzantine switch holds all HM keys!) than the
// rest of the group.
class EquivocatingSwitch : public aom::SequencerSwitch {
  public:
    using aom::SequencerSwitch::SequencerSwitch;
    const aom::AomKeyService* keys = nullptr;
    std::vector<NodeId> receivers;
    bool equivocate = false;
    std::uint64_t forged = 0;

  protected:
    void emit(NodeId receiver, sim::Time depart, sim::Packet packet) override {
        BytesView data = packet.view();
        if (equivocate && receiver == 1 && !data.empty() &&
            data[0] == static_cast<std::uint8_t>(aom::Wire::kSeqHm)) {
            try {
                Reader r(data.subspan(1));
                aom::HmPacket pkt = aom::HmPacket::parse(r);
                pkt.payload = to_bytes("EQUIVOCATED CONTENT");
                pkt.digest = crypto::sha256(pkt.payload);
                Bytes input = aom::auth_input(pkt.group, pkt.epoch, pkt.seq, pkt.digest);
                int base = pkt.subgroup * aom::kHmSubgroupSize;
                for (std::size_t i = 0; i < pkt.macs.size(); ++i) {
                    NodeId rcv = receivers[static_cast<std::size_t>(base) + i];
                    pkt.macs[i] = crypto::halfsiphash24(keys->hm_key(id(), rcv), input);
                }
                ++forged;
                aom::SequencerSwitch::emit(receiver, depart, pkt.serialize());
                return;
            } catch (const CodecError&) {
            }
        }
        aom::SequencerSwitch::emit(receiver, depart, std::move(packet));
    }
};

}  // namespace

int main() {
    std::printf("Byzantine-network mode: equivocating sequencer vs confirm quorums\n\n");

    sim::Simulator sim;
    sim::Network net(sim, 1);
    net.set_default_link(sim::datacenter_link());
    crypto::TrustRoot root(crypto::CryptoMode::kReal, 2);
    aom::AomKeyService keys(3);

    neobft::Config cfg;
    cfg.replicas = {1, 2, 3, 4};
    cfg.f = 1;
    cfg.group = 7;
    cfg.config_service = 100;

    aom::GroupConfig group;
    group.group = 7;
    group.variant = aom::AuthVariant::kHmacVector;
    group.trust = aom::NetworkTrust::kByzantine;  // <- the full fault model
    group.f = 1;
    group.receivers = cfg.replicas;

    EquivocatingSwitch sequencer({}, root.provision(200), &keys);
    sequencer.keys = &keys;
    sequencer.receivers = group.receivers;
    net.add_node(sequencer, 200);
    aom::ConfigService config({&sequencer});
    net.add_node(config, 100);
    config.register_group(group);

    std::vector<std::unique_ptr<neobft::Replica>> replicas;
    for (NodeId rid : cfg.replicas) {
        auto rep = std::make_unique<neobft::Replica>(cfg, root.provision(rid), &keys,
                                                     std::make_unique<app::EchoApp>());
        net.add_node(*rep, rid);
        rep->bootstrap(group, config.current_sequencer(7));
        replicas.push_back(std::move(rep));
    }

    neobft::Client client(cfg, root.provision(400), &config);
    net.add_node(client, 400);

    // Phase 1: honest switch. Requests commit with confirm quorums.
    int committed = 0;
    std::function<void()> issue = [&] {
        client.invoke(to_bytes("honest-" + std::to_string(committed)), [&](Bytes) {
            ++committed;
            if (committed < 3) issue();
        });
    };
    issue();
    sim.run_until(sim.now() + 2 * sim::kSecond);
    std::printf("phase 1 (honest switch): %d ops committed; every delivery carried a\n", committed);
    std::printf("2f+1 confirm quorum (ordering certificates include the confirms)\n\n");

    // Phase 2: the switch starts equivocating towards replica 1.
    sequencer.equivocate = true;
    bool done = false;
    client.invoke(to_bytes("under-attack"), [&](Bytes result) {
        done = true;
        std::printf("phase 2 (equivocating switch): \"under-attack\" still committed -> \"%s\"\n",
                    to_string(result).c_str());
    });
    sim.run_until(sim.now() + 2 * sim::kSecond);

    std::printf("  forged packets sent to replica 1: %llu\n",
                static_cast<unsigned long long>(sequencer.forged));
    std::printf("  replica 1 never delivered the forged content: its copy could not\n");
    std::printf("  gather 2f+1 matching confirms, so quorum intersection blocked it.\n\n");

    // Verify: no replica's log contains the equivocated digest.
    Digest32 evil = crypto::sha256(to_bytes("EQUIVOCATED CONTENT"));
    bool clean = true;
    for (auto& rep : replicas) {
        for (std::uint64_t s = 1; s <= rep->log().size(); ++s) {
            if (!rep->log().at(s).noop() && rep->log().at(s).oc().digest == evil) clean = false;
        }
    }
    std::printf("forged content in any replica log: %s\n", clean ? "NO" : "YES (BUG!)");
    return (done && clean) ? 0 : 1;
}
