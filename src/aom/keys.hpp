// Symmetric key provisioning for the aom-hm variant.
//
// The paper's receivers run a key-exchange protocol with the sequencer
// switch, facilitated by the configuration service (§4.3). Here the
// configuration service derives each (switch, receiver) key from a master
// secret and hands it to exactly those two parties, who then hold it: the
// switch takes its group's keys when the group is installed
// (SequencerSwitch::install_group), and each receiver holds the key of its
// current sequencer (AomReceiver), so no packet pays a derivation. The
// derivation function is deterministic, so failover to a new switch
// re-provisions keys without extra state: the new switch derives them at
// install and receivers when the epoch's sequencer changes.
#pragma once

#include "common/bytes.hpp"
#include "common/codec.hpp"
#include "common/types.hpp"
#include "crypto/hmac_sha256.hpp"
#include "crypto/siphash.hpp"

namespace neo::aom {

class AomKeyService {
  public:
    explicit AomKeyService(std::uint64_t seed) {
        Bytes s(8);
        for (int i = 0; i < 8; ++i) s[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(seed >> (8 * i));
        Digest32 d = crypto::hmac_sha256(to_bytes("aom-key-service"), s);
        master_.assign(d.begin(), d.end());
    }

    /// The HalfSipHash key shared by sequencer `switch_id` and `receiver`.
    crypto::HalfSipKey hm_key(NodeId switch_id, NodeId receiver) const {
        Writer w(24);
        w.str("aom-hm");
        w.u32(switch_id);
        w.u32(receiver);
        Digest32 d = crypto::hmac_sha256(master_, w.bytes());
        return crypto::HalfSipKey::from_bytes(BytesView(d.data(), 8));
    }

  private:
    Bytes master_;
};

}  // namespace neo::aom
