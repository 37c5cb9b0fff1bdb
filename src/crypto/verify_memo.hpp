// Host-side memo of ECDSA verification outcomes.
//
// Signature verification is a pure function of (public key, message digest,
// signature); BFT protocols re-verify the same tuple often (client retries,
// cached replies, quorum certificates carried in several messages). The
// memo skips the EC math on repeats — a HOST-time optimisation only. The
// caller still charges the full virtual-time cost through CostMeter, so
// simulated results are byte-identical with the memo on or off. TrustRoot
// holds the process's one instance, lock-sharded across verifiers.
//
// The table is keyed by (signer, digest, signature). Within one TrustRoot
// the signer -> public-key binding is immutable (keys are derived once from
// the master secret), so this is equivalent to keying by (pubkey, digest,
// signature). Hits require an exact match of all three fields — a collision
// can only evict, never alias — and both valid and invalid verdicts are
// cached (an attacker replaying a bad signature should not force repeated
// EC math either). Fixed-size open-addressing table, overwrite on
// collision: bounded memory, no rehashing on the hot path.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"

namespace neo::crypto {

class VerifyMemo {
  public:
    /// Signature width this memo caches (matches kSignatureSize).
    static constexpr std::size_t kSigBytes = 64;

    /// Empty table (capacity 0): holds no slots and must not be queried.
    VerifyMemo() = default;
    /// `slots` is rounded up to a power of two.
    explicit VerifyMemo(std::size_t slots);

    /// Memoised verdict for the tuple, or nullptr on miss. Counts a hit or
    /// a miss; the caller performs (and inserts) the real verification on
    /// miss.
    const bool* find(NodeId signer, const Digest32& digest, BytesView sig);

    void insert(NodeId signer, const Digest32& digest, BytesView sig, bool valid);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::size_t capacity() const { return slots_.size(); }

  private:
    struct Slot {
        bool occupied = false;
        bool valid = false;
        NodeId signer = 0;
        Digest32 digest{};
        std::array<std::uint8_t, kSigBytes> sig{};
    };

    std::size_t index_of(NodeId signer, const Digest32& digest, BytesView sig) const;

    std::vector<Slot> slots_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

}  // namespace neo::crypto
