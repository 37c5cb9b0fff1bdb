// Node identities, key provisioning, and per-node signing/verification.
//
// TrustRoot plays the role the paper assigns to the configuration service's
// credential setup (§4.1, §5.1): it provisions each node's signing keypair
// and the pairwise symmetric keys used for MAC authenticators, and
// distributes public keys. Protocol code never touches another node's
// private key — a Byzantine node subclass only holds its own NodeCrypto, so
// forging requires breaking the underlying primitive.
//
// Two modes:
//  - kReal:    secp256k1 ECDSA signatures, SipHash pairwise MACs. Used by
//              tests and examples; tampering is cryptographically detected.
//  - kModeled: SipHash-based tags standing in for signatures, with the SAME
//              virtual-time cost charged as ECDSA. Used by large bench
//              sweeps so millions of simulated messages stay cheap in real
//              time. Not adversarially sound (a shared oracle key exists
//              inside the process) — documented in DESIGN.md.
#pragma once

#include <array>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/codec.hpp"
#include "common/types.hpp"
#include "crypto/batch_verify.hpp"
#include "crypto/cost.hpp"
#include "crypto/hmac_sha256.hpp"
#include "crypto/secp256k1.hpp"
#include "crypto/siphash.hpp"
#include "crypto/verify_memo.hpp"

namespace neo::crypto {

enum class CryptoMode { kReal, kModeled };

/// Byte size of a signature in both modes (modeled tags are padded so wire
/// sizes — and therefore bandwidth costs — match).
constexpr std::size_t kSignatureSize = 64;
/// Byte size of a pairwise MAC tag.
constexpr std::size_t kMacSize = 8;

/// One replica's signature inside a quorum certificate. A quorum travels
/// as `io.list(sigs, kMaxQuorum)`: a u32 count, then these pairs.
struct SignerSig {
    NodeId replica = 0;
    Bytes signature;

    template <class IO, class M>
    static void fields(IO& io, M& m) {
        io(m.replica);
        io.blob(m.signature, 256);
    }

    friend bool operator==(const SignerSig&, const SignerSig&) = default;
};

/// Decoding cap on the entries of a quorum certificate.
constexpr std::size_t kMaxQuorum = 512;

class NodeCrypto;

/// System-wide key directory. Create once per simulation, share between all
/// nodes. Const after setup: every mutating call (provision, key
/// registration) happens before the simulation runs, so concurrent reads
/// from parallel simulator workers are safe. The one exception is the
/// host-side verify-verdict memo, which every verifier in the process
/// shares behind sharded locks; pairwise MAC keys are cached per node in
/// NodeCrypto.
class TrustRoot {
  public:
    TrustRoot(CryptoMode mode, std::uint64_t seed, CryptoCosts costs = {});

    CryptoMode mode() const { return mode_; }
    const CryptoCosts& costs() const { return costs_; }

    /// Creates (or returns) the crypto context for a node. Each node keeps
    /// its own; the TrustRoot retains only public material.
    std::unique_ptr<NodeCrypto> provision(NodeId node);

    /// Public key lookup (real mode). Asserts the node was provisioned.
    const EcdsaPublicKey& public_key(NodeId node) const;

    /// Derives the symmetric key shared by a pair of nodes.
    SipKey pair_key(NodeId a, NodeId b) const;

    /// Verifies a signature without charging any cost meter: the host-side
    /// work behind NodeCrypto::verify, also used directly by external
    /// checkers in tests. Safe from any thread (the memo it consults is
    /// lock-sharded).
    bool verify_unmetered(NodeId signer, BytesView msg, BytesView sig) const;

    /// Cached wNAF table for a provisioned signer's public key (kReal
    /// only; built once at provision time, immutable afterwards — safe to
    /// read from any partition without locks). Null when unknown.
    const QTable* signer_table(NodeId node) const;

    /// Host-side instrumentation of the verdict memo, summed over shards.
    /// Capacity is 0 in kModeled, which never consults the memo.
    struct MemoStats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::size_t capacity = 0;
    };
    MemoStats memo_stats() const;

  private:
    friend class NodeCrypto;

    Bytes derive(std::string_view label, std::uint64_t a, std::uint64_t b) const;
    Bytes modeled_sign(NodeId signer, BytesView msg) const;

    /// The process's one verdict memo. Verification is a pure function of
    /// (public key, digest, signature), and in a simulated deployment every
    /// replica verifies the SAME broadcast bytes, so a shared table pays
    /// the EC math once per process where per-node tables paid it once per
    /// node and almost never hit. Mutex-sharded because parallel partitions
    /// hit it concurrently; a lookup costs one short critical section.
    /// Host-time only: each node still charges full virtual cost, so a
    /// hit and a miss cost the simulation the same. Returns true and fills
    /// *valid on a hit. The verdict is copied out under the shard lock —
    /// never a pointer into the shard, which a concurrent insert could
    /// recycle.
    bool memo_find(NodeId signer, const Digest32& digest, BytesView sig, bool* valid) const;
    void memo_insert(NodeId signer, const Digest32& digest, BytesView sig, bool valid) const;

    CryptoMode mode_;
    CryptoCosts costs_;
    Bytes master_secret_;
    // Padded-key SHA-256 midstates for master_secret_: every derive() and
    // modeled_sign() HMACs under this one key, so the key-block absorb is
    // paid once per TrustRoot instead of per message.
    HmacSha256Key master_key_;
    std::unordered_map<NodeId, EcdsaPublicKey> public_keys_;
    std::unordered_map<NodeId, std::unique_ptr<QTable>> signer_tables_;
    // Slots are allocated in kReal only (see the constructor).
    struct MemoShard {
        std::mutex m;
        VerifyMemo memo;
    };
    static constexpr std::size_t kMemoShards = 8;
    static constexpr std::size_t kSlotsPerShard = 2048;
    mutable std::array<MemoShard, kMemoShards> memo_shards_;
};

/// Per-node crypto context. All operations charge the node's CostMeter.
class NodeCrypto {
  public:
    NodeId self() const { return self_; }
    CostMeter& meter() { return meter_; }
    const TrustRoot& root() const { return *root_; }

    /// Signs with this node's key. Output is kSignatureSize bytes.
    Bytes sign(BytesView msg);

    /// Verifies `signer`'s signature over msg.
    bool verify(NodeId signer, BytesView msg, BytesView sig);

    /// Batch verification: one dispatch for the whole batch (how real
    /// deployments feed signature batches to worker cores), async cost per
    /// element. Returns per-element validity.
    struct BatchItem {
        NodeId signer;
        Bytes msg;
        BytesView sig;
    };
    std::vector<bool> verify_batch(const std::vector<BatchItem>& items);

    /// Pairwise MAC tag for messages to `peer` (kMacSize bytes).
    Bytes mac_for(NodeId peer, BytesView msg);
    bool check_mac_from(NodeId peer, BytesView msg, BytesView tag);

    /// SHA-256 with cost charging.
    Digest32 hash(BytesView msg);

    /// Host-side counters of this node's batch-verification activity
    /// (fast-path batches, bisect descents, forged-leaf rechecks).
    const BatchVerifyStats& batch_stats() const { return batch_stats_; }

  private:
    friend class TrustRoot;
    NodeCrypto(const TrustRoot* root, NodeId self, EcdsaPrivateKey priv);

    SipKey peer_key(NodeId peer);

    const TrustRoot* root_;
    NodeId self_;
    EcdsaPrivateKey priv_;
    CostMeter meter_;
    BatchVerifyStats batch_stats_;
    // Pairwise MAC keys this node talks with, indexed by peer NodeId (ids
    // are small and dense) and grown on first contact. Node-private, so
    // parallel partitions never contend.
    std::vector<std::optional<SipKey>> peer_keys_;
};

}  // namespace neo::crypto
