#include "crypto/identity.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/codec.hpp"
#include "crypto/hmac_sha256.hpp"
#include "crypto/sha256.hpp"

namespace neo::crypto {

namespace {

Bytes master_secret_from_seed(std::uint64_t seed) {
    Writer w(16);
    w.u64(seed);
    w.str("neo-trust-root");
    Digest32 d = sha256(w.bytes());
    return Bytes(d.begin(), d.end());
}

}  // namespace

TrustRoot::TrustRoot(CryptoMode mode, std::uint64_t seed, CryptoCosts costs)
    : mode_(mode),
      costs_(costs),
      master_secret_(master_secret_from_seed(seed)),
      master_key_(master_secret_) {
    // Modeled tags are checked by recomputing one HMAC, so only real mode
    // pays for memo slots.
    if (mode_ == CryptoMode::kReal) {
        for (MemoShard& shard : memo_shards_) shard.memo = VerifyMemo(kSlotsPerShard);
    }
}

Bytes TrustRoot::derive(std::string_view label, std::uint64_t a, std::uint64_t b) const {
    Writer w(32);
    w.str(label);
    w.u64(a);
    w.u64(b);
    Digest32 d = master_key_.mac(w.bytes());
    return Bytes(d.begin(), d.end());
}

std::unique_ptr<NodeCrypto> TrustRoot::provision(NodeId node) {
    Bytes seed = derive("node-signing-key", node, 0);
    EcdsaPrivateKey priv = EcdsaPrivateKey::from_seed(seed);
    if (mode_ == CryptoMode::kReal && !public_keys_.contains(node)) {
        auto it = public_keys_.emplace(node, ecdsa_derive_public(priv)).first;
        // Built eagerly so the table map is const once simulation starts —
        // verifiers on any partition read it without locks.
        signer_tables_.emplace(node, std::make_unique<QTable>(it->second.q));
    }
    return std::unique_ptr<NodeCrypto>(new NodeCrypto(this, node, priv));
}

const QTable* TrustRoot::signer_table(NodeId node) const {
    auto it = signer_tables_.find(node);
    return it == signer_tables_.end() ? nullptr : it->second.get();
}

TrustRoot::MemoStats TrustRoot::memo_stats() const {
    MemoStats stats;
    for (MemoShard& shard : memo_shards_) {
        std::lock_guard<std::mutex> lock(shard.m);
        stats.hits += shard.memo.hits();
        stats.misses += shard.memo.misses();
        stats.capacity += shard.memo.capacity();
    }
    return stats;
}

bool TrustRoot::memo_find(NodeId signer, const Digest32& digest, BytesView sig,
                          bool* valid) const {
    MemoShard& shard = memo_shards_[digest[0] % kMemoShards];
    std::lock_guard<std::mutex> lock(shard.m);
    const bool* verdict = shard.memo.find(signer, digest, sig);
    if (verdict == nullptr) return false;
    *valid = *verdict;
    return true;
}

void TrustRoot::memo_insert(NodeId signer, const Digest32& digest, BytesView sig,
                            bool valid) const {
    MemoShard& shard = memo_shards_[digest[0] % kMemoShards];
    std::lock_guard<std::mutex> lock(shard.m);
    shard.memo.insert(signer, digest, sig, valid);
}

const EcdsaPublicKey& TrustRoot::public_key(NodeId node) const {
    auto it = public_keys_.find(node);
    NEO_ASSERT_MSG(it != public_keys_.end(), "public key requested for unprovisioned node");
    return it->second;
}

SipKey TrustRoot::pair_key(NodeId a, NodeId b) const {
    // Pure function of (lo, hi) — no caching here, so concurrent calls from
    // parallel partitions are safe; per-node caching lives in NodeCrypto.
    NodeId lo = std::min(a, b);
    NodeId hi = std::max(a, b);
    Bytes d = derive("pairwise-mac-key", lo, hi);
    return SipKey::from_bytes(BytesView(d.data(), 16));
}

Bytes TrustRoot::modeled_sign(NodeId signer, BytesView msg) const {
    // Oracle tag: HMAC(master, signer || msg), padded to signature size so
    // modeled and real wire formats are byte-compatible.
    Writer w(msg.size() + 8);
    w.u32(signer);
    w.raw(msg);
    Digest32 tag = master_key_.mac(w.bytes());
    Bytes out(kSignatureSize, 0);
    std::copy(tag.begin(), tag.end(), out.begin());
    return out;
}

bool TrustRoot::verify_unmetered(NodeId signer, BytesView msg, BytesView sig) const {
    if (sig.size() != kSignatureSize) return false;
    if (mode_ == CryptoMode::kModeled) {
        return ct_equal(modeled_sign(signer, msg), sig);
    }
    // Every provisioned signer has a table (see provision).
    const QTable* table = signer_table(signer);
    if (table == nullptr) return false;
    auto parsed = EcdsaSignature::parse(sig);
    if (!parsed) return false;
    Digest32 digest = sha256(msg);
    bool ok = false;
    if (memo_find(signer, digest, sig, &ok)) return ok;
    ok = ecdsa_verify_with(*table, digest, *parsed);
    memo_insert(signer, digest, sig, ok);
    return ok;
}

NodeCrypto::NodeCrypto(const TrustRoot* root, NodeId self, EcdsaPrivateKey priv)
    : root_(root), self_(self), priv_(priv) {}

Bytes NodeCrypto::sign(BytesView msg) {
    meter_.signs++;
    meter_.charge(root_->costs().ecdsa_dispatch_ns);
    meter_.charge_async(root_->costs().ecdsa_sign_ns);
    if (root_->mode_ == CryptoMode::kModeled) {
        return root_->modeled_sign(self_, msg);
    }
    EcdsaSignature sig = ecdsa_sign(priv_, sha256(msg));
    return sig.serialize();
}

SipKey NodeCrypto::peer_key(NodeId peer) {
    // Peer ids can come from decoded (untrusted) messages: only ids below
    // the cap get a table slot, so a forged id cannot force a huge resize.
    constexpr NodeId kMaxCachedPeer = 1u << 14;
    if (peer >= kMaxCachedPeer) return root_->pair_key(self_, peer);
    if (peer >= peer_keys_.size()) peer_keys_.resize(peer + 1);
    std::optional<SipKey>& key = peer_keys_[peer];
    if (!key) key = root_->pair_key(self_, peer);
    return *key;
}

bool NodeCrypto::verify(NodeId signer, BytesView msg, BytesView sig) {
    meter_.verifies++;
    meter_.charge(root_->costs().ecdsa_dispatch_ns);
    meter_.charge_async(root_->costs().ecdsa_verify_ns);
    return root_->verify_unmetered(signer, msg, sig);
}

std::vector<bool> NodeCrypto::verify_batch(const std::vector<BatchItem>& items) {
    // Virtual cost first, identically on every host-side path: one dispatch
    // for the batch, full per-element verify cost. Whether the host then
    // verifies one-at-a-time, hits a memo, or runs the shared-precomputation
    // batch, the simulated timeline cannot tell the difference.
    meter_.charge(root_->costs().ecdsa_dispatch_ns);  // one dispatch for all
    for (std::size_t i = 0; i < items.size(); ++i) {
        meter_.verifies++;
        meter_.charge_async(root_->costs().ecdsa_verify_ns);
    }

    if (root_->mode_ != CryptoMode::kReal || items.size() < 2) {
        std::vector<bool> out;
        out.reserve(items.size());
        for (const auto& item : items) {
            out.push_back(root_->verify_unmetered(item.signer, item.msg, item.sig));
        }
        return out;
    }

    // Resolve each item: structural rejects and memo hits settle now; the
    // remainder becomes one shared-precomputation batch with the signers'
    // provision-time wNAF tables.
    std::vector<bool> out(items.size(), false);
    std::vector<BatchVerifyItem> pending;
    std::vector<std::size_t> pending_idx;
    std::vector<NodeId> pending_signer;
    for (std::size_t i = 0; i < items.size(); ++i) {
        const BatchItem& item = items[i];
        if (item.sig.size() != kSignatureSize) continue;
        auto it = root_->public_keys_.find(item.signer);
        if (it == root_->public_keys_.end()) continue;
        auto parsed = EcdsaSignature::parse(item.sig);
        if (!parsed) continue;
        Digest32 digest = sha256(item.msg);
        bool memoed = false;
        if (root_->memo_find(item.signer, digest, item.sig, &memoed)) {
            out[i] = memoed;
            continue;
        }
        pending.push_back(BatchVerifyItem{&it->second, root_->signer_table(item.signer), digest,
                                          *parsed});
        pending_idx.push_back(i);
        pending_signer.push_back(item.signer);
    }

    if (!pending.empty()) {
        std::vector<bool> verdicts = ecdsa_verify_batch(pending, &batch_stats_);
        for (std::size_t j = 0; j < pending.size(); ++j) {
            std::size_t i = pending_idx[j];
            out[i] = verdicts[j];
            root_->memo_insert(pending_signer[j], pending[j].digest, items[i].sig, verdicts[j]);
        }
    }
    return out;
}

Bytes NodeCrypto::mac_for(NodeId peer, BytesView msg) {
    meter_.macs++;
    meter_.charge(root_->costs().mac_ns);
    SipKey key = peer_key(peer);
    std::uint64_t tag = siphash24(key, msg);
    Bytes out(kMacSize);
    for (std::size_t i = 0; i < kMacSize; ++i) out[i] = static_cast<std::uint8_t>(tag >> (8 * i));
    return out;
}

bool NodeCrypto::check_mac_from(NodeId peer, BytesView msg, BytesView tag) {
    meter_.macs++;
    meter_.charge(root_->costs().mac_ns);
    if (tag.size() != kMacSize) return false;
    SipKey key = peer_key(peer);
    std::uint64_t expect = siphash24(key, msg);
    Bytes eb(kMacSize);
    for (std::size_t i = 0; i < kMacSize; ++i) eb[i] = static_cast<std::uint8_t>(expect >> (8 * i));
    return ct_equal(eb, tag);
}

Digest32 NodeCrypto::hash(BytesView msg) {
    meter_.hashes++;
    meter_.charge(root_->costs().hash_base_ns +
                  root_->costs().hash_per_byte_ns * static_cast<std::int64_t>(msg.size()));
    return sha256(msg);
}

}  // namespace neo::crypto
