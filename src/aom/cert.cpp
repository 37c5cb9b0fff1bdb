#include "aom/cert.hpp"

#include <unordered_set>

#include "common/assert.hpp"
#include "crypto/sha256.hpp"

namespace neo::aom {

namespace {

bool verify_hm(const OrderingCert& cert, const VerifyContext& ctx, NodeId sequencer) {
    int idx = ctx.cfg->receiver_index(ctx.self);
    if (idx < 0) return false;
    if (cert.macs.size() != ctx.cfg->receivers.size()) return false;

    crypto::HalfSipKey key = ctx.keys->hm_key(sequencer, ctx.self);
    Bytes input = auth_input(cert.group, cert.epoch, cert.seq, cert.digest);
    ctx.crypto->meter().macs++;
    ctx.crypto->meter().charge(ctx.crypto->root().costs().mac_ns);
    std::uint32_t expect = crypto::halfsiphash24(key, input);
    return cert.macs[static_cast<std::size_t>(idx)] == expect;
}

bool verify_pk(const OrderingCert& cert, const VerifyContext& ctx, NodeId sequencer) {
    if (cert.chain.empty()) return false;
    if (cert.chain.front().seq != cert.seq) return false;
    if (cert.chain.front().digest != cert.digest) return false;
    for (std::size_t i = 1; i < cert.chain.size(); ++i) {
        if (cert.chain[i].seq != cert.chain[i - 1].seq + 1) return false;
    }

    // Signature covers the chain value of the LAST link.
    const auto& last = cert.chain.back();
    Digest32 c_last = chain_next(last.prev_chain, cert.group, cert.epoch, last.seq, last.digest);
    ctx.crypto->meter().hashes++;
    if (!ctx.crypto->verify(sequencer, BytesView(c_last.data(), c_last.size()), cert.signature)) {
        return false;
    }

    // Walk backwards: link i's chain value must equal link i+1's prev field.
    Digest32 expected_c = last.prev_chain;
    for (std::size_t i = cert.chain.size() - 1; i-- > 0;) {
        const auto& link = cert.chain[i];
        Digest32 c_i = chain_next(link.prev_chain, cert.group, cert.epoch, link.seq, link.digest);
        ctx.crypto->meter().hashes++;
        ctx.crypto->meter().charge(ctx.crypto->root().costs().hash_base_ns);
        if (c_i != expected_c) return false;
        expected_c = link.prev_chain;
    }
    return true;
}

bool verify_confirms(const OrderingCert& cert, const VerifyContext& ctx) {
    std::size_t quorum = static_cast<std::size_t>(2 * ctx.cfg->f + 1);
    if (cert.confirms.size() < quorum) return false;
    Bytes body = confirm_input(cert.group, cert.epoch, cert.seq, cert.digest);
    std::unordered_set<NodeId> seen;
    std::size_t valid = 0;
    for (const auto& c : cert.confirms) {
        if (ctx.cfg->receiver_index(c.node) < 0) continue;
        if (!seen.insert(c.node).second) continue;
        if (!ctx.crypto->verify(c.node, body, c.signature)) continue;
        ++valid;
        if (valid >= quorum) return true;
    }
    return false;
}

}  // namespace

bool verify_cert(const OrderingCert& cert, const VerifyContext& ctx) {
    NEO_ASSERT(ctx.cfg != nullptr && ctx.crypto != nullptr && ctx.keys != nullptr);
    if (cert.group != ctx.cfg->group) return false;
    if (cert.seq == 0) return false;

    // Payload integrity.
    if (ctx.crypto->hash(cert.payload) != cert.digest) return false;

    NodeId sequencer = ctx.sequencer_for_epoch ? ctx.sequencer_for_epoch(cert.epoch) : kInvalidNode;
    if (sequencer == kInvalidNode) return false;

    bool auth_ok = false;
    switch (cert.variant) {
        case AuthVariant::kHmacVector:
            auth_ok = verify_hm(cert, ctx, sequencer);
            break;
        case AuthVariant::kPublicKey:
            auth_ok = verify_pk(cert, ctx, sequencer);
            break;
    }
    if (!auth_ok) return false;

    if (ctx.cfg->trust == NetworkTrust::kByzantine) {
        return verify_confirms(cert, ctx);
    }
    return true;
}

}  // namespace neo::aom
