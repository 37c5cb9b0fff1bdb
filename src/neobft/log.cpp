#include "neobft/log.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/assert.hpp"
#include "crypto/sha256.hpp"

namespace neo::neobft {

const LogEntry& Log::at(std::uint64_t slot) const {
    NEO_ASSERT_MSG(has(slot), "log slot out of range");
    return entries_[slot - base_ - 1];
}

LogEntry& Log::at(std::uint64_t slot) {
    NEO_ASSERT_MSG(has(slot), "log slot out of range");
    return entries_[slot - base_ - 1];
}

Digest32 Log::entry_digest(const LogEntry& e, std::uint64_t slot) {
    if (e.noop()) {
        Writer w(24);
        w.str("neobft-noop");
        w.u64(slot);
        return crypto::sha256(w.bytes());
    }
    return e.oc().digest;
}

void Log::append(LogEntry entry) {
    std::uint64_t slot = size() + 1;
    Digest32 prev = hash_at(slot - 1);
    Digest32 d = entry_digest(entry, slot);
    entry.cum_hash = crypto::sha256_pair(BytesView(prev.data(), prev.size()),
                                         BytesView(d.data(), d.size()));
    entries_.push_back(std::move(entry));
}

void Log::replace(std::uint64_t slot, LogEntry entry) {
    NEO_ASSERT(has(slot));
    entries_[slot - base_ - 1] = std::move(entry);
    rechain_from(slot);
}

void Log::rechain_from(std::uint64_t slot) {
    for (std::uint64_t s = std::max(slot, base_ + 1); s <= size(); ++s) {
        Digest32 prev = hash_at(s - 1);
        Digest32 d = entry_digest(entries_[s - base_ - 1], s);
        entries_[s - base_ - 1].cum_hash = crypto::sha256_pair(
            BytesView(prev.data(), prev.size()), BytesView(d.data(), d.size()));
    }
}

Digest32 Log::hash_at(std::uint64_t slot) const {
    if (slot == 0) return Digest32{};
    if (slot == base_) return base_hash_;
    NEO_ASSERT(has(slot));
    return entries_[slot - base_ - 1].cum_hash;
}

void Log::truncate_to(std::uint64_t slot) {
    NEO_ASSERT(slot <= size());
    NEO_ASSERT_MSG(slot >= base_, "truncate below stable checkpoint");
    entries_.resize(slot - base_);
}

void Log::gc_prefix(std::uint64_t slot) {
    if (slot <= base_) return;
    NEO_ASSERT_MSG(slot <= size(), "gc past log end");
    base_hash_ = hash_at(slot);
    entries_.erase(entries_.begin(),
                   entries_.begin() + static_cast<std::ptrdiff_t>(slot - base_));
    base_ = slot;
}

void Log::reset_base(std::uint64_t slot, const Digest32& hash) {
    entries_.clear();
    base_ = slot;
    base_hash_ = hash;
}

WireLogEntry Log::wire_entry(std::uint64_t slot) const {
    const LogEntry& e = at(slot);
    WireLogEntry w;
    w.noop = e.noop();
    if (w.noop) {
        w.gap_cert = e.gap_cert();
    } else {
        w.oc = e.oc();
    }
    return w;
}

namespace {

/// Counts distinct in-group signers whose signature over `body(replica)`
/// verifies; returns true once `need` are found.
template <typename BodyFn>
bool quorum_valid(const std::vector<SignerSig>& sigs, std::size_t need, const Config& cfg,
                  crypto::NodeCrypto& crypto, BodyFn body) {
    std::unordered_set<NodeId> seen;
    std::size_t valid = 0;
    for (const auto& s : sigs) {
        if (!cfg.is_replica(s.replica)) continue;
        if (!seen.insert(s.replica).second) continue;
        if (!crypto.verify(s.replica, body(s.replica), s.signature)) continue;
        if (++valid >= need) return true;
    }
    return false;
}

}  // namespace

bool verify_gap_certificate(const GapCertificate& cert, const Config& cfg,
                            crypto::NodeCrypto& crypto) {
    return quorum_valid(cert.commits, cfg.quorum(), cfg, crypto, [&](NodeId replica) {
        GapCommit c;
        c.view = cert.view;
        c.replica = replica;
        c.slot = cert.slot;
        c.recv = cert.recv;
        return c.signed_body();
    });
}

bool verify_epoch_certificate(const EpochCertificate& cert, const Config& cfg,
                              crypto::NodeCrypto& crypto) {
    return quorum_valid(cert.sigs, cfg.quorum(), cfg, crypto, [&](NodeId replica) {
        EpochStart e;
        e.epoch = cert.epoch;
        e.replica = replica;
        e.slot = cert.slot;
        return e.signed_body();
    });
}

bool verify_sync_certificate(const SyncCertificate& cert, const Config& cfg,
                             crypto::NodeCrypto& crypto) {
    return quorum_valid(cert.sigs, cfg.quorum(), cfg, crypto, [&](NodeId replica) {
        SyncMsg m;
        m.view = cert.view;
        m.replica = replica;
        m.slot = cert.slot;
        m.log_hash = cert.log_hash;
        // The signed body covers the app-state root too; leaving it out
        // rejects every certificate taken with checkpointing enabled.
        m.app_hash = cert.app_hash;
        return m.signed_body();
    });
}

}  // namespace neo::neobft
