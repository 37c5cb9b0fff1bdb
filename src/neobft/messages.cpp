#include "neobft/messages.hpp"

#include "aom/wire.hpp"

namespace neo::neobft {

const char* msg_kind_name(std::uint8_t kind) {
    switch (static_cast<MsgKind>(kind)) {
        case MsgKind::kRequest: return "request";
        case MsgKind::kReply: return "reply";
        case MsgKind::kQuery: return "query";
        case MsgKind::kQueryReply: return "query_reply";
        case MsgKind::kGapFind: return "gap_find";
        case MsgKind::kGapRecv: return "gap_recv";
        case MsgKind::kGapDrop: return "gap_drop";
        case MsgKind::kGapDecision: return "gap_decision";
        case MsgKind::kGapPrepare: return "gap_prepare";
        case MsgKind::kGapCommit: return "gap_commit";
        case MsgKind::kViewChange: return "view_change";
        case MsgKind::kViewStart: return "view_start";
        case MsgKind::kEpochStart: return "epoch_start";
        case MsgKind::kSync: return "sync";
        case MsgKind::kStateReq: return "state_req";
        case MsgKind::kStateReply: return "state_reply";
        case MsgKind::kPing: return "ping";
        case MsgKind::kPong: return "pong";
        case MsgKind::kGapCertReply: return "gap_cert_reply";
        case MsgKind::kCkptReq: return "ckpt_req";
        case MsgKind::kCkptMeta: return "ckpt_meta";
        case MsgKind::kCkptChunkReq: return "ckpt_chunk_req";
        case MsgKind::kCkptChunk: return "ckpt_chunk";
        default: return aom::wire_kind_name(kind);
    }
}

namespace {
constexpr std::size_t kMaxOp = 1u << 20;
constexpr std::size_t kMaxQuorum = 512;
constexpr std::size_t kMaxSuffix = 1u << 16;

void put_digest(Writer& w, const Digest32& d) { w.raw(BytesView(d.data(), d.size())); }

void put_oc(Writer& w, const aom::OrderingCert& oc) { w.blob(oc.serialize()); }

aom::OrderingCert get_oc(Reader& r) {
    Bytes b = r.blob();
    return aom::OrderingCert::parse_bytes(b);
}
}  // namespace

void put_view(Writer& w, const ViewId& v) {
    w.u64(v.epoch);
    w.u64(v.leader);
}

ViewId get_view(Reader& r) {
    ViewId v;
    v.epoch = r.u64();
    v.leader = r.u64();
    return v;
}

// ---------------- Request ----------------

Bytes Request::signed_body() const {
    Writer w(32 + op.size());
    w.str("neobft-request");
    w.u32(client);
    w.u64(request_id);
    w.blob(op);
    return std::move(w).take();
}

Bytes Request::serialize() const {
    Writer w(48 + op.size());
    w.u8(static_cast<std::uint8_t>(MsgKind::kRequest));
    w.u32(client);
    w.u64(request_id);
    w.blob(op);
    w.blob(signature);
    return std::move(w).take();
}

Request Request::parse(Reader& r) {
    Request m;
    m.client = r.u32();
    m.request_id = r.u64();
    m.op = r.blob(kMaxOp);
    m.signature = r.blob(256);
    r.expect_end();
    return m;
}

std::optional<Request> Request::parse_payload(BytesView payload) {
    if (payload.empty() || payload[0] != static_cast<std::uint8_t>(MsgKind::kRequest)) {
        return std::nullopt;
    }
    try {
        Reader r(payload.subspan(1));
        return parse(r);
    } catch (const CodecError&) {
        return std::nullopt;
    }
}

// ---------------- Reply ----------------

Bytes Reply::mac_body() const {
    Writer w(96 + result.size());
    w.str("neobft-reply");
    put_view(w, view);
    w.u32(replica);
    w.u64(slot);
    put_digest(w, log_hash);
    w.u64(request_id);
    w.blob(result);
    return std::move(w).take();
}

Bytes Reply::serialize() const {
    Writer w(112 + result.size());
    w.u8(static_cast<std::uint8_t>(MsgKind::kReply));
    put_view(w, view);
    w.u32(replica);
    w.u64(slot);
    put_digest(w, log_hash);
    w.u64(request_id);
    w.blob(result);
    w.blob(mac);
    return std::move(w).take();
}

Reply Reply::parse(Reader& r) {
    Reply m;
    m.view = get_view(r);
    m.replica = r.u32();
    m.slot = r.u64();
    m.log_hash = r.digest32();
    m.request_id = r.u64();
    m.result = r.blob(kMaxOp);
    m.mac = r.blob(64);
    r.expect_end();
    return m;
}

// ---------------- Query / QueryReply ----------------

Bytes Query::serialize() const {
    Writer w(32);
    w.u8(static_cast<std::uint8_t>(MsgKind::kQuery));
    put_view(w, view);
    w.u64(slot);
    return std::move(w).take();
}

Query Query::parse(Reader& r) {
    Query m;
    m.view = get_view(r);
    m.slot = r.u64();
    r.expect_end();
    return m;
}

Bytes QueryReply::serialize() const {
    Writer w(64);
    w.u8(static_cast<std::uint8_t>(MsgKind::kQueryReply));
    put_view(w, view);
    w.u64(slot);
    put_oc(w, oc);
    return std::move(w).take();
}

QueryReply QueryReply::parse(Reader& r) {
    QueryReply m;
    m.view = get_view(r);
    m.slot = r.u64();
    m.oc = get_oc(r);
    r.expect_end();
    return m;
}

// ---------------- Gap agreement ----------------

Bytes GapFind::signed_body() const {
    Writer w(40);
    w.str("neobft-gap-find");
    put_view(w, view);
    w.u64(slot);
    return std::move(w).take();
}

Bytes GapFind::serialize() const {
    Writer w(48);
    w.u8(static_cast<std::uint8_t>(MsgKind::kGapFind));
    put_view(w, view);
    w.u64(slot);
    w.blob(signature);
    return std::move(w).take();
}

GapFind GapFind::parse(Reader& r) {
    GapFind m;
    m.view = get_view(r);
    m.slot = r.u64();
    m.signature = r.blob(256);
    r.expect_end();
    return m;
}

Bytes GapRecv::serialize() const {
    Writer w(64);
    w.u8(static_cast<std::uint8_t>(MsgKind::kGapRecv));
    put_view(w, view);
    w.u64(slot);
    put_oc(w, oc);
    return std::move(w).take();
}

GapRecv GapRecv::parse(Reader& r) {
    GapRecv m;
    m.view = get_view(r);
    m.slot = r.u64();
    m.oc = get_oc(r);
    r.expect_end();
    return m;
}

Bytes GapDrop::signed_body() const {
    Writer w(48);
    w.str("neobft-gap-drop");
    put_view(w, view);
    w.u32(replica);
    w.u64(slot);
    return std::move(w).take();
}

Bytes GapDrop::serialize() const {
    Writer w(56);
    w.u8(static_cast<std::uint8_t>(MsgKind::kGapDrop));
    put_view(w, view);
    w.u32(replica);
    w.u64(slot);
    w.blob(signature);
    return std::move(w).take();
}

GapDrop GapDrop::parse(Reader& r) {
    GapDrop m;
    m.view = get_view(r);
    m.replica = r.u32();
    m.slot = r.u64();
    m.signature = r.blob(256);
    r.expect_end();
    return m;
}

Bytes GapDecision::signed_body() const {
    Writer w(64);
    w.str("neobft-gap-decision");
    put_view(w, view);
    w.u64(slot);
    w.boolean(recv);
    // The decision's evidence is self-certifying; the signature binds the
    // leader to the (view, slot, outcome) triple.
    return std::move(w).take();
}

Bytes GapDecision::serialize() const {
    Writer w(128);
    w.u8(static_cast<std::uint8_t>(MsgKind::kGapDecision));
    put_view(w, view);
    w.u64(slot);
    w.boolean(recv);
    if (recv) {
        put_oc(w, *oc);
    } else {
        w.u32(static_cast<std::uint32_t>(drops.size()));
        for (const auto& d : drops) {
            Bytes b = d.serialize();
            w.blob(b);
        }
    }
    w.blob(signature);
    return std::move(w).take();
}

GapDecision GapDecision::parse(Reader& r) {
    GapDecision m;
    m.view = get_view(r);
    m.slot = r.u64();
    m.recv = r.boolean();
    if (m.recv) {
        m.oc = get_oc(r);
    } else {
        std::uint32_t n = r.u32();
        if (n > kMaxQuorum) throw CodecError("oversized drop set");
        for (std::uint32_t i = 0; i < n; ++i) {
            Bytes b = r.blob();
            Reader dr(b);
            if (dr.u8() != static_cast<std::uint8_t>(MsgKind::kGapDrop)) {
                throw CodecError("expected gap-drop");
            }
            m.drops.push_back(GapDrop::parse(dr));
        }
    }
    m.signature = r.blob(256);
    r.expect_end();
    return m;
}

namespace {
Bytes gap_vote_body(std::string_view tag, const ViewId& view, NodeId replica, std::uint64_t slot,
                    bool recv) {
    Writer w(56);
    w.str(tag);
    put_view(w, view);
    w.u32(replica);
    w.u64(slot);
    w.boolean(recv);
    return std::move(w).take();
}

template <typename T>
Bytes gap_vote_serialize(MsgKind kind, const T& m) {
    Writer w(64);
    w.u8(static_cast<std::uint8_t>(kind));
    put_view(w, m.view);
    w.u32(m.replica);
    w.u64(m.slot);
    w.boolean(m.recv);
    w.blob(m.signature);
    return std::move(w).take();
}

template <typename T>
T gap_vote_parse(Reader& r) {
    T m;
    m.view = get_view(r);
    m.replica = r.u32();
    m.slot = r.u64();
    m.recv = r.boolean();
    m.signature = r.blob(256);
    r.expect_end();
    return m;
}
}  // namespace

Bytes GapPrepare::signed_body() const {
    return gap_vote_body("neobft-gap-prepare", view, replica, slot, recv);
}
Bytes GapPrepare::serialize() const { return gap_vote_serialize(MsgKind::kGapPrepare, *this); }
GapPrepare GapPrepare::parse(Reader& r) { return gap_vote_parse<GapPrepare>(r); }

Bytes GapCommit::signed_body() const {
    return gap_vote_body("neobft-gap-commit", view, replica, slot, recv);
}
Bytes GapCommit::serialize() const { return gap_vote_serialize(MsgKind::kGapCommit, *this); }
GapCommit GapCommit::parse(Reader& r) { return gap_vote_parse<GapCommit>(r); }

void GapCertificate::put(Writer& w) const {
    put_view(w, view);
    w.u64(slot);
    w.boolean(recv);
    put_signer_sigs(w, commits);
}

GapCertificate GapCertificate::get(Reader& r) {
    GapCertificate c;
    c.view = get_view(r);
    c.slot = r.u64();
    c.recv = r.boolean();
    c.commits = get_signer_sigs(r);
    return c;
}

Bytes GapCertReply::serialize() const {
    Writer w(256);
    w.u8(static_cast<std::uint8_t>(MsgKind::kGapCertReply));
    put_view(w, view);
    w.u64(slot);
    cert.put(w);
    w.boolean(oc.has_value());
    if (oc.has_value()) put_oc(w, *oc);
    return std::move(w).take();
}

GapCertReply GapCertReply::parse(Reader& r) {
    GapCertReply m;
    m.view = get_view(r);
    m.slot = r.u64();
    m.cert = GapCertificate::get(r);
    if (r.boolean()) m.oc = get_oc(r);
    r.expect_end();
    return m;
}

// ---------------- Sync ----------------

Bytes SyncMsg::signed_body() const {
    Writer w(120);
    w.str("neobft-sync");
    put_view(w, view);
    w.u32(replica);
    w.u64(slot);
    put_digest(w, log_hash);
    put_digest(w, app_hash);
    return std::move(w).take();
}

Bytes SyncMsg::serialize() const {
    Writer w(192);
    w.u8(static_cast<std::uint8_t>(MsgKind::kSync));
    put_view(w, view);
    w.u32(replica);
    w.u64(slot);
    put_digest(w, log_hash);
    put_digest(w, app_hash);
    w.u32(static_cast<std::uint32_t>(drops.size()));
    for (const auto& d : drops) d.put(w);
    w.blob(signature);
    return std::move(w).take();
}

SyncMsg SyncMsg::parse(Reader& r) {
    SyncMsg m;
    m.view = get_view(r);
    m.replica = r.u32();
    m.slot = r.u64();
    m.log_hash = r.digest32();
    m.app_hash = r.digest32();
    std::uint32_t n = r.u32();
    if (n > kMaxQuorum) throw CodecError("oversized drop list");
    for (std::uint32_t i = 0; i < n; ++i) m.drops.push_back(GapCertificate::get(r));
    m.signature = r.blob(256);
    r.expect_end();
    return m;
}

void SyncCertificate::put(Writer& w) const {
    put_view(w, view);
    w.u64(slot);
    put_digest(w, log_hash);
    put_digest(w, app_hash);
    put_signer_sigs(w, sigs);
}

SyncCertificate SyncCertificate::get(Reader& r) {
    SyncCertificate c;
    c.view = get_view(r);
    c.slot = r.u64();
    c.log_hash = r.digest32();
    c.app_hash = r.digest32();
    c.sigs = get_signer_sigs(r);
    return c;
}

// ---------------- Epoch / view change ----------------

Bytes EpochStart::signed_body() const {
    Writer w(48);
    w.str("neobft-epoch-start");
    w.u64(epoch);
    w.u32(replica);
    w.u64(slot);
    return std::move(w).take();
}

Bytes EpochStart::serialize() const {
    Writer w(56);
    w.u8(static_cast<std::uint8_t>(MsgKind::kEpochStart));
    w.u64(epoch);
    w.u32(replica);
    w.u64(slot);
    w.blob(signature);
    return std::move(w).take();
}

EpochStart EpochStart::parse(Reader& r) {
    EpochStart m;
    m.epoch = r.u64();
    m.replica = r.u32();
    m.slot = r.u64();
    m.signature = r.blob(256);
    r.expect_end();
    return m;
}

void EpochCertificate::put(Writer& w) const {
    w.u64(epoch);
    w.u64(slot);
    put_signer_sigs(w, sigs);
}

EpochCertificate EpochCertificate::get(Reader& r) {
    EpochCertificate c;
    c.epoch = r.u64();
    c.slot = r.u64();
    c.sigs = get_signer_sigs(r);
    return c;
}

void WireLogEntry::put(Writer& w) const {
    w.boolean(noop);
    if (noop) {
        gap_cert.put(w);
    } else {
        put_oc(w, oc);
    }
}

WireLogEntry WireLogEntry::get(Reader& r) {
    WireLogEntry e;
    e.noop = r.boolean();
    if (e.noop) {
        e.gap_cert = GapCertificate::get(r);
    } else {
        e.oc = get_oc(r);
    }
    return e;
}

Bytes ViewChange::signed_body() const {
    // Sign a digest-friendly rendering of the whole message (minus the
    // signature itself).
    Writer w(256);
    w.str("neobft-view-change");
    put_view(w, new_view);
    w.u32(replica);
    sync_cert.put(w);
    w.u32(static_cast<std::uint32_t>(epochs.size()));
    for (const auto& e : epochs) {
        w.u64(e.epoch);
        w.u64(e.start_slot);
        e.cert.put(w);
    }
    w.u64(suffix_base);
    w.u32(static_cast<std::uint32_t>(suffix.size()));
    for (const auto& e : suffix) e.put(w);
    return std::move(w).take();
}

Bytes ViewChange::serialize() const {
    Writer w(512);
    w.u8(static_cast<std::uint8_t>(MsgKind::kViewChange));
    put_view(w, new_view);
    w.u32(replica);
    sync_cert.put(w);
    w.u32(static_cast<std::uint32_t>(epochs.size()));
    for (const auto& e : epochs) {
        w.u64(e.epoch);
        w.u64(e.start_slot);
        e.cert.put(w);
    }
    w.u64(suffix_base);
    w.u32(static_cast<std::uint32_t>(suffix.size()));
    for (const auto& e : suffix) e.put(w);
    w.blob(signature);
    return std::move(w).take();
}

ViewChange ViewChange::parse(Reader& r) {
    ViewChange m;
    m.new_view = get_view(r);
    m.replica = r.u32();
    m.sync_cert = SyncCertificate::get(r);
    std::uint32_t ne = r.u32();
    if (ne > kMaxQuorum) throw CodecError("oversized epoch list");
    for (std::uint32_t i = 0; i < ne; ++i) {
        EpochStartInfo info;
        info.epoch = r.u64();
        info.start_slot = r.u64();
        info.cert = EpochCertificate::get(r);
        m.epochs.push_back(std::move(info));
    }
    m.suffix_base = r.u64();
    std::uint32_t ns = r.u32();
    if (ns > kMaxSuffix) throw CodecError("oversized log suffix");
    for (std::uint32_t i = 0; i < ns; ++i) m.suffix.push_back(WireLogEntry::get(r));
    m.signature = r.blob(256);
    r.expect_end();
    return m;
}

Bytes ViewStart::signed_body() const {
    Writer w(64);
    w.str("neobft-view-start");
    put_view(w, new_view);
    w.u32(static_cast<std::uint32_t>(msgs.size()));
    for (const auto& m : msgs) w.blob(m.serialize());
    return std::move(w).take();
}

Bytes ViewStart::serialize() const {
    Writer w(1024);
    w.u8(static_cast<std::uint8_t>(MsgKind::kViewStart));
    put_view(w, new_view);
    w.u32(static_cast<std::uint32_t>(msgs.size()));
    for (const auto& m : msgs) w.blob(m.serialize());
    w.blob(signature);
    return std::move(w).take();
}

ViewStart ViewStart::parse(Reader& r) {
    ViewStart m;
    m.new_view = get_view(r);
    std::uint32_t n = r.u32();
    if (n > kMaxQuorum) throw CodecError("oversized view-change set");
    for (std::uint32_t i = 0; i < n; ++i) {
        Bytes b = r.blob();
        Reader vr(b);
        if (vr.u8() != static_cast<std::uint8_t>(MsgKind::kViewChange)) {
            throw CodecError("expected view-change");
        }
        m.msgs.push_back(ViewChange::parse(vr));
    }
    m.signature = r.blob(256);
    r.expect_end();
    return m;
}

// ---------------- Leader probing ----------------

Bytes Ping::serialize() const {
    Writer w(32);
    w.u8(static_cast<std::uint8_t>(MsgKind::kPing));
    put_view(w, view);
    w.u64(nonce);
    return std::move(w).take();
}

Ping Ping::parse(Reader& r) {
    Ping m;
    m.view = get_view(r);
    m.nonce = r.u64();
    r.expect_end();
    return m;
}

Bytes Pong::serialize() const {
    Writer w(32);
    w.u8(static_cast<std::uint8_t>(MsgKind::kPong));
    put_view(w, view);
    w.u64(nonce);
    return std::move(w).take();
}

Pong Pong::parse(Reader& r) {
    Pong m;
    m.view = get_view(r);
    m.nonce = r.u64();
    r.expect_end();
    return m;
}

// ---------------- State transfer ----------------

Bytes StateReq::serialize() const {
    Writer w(24);
    w.u8(static_cast<std::uint8_t>(MsgKind::kStateReq));
    w.u64(from_slot);
    w.u64(to_slot);
    return std::move(w).take();
}

StateReq StateReq::parse(Reader& r) {
    StateReq m;
    m.from_slot = r.u64();
    m.to_slot = r.u64();
    r.expect_end();
    return m;
}

Bytes StateReply::serialize() const {
    Writer w(64);
    w.u8(static_cast<std::uint8_t>(MsgKind::kStateReply));
    w.u64(base_slot);
    w.u32(static_cast<std::uint32_t>(entries.size()));
    for (const auto& e : entries) e.put(w);
    return std::move(w).take();
}

StateReply StateReply::parse(Reader& r) {
    StateReply m;
    m.base_slot = r.u64();
    std::uint32_t n = r.u32();
    if (n > kMaxSuffix) throw CodecError("oversized state reply");
    for (std::uint32_t i = 0; i < n; ++i) m.entries.push_back(WireLogEntry::get(r));
    r.expect_end();
    return m;
}

// ---------------- Checkpoint transfer ----------------

namespace {
// 1 MiB chunks would already be generous; bound the count so a Byzantine
// meta cannot make the requester allocate an absurd chunk table.
constexpr std::uint32_t kMaxCkptChunks = 1u << 20;
constexpr std::size_t kMaxMerklePath = 64;
}  // namespace

Bytes CkptReq::serialize() const {
    Writer w(16);
    w.u8(static_cast<std::uint8_t>(MsgKind::kCkptReq));
    w.u64(min_slot);
    return std::move(w).take();
}

CkptReq CkptReq::parse(Reader& r) {
    CkptReq m;
    m.min_slot = r.u64();
    r.expect_end();
    return m;
}

Bytes CkptMeta::serialize() const {
    Writer w(256);
    w.u8(static_cast<std::uint8_t>(MsgKind::kCkptMeta));
    w.u64(slot);
    w.u32(n_chunks);
    w.u32(chunk_size);
    cert.put(w);
    return std::move(w).take();
}

CkptMeta CkptMeta::parse(Reader& r) {
    CkptMeta m;
    m.slot = r.u64();
    m.n_chunks = r.u32();
    m.chunk_size = r.u32();
    if (m.n_chunks > kMaxCkptChunks) throw CodecError("oversized chunk count");
    m.cert = SyncCertificate::get(r);
    r.expect_end();
    return m;
}

Bytes CkptChunkReq::serialize() const {
    Writer w(16);
    w.u8(static_cast<std::uint8_t>(MsgKind::kCkptChunkReq));
    w.u64(slot);
    w.u32(index);
    return std::move(w).take();
}

CkptChunkReq CkptChunkReq::parse(Reader& r) {
    CkptChunkReq m;
    m.slot = r.u64();
    m.index = r.u32();
    r.expect_end();
    return m;
}

Bytes CkptChunk::serialize() const {
    Writer w(64 + chunk.size() + 32 * siblings.size());
    w.u8(static_cast<std::uint8_t>(MsgKind::kCkptChunk));
    w.u64(slot);
    w.u32(index);
    w.u32(n_chunks);
    w.blob(chunk);
    w.u32(static_cast<std::uint32_t>(siblings.size()));
    for (const auto& d : siblings) put_digest(w, d);
    return std::move(w).take();
}

CkptChunk CkptChunk::parse(Reader& r) {
    CkptChunk m;
    m.slot = r.u64();
    m.index = r.u32();
    m.n_chunks = r.u32();
    if (m.n_chunks > kMaxCkptChunks) throw CodecError("oversized chunk count");
    m.chunk = r.blob(kMaxOp);
    std::uint32_t n = r.u32();
    if (n > kMaxMerklePath) throw CodecError("oversized merkle path");
    for (std::uint32_t i = 0; i < n; ++i) m.siblings.push_back(r.digest32());
    r.expect_end();
    return m;
}

}  // namespace neo::neobft
