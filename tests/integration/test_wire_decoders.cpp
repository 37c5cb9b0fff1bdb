// Every field-list wire type against malformed input: one typed test per
// property, one populated sample (or a few, where a flag picks the shape)
// per type.
//
//  - Round trip: decode(encode(x)) re-encodes to the same bytes.
//  - Every strict prefix is rejected (CodecError; nullopt for the KV
//    parsers).
//  - Every count and length field set to its cap + 1 and to the largest
//    value its width holds is rejected by its cap check.
//  - Seeded byte mutations only ever throw CodecError, and a mutant that
//    decodes re-encodes to exactly its own bytes: each field list reads
//    exactly what it writes.
#include <gtest/gtest.h>

#include <concepts>
#include <optional>
#include <string>
#include <vector>

#include "aom/cert.hpp"
#include "aom/wire.hpp"
#include "apps/kvstore.hpp"
#include "baselines/common.hpp"
#include "baselines/hotstuff.hpp"
#include "baselines/minbft.hpp"
#include "baselines/pbft.hpp"
#include "baselines/zyzzyva.hpp"
#include "common/rng.hpp"
#include "neobft/messages.hpp"

namespace neo {
namespace {

Digest32 d32(std::uint8_t fill) {
    Digest32 d;
    d.fill(fill);
    return d;
}

Bytes bytes(std::size_t n, std::uint8_t fill) { return Bytes(n, fill); }

// ------------------------------------------------------------- samples

aom::OrderingCert oc_hm() {
    aom::OrderingCert oc;
    oc.group = 7;
    oc.epoch = 2;
    oc.seq = 3;
    oc.digest = d32(0x31);
    oc.payload = to_bytes("payload");
    oc.macs = {1, 2, 3, 4};
    oc.confirms = {{1, bytes(64, 0x41)}, {2, bytes(64, 0x42)}};
    return oc;
}

aom::OrderingCert oc_pk() {
    aom::OrderingCert oc;
    oc.variant = aom::AuthVariant::kPublicKey;
    oc.group = 1;
    oc.epoch = 4;
    oc.seq = 9;
    oc.digest = d32(0x32);
    oc.payload = to_bytes("pk payload");
    oc.chain = {{9, d32(0x33), d32(0x34)}, {10, d32(0x35), d32(0x36)}};
    oc.signature = bytes(64, 0x37);
    return oc;
}

std::vector<crypto::SignerSig> quorum() {
    return {{0, bytes(64, 0x50)}, {1, bytes(64, 0x51)}, {2, bytes(64, 0x52)}};
}

neobft::GapCertificate gap_cert(bool recv) {
    neobft::GapCertificate c;
    c.view = {2, 1};
    c.slot = 12;
    c.recv = recv;
    c.commits = quorum();
    return c;
}

neobft::SyncCertificate sync_cert() {
    neobft::SyncCertificate c;
    c.view = {2, 1};
    c.slot = 64;
    c.log_hash = d32(0x60);
    c.app_hash = d32(0x61);
    c.sigs = quorum();
    return c;
}

neobft::GapDrop gap_drop(NodeId replica) {
    neobft::GapDrop m;
    m.view = {2, 1};
    m.replica = replica;
    m.slot = 12;
    m.signature = bytes(64, static_cast<std::uint8_t>(0x70 + replica));
    return m;
}

neobft::ViewChange view_change() {
    neobft::ViewChange m;
    m.new_view = {3, 0};
    m.replica = 2;
    m.sync_cert = sync_cert();
    m.epochs = {{3, 65, {3, 64, quorum()}}};
    m.suffix_base = 64;
    neobft::WireLogEntry request;
    request.oc = oc_hm();
    neobft::WireLogEntry noop;
    noop.noop = true;
    noop.gap_cert = gap_cert(false);
    m.suffix = {request, noop};
    m.signature = bytes(64, 0x80);
    return m;
}

std::vector<baselines::Request> batch() {
    std::vector<baselines::Request> out;
    for (std::uint64_t i = 1; i <= 3; ++i) {
        baselines::Request r;
        r.client = static_cast<NodeId>(100 + i);
        r.request_id = i;
        r.op = to_bytes("op" + std::to_string(i));
        r.mac = bytes(8, static_cast<std::uint8_t>(i));
        out.push_back(r);
    }
    return out;
}

app::KvOp kv_op(app::KvOpType type, const char* key, const char* value = "") {
    app::KvOp op;
    op.type = type;
    op.key = to_bytes(key);
    op.value = to_bytes(value);
    return op;
}

template <class T>
std::vector<T> samples();

template <>
std::vector<aom::DataPacket> samples() {
    aom::DataPacket m;
    m.group = 3;
    m.digest = d32(0x01);
    m.payload = to_bytes("data");
    return {m};
}

template <>
std::vector<aom::HmPacket> samples() {
    aom::HmPacket m;
    m.group = 1;
    m.epoch = 2;
    m.seq = 3;
    m.digest = d32(0x02);
    m.subgroup = 1;
    m.n_subgroups = 2;
    m.macs = {5, 6, 7, 8};
    m.payload = to_bytes("hm payload");
    return {m};
}

template <>
std::vector<aom::ConfirmPacket> samples() {
    aom::ConfirmPacket m;
    m.sender = 11;
    m.group = 1;
    m.epoch = 2;
    m.entries = {{3, d32(0x03), bytes(64, 0x04)}, {4, d32(0x05), bytes(64, 0x06)}};
    return {m};
}

template <>
std::vector<aom::FailoverRequest> samples() {
    aom::FailoverRequest m;
    m.sender = 12;
    m.group = 1;
    m.next_epoch = 3;
    return {m};
}

template <>
std::vector<aom::NewEpochAnnouncement> samples() {
    aom::NewEpochAnnouncement m;
    m.group = 1;
    m.epoch = 3;
    m.sequencer = 501;
    return {m};
}

template <>
std::vector<aom::OrderingCert> samples() {
    return {oc_hm(), oc_pk()};
}

template <>
std::vector<crypto::SignerSig> samples() {
    return {quorum()[1]};
}

template <>
std::vector<neobft::Request> samples() {
    neobft::Request m;
    m.client = 400;
    m.request_id = 17;
    m.op = to_bytes("put k v");
    m.signature = bytes(64, 0x10);
    return {m};
}

template <>
std::vector<neobft::Reply> samples() {
    neobft::Reply m;
    m.view = {2, 1};
    m.replica = 3;
    m.slot = 99;
    m.log_hash = d32(0x11);
    m.request_id = 5;
    m.result = to_bytes("ok");
    m.mac = bytes(8, 0x12);
    return {m};
}

template <>
std::vector<neobft::Query> samples() {
    neobft::Query m;
    m.view = {2, 1};
    m.slot = 7;
    return {m};
}

template <>
std::vector<neobft::QueryReply> samples() {
    neobft::QueryReply m;
    m.view = {2, 1};
    m.slot = 7;
    m.oc = oc_pk();
    return {m};
}

template <>
std::vector<neobft::GapFind> samples() {
    neobft::GapFind m;
    m.view = {2, 1};
    m.slot = 12;
    m.signature = bytes(64, 0x13);
    return {m};
}

template <>
std::vector<neobft::GapRecv> samples() {
    neobft::GapRecv m;
    m.view = {2, 1};
    m.slot = 12;
    m.oc = oc_hm();
    return {m};
}

template <>
std::vector<neobft::GapDrop> samples() {
    return {gap_drop(1)};
}

template <>
std::vector<neobft::GapDecision> samples() {
    neobft::GapDecision recv;
    recv.view = {2, 1};
    recv.slot = 12;
    recv.recv = true;
    recv.oc = oc_hm();
    recv.signature = bytes(64, 0x14);
    neobft::GapDecision drop = recv;
    drop.recv = false;
    drop.oc.reset();
    drop.drops = {gap_drop(0), gap_drop(1), gap_drop(2)};
    return {recv, drop};
}

template <>
std::vector<neobft::GapPrepare> samples() {
    neobft::GapPrepare m;
    m.view = {2, 1};
    m.replica = 2;
    m.slot = 12;
    m.recv = true;
    m.signature = bytes(64, 0x15);
    return {m};
}

template <>
std::vector<neobft::GapCommit> samples() {
    neobft::GapCommit m;
    m.view = {2, 1};
    m.replica = 3;
    m.slot = 12;
    m.signature = bytes(64, 0x16);
    return {m};
}

template <>
std::vector<neobft::GapCertificate> samples() {
    return {gap_cert(true), gap_cert(false)};
}

template <>
std::vector<neobft::GapCertReply> samples() {
    neobft::GapCertReply recv;
    recv.view = {2, 1};
    recv.slot = 12;
    recv.cert = gap_cert(true);
    recv.oc = oc_hm();
    neobft::GapCertReply drop;
    drop.view = {2, 1};
    drop.slot = 13;
    drop.cert = gap_cert(false);
    return {recv, drop};
}

template <>
std::vector<neobft::SyncMsg> samples() {
    neobft::SyncMsg m;
    m.view = {2, 1};
    m.replica = 1;
    m.slot = 64;
    m.log_hash = d32(0x17);
    m.app_hash = d32(0x18);
    m.drops = {gap_cert(false)};
    m.signature = bytes(64, 0x19);
    return {m};
}

template <>
std::vector<neobft::SyncCertificate> samples() {
    return {sync_cert()};
}

template <>
std::vector<neobft::EpochStart> samples() {
    neobft::EpochStart m;
    m.epoch = 3;
    m.replica = 1;
    m.slot = 70;
    m.signature = bytes(64, 0x1a);
    return {m};
}

template <>
std::vector<neobft::EpochCertificate> samples() {
    neobft::EpochCertificate m;
    m.epoch = 3;
    m.slot = 70;
    m.sigs = quorum();
    return {m};
}

template <>
std::vector<neobft::WireLogEntry> samples() {
    return {view_change().suffix[0], view_change().suffix[1]};
}

template <>
std::vector<neobft::ViewChange> samples() {
    return {view_change()};
}

template <>
std::vector<neobft::ViewStart> samples() {
    neobft::ViewStart m;
    m.new_view = {3, 0};
    m.msgs = {view_change()};
    m.signature = bytes(64, 0x1b);
    return {m};
}

template <>
std::vector<neobft::Ping> samples() {
    neobft::Ping m;
    m.view = {2, 1};
    m.nonce = 77;
    return {m};
}

template <>
std::vector<neobft::Pong> samples() {
    neobft::Pong m;
    m.view = {2, 1};
    m.nonce = 78;
    return {m};
}

template <>
std::vector<neobft::StateReq> samples() {
    neobft::StateReq m;
    m.from_slot = 5;
    m.to_slot = 10;
    return {m};
}

template <>
std::vector<neobft::StateReply> samples() {
    neobft::StateReply m;
    m.base_slot = 64;
    m.entries = view_change().suffix;
    return {m};
}

template <>
std::vector<neobft::CkptReq> samples() {
    neobft::CkptReq m;
    m.min_slot = 128;
    return {m};
}

template <>
std::vector<neobft::CkptMeta> samples() {
    neobft::CkptMeta m;
    m.slot = 128;
    m.n_chunks = 4;
    m.chunk_size = 4096;
    m.cert = sync_cert();
    return {m};
}

template <>
std::vector<neobft::CkptChunkReq> samples() {
    neobft::CkptChunkReq m;
    m.slot = 128;
    m.index = 2;
    return {m};
}

template <>
std::vector<neobft::CkptChunk> samples() {
    neobft::CkptChunk m;
    m.slot = 128;
    m.index = 2;
    m.n_chunks = 4;
    m.chunk = to_bytes("chunk bytes");
    m.siblings = {d32(0x1c), d32(0x1d)};
    return {m};
}

template <>
std::vector<baselines::Request> samples() {
    return {batch()[0]};
}

template <>
std::vector<baselines::Reply> samples() {
    baselines::Reply m;
    m.view = 1;
    m.replica = 2;
    m.request_id = 3;
    m.result = to_bytes("result");
    m.mac = bytes(8, 0x20);
    return {m};
}

template <>
std::vector<baselines::PrePrepare> samples() {
    baselines::PrePrepare m;
    m.view = 1;
    m.seq = 2;
    m.digest = d32(0x21);
    m.batch = batch();
    m.signature = bytes(64, 0x22);
    return {m};
}

template <>
std::vector<baselines::Prepare> samples() {
    baselines::Prepare m;
    m.view = 1;
    m.seq = 2;
    m.digest = d32(0x23);
    m.replica = 3;
    m.signature = bytes(64, 0x24);
    return {m};
}

template <>
std::vector<baselines::Commit> samples() {
    baselines::Commit m;
    m.view = 1;
    m.seq = 2;
    m.digest = d32(0x25);
    m.replica = 3;
    m.signature = bytes(64, 0x26);
    return {m};
}

template <>
std::vector<baselines::Checkpoint> samples() {
    baselines::Checkpoint m;
    m.seq = 128;
    m.replica = 2;
    m.signature = bytes(64, 0x27);
    return {m};
}

template <>
std::vector<baselines::OrderReq> samples() {
    baselines::OrderReq m;
    m.view = 1;
    m.seq = 2;
    m.history = d32(0x28);
    m.digest = d32(0x29);
    m.batch = batch();
    m.signature = bytes(64, 0x2a);
    return {m};
}

template <>
std::vector<baselines::SpecResponse> samples() {
    baselines::SpecResponse m;
    m.view = 1;
    m.seq = 2;
    m.history = d32(0x2b);
    m.replica = 3;
    m.request_id = 4;
    m.result = to_bytes("spec");
    m.mac = bytes(8, 0x2c);
    return {m};
}

template <>
std::vector<baselines::CommitCert> samples() {
    baselines::CommitCert m;
    m.view = 1;
    m.seq = 2;
    m.history = d32(0x2d);
    m.request_id = 4;
    return {m};
}

template <>
std::vector<baselines::LocalCommit> samples() {
    baselines::LocalCommit m;
    m.view = 1;
    m.seq = 2;
    m.replica = 3;
    m.request_id = 4;
    m.mac = bytes(8, 0x2e);
    return {m};
}

template <>
std::vector<baselines::HsProposal> samples() {
    baselines::HsProposal prepare;
    prepare.view = 1;
    prepare.seq = 2;
    prepare.digest = d32(0x2f);
    prepare.batch = batch();
    prepare.signature = bytes(64, 0x30);
    baselines::HsProposal commit = prepare;
    commit.phase = 2;
    commit.batch.clear();
    commit.qc = quorum();
    return {prepare, commit};
}

template <>
std::vector<baselines::HsVote> samples() {
    baselines::HsVote m;
    m.phase = 1;
    m.view = 1;
    m.seq = 2;
    m.digest = d32(0x31);
    m.replica = 3;
    m.signature = bytes(64, 0x32);
    return {m};
}

template <>
std::vector<baselines::MbPrepare> samples() {
    baselines::MbPrepare m;
    m.view = 1;
    m.seq = 2;
    m.batch = batch();
    m.ui.counter = 5;
    m.ui.tag = bytes(32, 0x33);
    return {m};
}

template <>
std::vector<baselines::MbCommit> samples() {
    baselines::MbCommit m;
    m.view = 1;
    m.seq = 2;
    m.digest = d32(0x34);
    m.replica = 3;
    m.ui.counter = 6;
    m.ui.tag = bytes(32, 0x35);
    return {m};
}

template <>
std::vector<baselines::UnrepRequest> samples() {
    baselines::UnrepRequest m;
    m.request_id = 7;
    m.op = to_bytes("echo");
    m.mac = bytes(8, 0x36);
    return {m};
}

template <>
std::vector<baselines::UnrepReply> samples() {
    baselines::UnrepReply m;
    m.request_id = 7;
    m.result = to_bytes("echo");
    m.mac = bytes(8, 0x37);
    return {m};
}

template <>
std::vector<app::KvOp> samples() {
    return {kv_op(app::KvOpType::kGet, "k"), kv_op(app::KvOpType::kPut, "k", "v")};
}

template <>
std::vector<app::KvTxnOp> samples() {
    app::KvTxnOp local;
    local.ops = {kv_op(app::KvOpType::kPut, "a", "1"), kv_op(app::KvOpType::kGet, "b"),
                 kv_op(app::KvOpType::kDelete, "c")};
    app::KvTxnOp prepare = local;
    prepare.type = app::KvOpType::kTxnPrepare;
    prepare.txn_id = 42;
    app::KvTxnOp commit;
    commit.type = app::KvOpType::kTxnCommit;
    commit.txn_id = 42;
    return {local, prepare, commit};
}

template <>
std::vector<app::KvResult> samples() {
    app::KvResult m;
    m.status = app::KvStatus::kTxnPrepared;
    m.value = to_bytes("value");
    return {m};
}

// ------------------------------------------ where the counts and lengths sit

/// A u32 length or count (or the u8 MAC count) in an encoding, with the
/// cap its decoder enforces.
struct Prefix {
    std::size_t offset;
    std::size_t width;
    std::size_t cap;
};

/// Walks a field list as the encoder does, recording the offset of every
/// count and length prefix instead of writing bytes.
class Locator {
  public:
    std::size_t pos = 0;
    std::vector<Prefix> prefixes;

    static constexpr bool on_wire() { return true; }

    template <class... Fs>
    void operator()(const Fs&... fs) {
        (field(fs), ...);
    }
    void blob(const Bytes& b, std::size_t max) {
        prefix(4, max);
        pos += b.size();
    }
    void auth(const Bytes& b, std::size_t max) { blob(b, max); }
    template <class Count = std::uint32_t, class T>
    void list(const std::vector<T>& v, std::size_t max) {
        prefix(sizeof(Count), max);
        for (const T& x : v) field(x);
    }
    template <class T>
    void framed(const T& x) {
        prefix(4, Reader::kDefaultMaxBlob);
        message(x);
    }
    template <class T>
    void framed(const std::optional<T>& x) {
        framed(*x);
    }
    template <class T>
    void framed(const std::vector<T>& v, std::size_t max,
                std::size_t max_each = Reader::kDefaultMaxBlob) {
        prefix(4, max);
        for (const T& x : v) {
            prefix(4, max_each);
            message(x);
        }
    }
    void check(bool, const char*) {}

    template <class T>
    void message(const T& m) {
        if constexpr (wire::HasKind<T>) pos += 1;
        T::fields(*this, m);
    }

  private:
    void prefix(std::size_t width, std::size_t cap) {
        prefixes.push_back({pos, width, cap});
        pos += width;
    }
    void field(std::uint8_t) { pos += 1; }
    void field(std::uint32_t) { pos += 4; }
    void field(std::uint64_t) { pos += 8; }
    void field(bool) { pos += 1; }
    void field(const Digest32&) { pos += 32; }
    template <class E>
        requires std::is_enum_v<E>
    void field(E) {
        pos += 1;
    }
    template <wire::HasFields T>
    void field(const T& x) {
        T::fields(*this, x);
    }
};

void put_le(Bytes& b, const Prefix& p, std::uint64_t v) {
    for (std::size_t i = 0; i < p.width; ++i) b[p.offset + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// The KV types keep nullopt-returning parsers (Byzantine client ops).
template <class T>
constexpr bool kOptionalParser = requires(BytesView b) {
    { T::parse(b) } -> std::same_as<std::optional<T>>;
};

// --------------------------------------------------------------- the tests

template <class T>
class WireDecoders : public ::testing::Test {};

using Types = ::testing::Types<
    aom::DataPacket, aom::HmPacket, aom::ConfirmPacket, aom::FailoverRequest,
    aom::NewEpochAnnouncement, aom::OrderingCert, crypto::SignerSig, neobft::Request,
    neobft::Reply, neobft::Query, neobft::QueryReply, neobft::GapFind, neobft::GapRecv,
    neobft::GapDrop, neobft::GapDecision, neobft::GapPrepare, neobft::GapCommit,
    neobft::GapCertificate, neobft::GapCertReply, neobft::SyncMsg, neobft::SyncCertificate,
    neobft::EpochStart, neobft::EpochCertificate, neobft::WireLogEntry, neobft::ViewChange,
    neobft::ViewStart, neobft::Ping, neobft::Pong, neobft::StateReq, neobft::StateReply,
    neobft::CkptReq, neobft::CkptMeta, neobft::CkptChunkReq, neobft::CkptChunk,
    baselines::Request, baselines::Reply, baselines::PrePrepare, baselines::Prepare,
    baselines::Commit, baselines::Checkpoint, baselines::OrderReq, baselines::SpecResponse,
    baselines::CommitCert, baselines::LocalCommit, baselines::HsProposal, baselines::HsVote,
    baselines::MbPrepare, baselines::MbCommit, baselines::UnrepRequest, baselines::UnrepReply,
    app::KvOp, app::KvTxnOp, app::KvResult>;

/// "neobft_GapDecision" for neo::neobft::GapDecision; a template shared by
/// several kinds is named by its kind ("neobft_SlotCert_query_reply").
class TypeNames {
  public:
    template <class T>
    static std::string GetName(int) {
        std::string name = ::testing::internal::GetTypeName<T>();
        name.erase(0, name.find("::") + 2);  // "neo::"
        if (const auto lt = name.find('<'); lt != std::string::npos) {
            name.erase(lt);
            if constexpr (wire::HasKind<T>) {
                const auto k = static_cast<std::uint8_t>(T::kKind);
                const char* kind = baselines::kind_name(k);
                name += std::string("_") + (kind != nullptr ? kind : neobft::msg_kind_name(k));
            }
        }
        name.replace(name.find("::"), 2, "_");
        return name;
    }
};

TYPED_TEST_SUITE(WireDecoders, Types, TypeNames);

TYPED_TEST(WireDecoders, RoundTripsByteForByte) {
    for (const TypeParam& m : samples<TypeParam>()) {
        const Bytes wire = wire::encode(m);
        EXPECT_EQ(wire.size(), wire::size(m));
        EXPECT_EQ(wire::encode(wire::decode<TypeParam>(wire)), wire);
    }
}

TYPED_TEST(WireDecoders, EveryStrictPrefixRejected) {
    for (const TypeParam& m : samples<TypeParam>()) {
        const Bytes wire = wire::encode(m);
        for (std::size_t cut = 0; cut < wire.size(); ++cut) {
            BytesView prefix = BytesView(wire).first(cut);
            EXPECT_THROW(wire::decode<TypeParam>(prefix), CodecError) << "cut=" << cut;
            if constexpr (kOptionalParser<TypeParam>) {
                EXPECT_FALSE(TypeParam::parse(prefix).has_value()) << "cut=" << cut;
            }
        }
    }
}

TYPED_TEST(WireDecoders, InflatedCountsAndLengthsRejected) {
    for (const TypeParam& m : samples<TypeParam>()) {
        const Bytes wire = wire::encode(m);
        Locator loc;
        loc.message(m);
        ASSERT_EQ(loc.pos, wire.size());
        for (const Prefix& p : loc.prefixes) {
            const std::uint64_t widest = p.width == 1 ? 0xff : 0xffffffffull;
            for (std::uint64_t v : {static_cast<std::uint64_t>(p.cap) + 1, widest}) {
                if (v > widest) continue;
                Bytes mutant = wire;
                put_le(mutant, p, v);
                // Rejected by the cap check itself, before anything is
                // reserved or read for the declared count.
                try {
                    wire::decode<TypeParam>(mutant);
                    ADD_FAILURE() << "accepted: offset=" << p.offset << " value=" << v;
                } catch (const CodecError& e) {
                    EXPECT_NE(std::string(e.what()).find("exceeds cap"), std::string::npos)
                        << e.what() << ": offset=" << p.offset << " value=" << v;
                }
            }
        }
    }
}

TYPED_TEST(WireDecoders, MutantsThrowCodecErrorOrReencodeExactly) {
    Rng rng(0x5eed);
    for (const TypeParam& m : samples<TypeParam>()) {
        const Bytes wire = wire::encode(m);
        for (int i = 0; i < 400; ++i) {
            Bytes mutant = wire;
            const int flips = 1 + static_cast<int>(rng.uniform(3));
            for (int f = 0; f < flips; ++f) {
                mutant[rng.uniform(mutant.size())] ^= static_cast<std::uint8_t>(1 + rng.uniform(255));
            }
            try {
                TypeParam decoded = wire::decode<TypeParam>(mutant);
                EXPECT_EQ(wire::encode(decoded), mutant) << "mutant " << i;
            } catch (const CodecError&) {
            }
        }
    }
}

}  // namespace
}  // namespace neo
