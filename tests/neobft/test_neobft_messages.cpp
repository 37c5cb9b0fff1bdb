// Wire round trips and malformed-input rejection for NeoBFT messages.
#include "neobft/messages.hpp"

#include <gtest/gtest.h>

#include "crypto/sha256.hpp"

namespace neo::neobft {
namespace {

template <typename T>
T reparse(const T& msg) {
    Bytes wire = msg.serialize();
    Reader r(BytesView(wire).subspan(1));
    return T::parse(r);
}

Digest32 d32(std::uint8_t fill) {
    Digest32 d;
    d.fill(fill);
    return d;
}

aom::OrderingCert sample_oc() {
    aom::OrderingCert oc;
    oc.variant = aom::AuthVariant::kHmacVector;
    oc.group = 7;
    oc.epoch = 1;
    oc.seq = 3;
    oc.payload = to_bytes("payload");
    oc.digest = crypto::sha256(oc.payload);
    oc.macs = {1, 2, 3, 4};
    return oc;
}

TEST(NeoMessages, ViewIdOrdering) {
    EXPECT_LT((ViewId{1, 0}), (ViewId{1, 1}));
    EXPECT_LT((ViewId{1, 5}), (ViewId{2, 0}));
    EXPECT_EQ((ViewId{2, 3}), (ViewId{2, 3}));
}

TEST(NeoMessages, RequestRoundTrip) {
    Request m;
    m.client = 400;
    m.request_id = 17;
    m.op = to_bytes("put k v");
    m.signature = Bytes(64, 0xaa);
    Request q = reparse(m);
    EXPECT_EQ(q.client, 400u);
    EXPECT_EQ(q.request_id, 17u);
    EXPECT_EQ(q.op, m.op);
    EXPECT_EQ(q.signature, m.signature);
}

TEST(NeoMessages, RequestSignedBodyExcludesSignature) {
    Request a;
    a.client = 1;
    a.request_id = 2;
    a.op = to_bytes("x");
    a.signature = Bytes(64, 0x01);
    Request b = a;
    b.signature = Bytes(64, 0x02);
    EXPECT_EQ(a.signed_body(), b.signed_body());
}

TEST(NeoMessages, RequestParsePayload) {
    Request m;
    m.client = 4;
    m.op = to_bytes("op");
    Bytes wire = m.serialize();
    auto parsed = Request::parse_payload(wire);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->client, 4u);

    EXPECT_FALSE(Request::parse_payload({}).has_value());
    Bytes junk{0x21, 0x00};
    EXPECT_FALSE(Request::parse_payload(junk).has_value());
    wire.pop_back();
    EXPECT_FALSE(Request::parse_payload(wire).has_value());
}

TEST(NeoMessages, ReplyRoundTrip) {
    Reply m;
    m.view = {2, 1};
    m.replica = 3;
    m.slot = 99;
    m.log_hash = d32(0x11);
    m.request_id = 5;
    m.result = to_bytes("ok");
    m.mac = Bytes(8, 0xbb);
    Reply q = reparse(m);
    EXPECT_EQ(q.view, m.view);
    EXPECT_EQ(q.slot, 99u);
    EXPECT_EQ(q.log_hash, m.log_hash);
    EXPECT_EQ(q.result, m.result);
    EXPECT_EQ(q.mac, m.mac);
}

TEST(NeoMessages, GapMessagesRoundTrip) {
    Query query{{}, {1, 0}, 7};
    Query q2 = reparse(query);
    EXPECT_EQ(q2.slot, 7u);

    QueryReply qr;
    qr.view = {1, 0};
    qr.slot = 7;
    qr.oc = sample_oc();
    QueryReply qr2 = reparse(qr);
    EXPECT_EQ(qr2.oc.seq, 3u);
    EXPECT_EQ(qr2.oc.macs, qr.oc.macs);

    GapFind gf;
    gf.view = {1, 2};
    gf.slot = 9;
    gf.signature = Bytes(64, 1);
    GapFind gf2 = reparse(gf);
    EXPECT_EQ(gf2.view.leader, 2u);

    GapDrop gd;
    gd.view = {1, 0};
    gd.replica = 2;
    gd.slot = 9;
    gd.signature = Bytes(64, 2);
    GapDrop gd2 = reparse(gd);
    EXPECT_EQ(gd2.replica, 2u);
}

TEST(NeoMessages, GapDecisionRecvRoundTrip) {
    GapDecision m;
    m.view = {1, 0};
    m.slot = 4;
    m.recv = true;
    m.oc = sample_oc();
    m.signature = Bytes(64, 3);
    GapDecision q = reparse(m);
    EXPECT_TRUE(q.recv);
    ASSERT_TRUE(q.oc.has_value());
    EXPECT_EQ(q.oc->digest, m.oc->digest);
    EXPECT_TRUE(q.drops.empty());
}

TEST(NeoMessages, GapDecisionDropRoundTrip) {
    GapDecision m;
    m.view = {1, 0};
    m.slot = 4;
    m.recv = false;
    for (NodeId r = 1; r <= 3; ++r) {
        GapDrop d;
        d.view = m.view;
        d.replica = r;
        d.slot = 4;
        d.signature = Bytes(64, static_cast<std::uint8_t>(r));
        m.drops.push_back(d);
    }
    m.signature = Bytes(64, 9);
    GapDecision q = reparse(m);
    EXPECT_FALSE(q.recv);
    ASSERT_EQ(q.drops.size(), 3u);
    EXPECT_EQ(q.drops[2].replica, 3u);
}

TEST(NeoMessages, GapPrepareCommitDistinctBodies) {
    GapPrepare p;
    p.view = {1, 0};
    p.replica = 2;
    p.slot = 4;
    p.recv = true;
    GapCommit c;
    c.view = p.view;
    c.replica = 2;
    c.slot = 4;
    c.recv = true;
    EXPECT_NE(p.signed_body(), c.signed_body());

    GapPrepare p2 = p;
    p2.recv = false;
    EXPECT_NE(p.signed_body(), p2.signed_body());
}

TEST(NeoMessages, SyncRoundTrip) {
    SyncMsg m;
    m.view = {1, 0};
    m.replica = 2;
    m.slot = 128;
    m.log_hash = d32(0x42);
    GapCertificate cert;
    cert.view = {1, 0};
    cert.slot = 100;
    cert.recv = false;
    cert.commits = {{1, Bytes(64, 1)}, {2, Bytes(64, 2)}, {3, Bytes(64, 3)}};
    m.drops.push_back(cert);
    m.signature = Bytes(64, 7);
    SyncMsg q = reparse(m);
    EXPECT_EQ(q.slot, 128u);
    ASSERT_EQ(q.drops.size(), 1u);
    EXPECT_EQ(q.drops[0], cert);
}

TEST(NeoMessages, EpochStartRoundTrip) {
    EpochStart m;
    m.epoch = 3;
    m.replica = 1;
    m.slot = 77;
    m.signature = Bytes(64, 1);
    EpochStart q = reparse(m);
    EXPECT_EQ(q.epoch, 3u);
    EXPECT_EQ(q.slot, 77u);
}

TEST(NeoMessages, ViewChangeRoundTrip) {
    ViewChange m;
    m.new_view = {2, 1};
    m.replica = 3;
    m.sync_cert.view = {1, 0};
    m.sync_cert.slot = 10;
    m.sync_cert.log_hash = d32(0x01);
    m.sync_cert.sigs = {{1, Bytes(64, 1)}, {2, Bytes(64, 2)}, {4, Bytes(64, 4)}};
    ViewChange::EpochStartInfo info;
    info.epoch = 2;
    info.start_slot = 12;
    info.cert.epoch = 2;
    info.cert.slot = 11;
    info.cert.sigs = {{1, Bytes(64, 5)}, {2, Bytes(64, 6)}, {3, Bytes(64, 7)}};
    m.epochs.push_back(info);
    m.suffix_base = 10;
    WireLogEntry req_entry;
    req_entry.noop = false;
    req_entry.oc = sample_oc();
    m.suffix.push_back(req_entry);
    WireLogEntry noop_entry;
    noop_entry.noop = true;
    noop_entry.gap_cert.view = {1, 0};
    noop_entry.gap_cert.slot = 12;
    noop_entry.gap_cert.commits = {{1, Bytes(64, 8)}};
    m.suffix.push_back(noop_entry);
    m.signature = Bytes(64, 9);

    ViewChange q = reparse(m);
    EXPECT_EQ(q.new_view, m.new_view);
    EXPECT_EQ(q.sync_cert.slot, 10u);
    ASSERT_EQ(q.epochs.size(), 1u);
    EXPECT_EQ(q.epochs[0].start_slot, 12u);
    ASSERT_EQ(q.suffix.size(), 2u);
    EXPECT_FALSE(q.suffix[0].noop);
    EXPECT_TRUE(q.suffix[1].noop);
    EXPECT_EQ(q.suffix[1].gap_cert.slot, 12u);
}

TEST(NeoMessages, ViewStartRoundTrip) {
    ViewStart m;
    m.new_view = {1, 1};
    ViewChange vc;
    vc.new_view = {1, 1};
    vc.replica = 2;
    vc.signature = Bytes(64, 1);
    m.msgs.push_back(vc);
    m.signature = Bytes(64, 2);
    ViewStart q = reparse(m);
    ASSERT_EQ(q.msgs.size(), 1u);
    EXPECT_EQ(q.msgs[0].replica, 2u);
}

TEST(NeoMessages, StateTransferRoundTrip) {
    StateReq req{{}, 5, 10};
    StateReq req2 = reparse(req);
    EXPECT_EQ(req2.from_slot, 5u);
    EXPECT_EQ(req2.to_slot, 10u);

    StateReply rep;
    rep.base_slot = 5;
    WireLogEntry e;
    e.noop = false;
    e.oc = sample_oc();
    rep.entries.push_back(e);
    StateReply rep2 = reparse(rep);
    EXPECT_EQ(rep2.base_slot, 5u);
    ASSERT_EQ(rep2.entries.size(), 1u);
    EXPECT_EQ(rep2.entries[0].oc.seq, 3u);
}

TEST(NeoMessages, TruncationRejected) {
    Request m;
    m.client = 1;
    m.op = to_bytes("full request body");
    m.signature = Bytes(64, 1);
    Bytes wire = m.serialize();
    for (std::size_t cut = 1; cut + 1 < wire.size(); cut += 5) {
        Reader r(BytesView(wire).subspan(1, cut));
        EXPECT_THROW(Request::parse(r), CodecError) << cut;
    }
}

TEST(NeoMessages, OversizedQuorumRejected) {
    Writer w;
    w.u64(1);  // view
    w.u64(0);
    w.u64(5);  // slot
    w.boolean(true);
    w.u32(100'000);  // absurd quorum count
    EXPECT_THROW(wire::decode<GapCertificate>(w.bytes()), CodecError);
}

}  // namespace
}  // namespace neo::neobft
