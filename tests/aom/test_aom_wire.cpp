#include "aom/wire.hpp"

#include <gtest/gtest.h>

#include "aom/cert.hpp"
#include "crypto/sha256.hpp"

namespace neo::aom {
namespace {

Digest32 d32(std::uint8_t fill) {
    Digest32 d;
    d.fill(fill);
    return d;
}

template <typename T>
T reparse(const T& msg) {
    Bytes wire = msg.serialize();
    Reader r(BytesView(wire).subspan(1));  // skip kind byte
    return T::parse(r);
}

TEST(AomWire, PeekKind) {
    EXPECT_FALSE(peek_kind({}).has_value());
    Bytes b{0x02, 0xaa};
    EXPECT_EQ(peek_kind(b), 0x02);
    EXPECT_TRUE(is_aom_packet(b));
    Bytes proto{0x20};
    EXPECT_FALSE(is_aom_packet(proto));
}

TEST(AomWire, DataPacketRoundTrip) {
    DataPacket p;
    p.group = 7;
    p.digest = d32(0xab);
    p.payload = to_bytes("request body");
    DataPacket q = reparse(p);
    EXPECT_EQ(q.group, 7u);
    EXPECT_EQ(q.digest, p.digest);
    EXPECT_EQ(q.payload, p.payload);
}

TEST(AomWire, DataPacketKindByte) {
    DataPacket p;
    EXPECT_EQ(p.serialize()[0], static_cast<std::uint8_t>(Wire::kData));
}

TEST(AomWire, HmPacketRoundTrip) {
    HmPacket p;
    p.group = 1;
    p.epoch = 3;
    p.seq = 42;
    p.digest = d32(0x11);
    p.subgroup = 1;
    p.n_subgroups = 2;
    p.macs = {10, 20, 30, 40};
    p.payload = to_bytes("op");
    HmPacket q = reparse(p);
    EXPECT_EQ(q.seq, 42u);
    EXPECT_EQ(q.epoch, 3u);
    EXPECT_EQ(q.subgroup, 1);
    EXPECT_EQ(q.n_subgroups, 2);
    EXPECT_EQ(q.macs, p.macs);
    EXPECT_EQ(q.payload, p.payload);
}

TEST(AomWire, HmPacketRejectsBadSubgroup) {
    HmPacket p;
    p.subgroup = 3;
    p.n_subgroups = 2;  // subgroup >= n_subgroups
    p.macs = {1};
    Bytes wire = p.serialize();
    Reader r(BytesView(wire).subspan(1));
    EXPECT_THROW(HmPacket::parse(r), CodecError);
}

TEST(AomWire, HmPacketRejectsTooManyMacs) {
    // Hand-craft a packet declaring 5 MACs in one subgroup.
    Writer w;
    w.u32(1);
    w.u64(1);
    w.u64(1);
    w.raw(BytesView(d32(0).data(), 32));
    w.u8(0);
    w.u8(1);
    w.u8(5);
    for (int i = 0; i < 5; ++i) w.u32(0);
    w.blob({});
    Reader r(w.bytes());
    EXPECT_THROW(HmPacket::parse(r), CodecError);
}

TEST(AomWire, PkPacketRoundTripUnsigned) {
    PkPacket p;
    p.group = 2;
    p.epoch = 1;
    p.seq = 9;
    p.digest = d32(0x22);
    p.prev_chain = d32(0x33);
    p.payload = to_bytes("pay");
    PkPacket q = reparse(p);
    EXPECT_FALSE(q.checkpoint);
    EXPECT_TRUE(q.signature.empty());
    EXPECT_EQ(q.prev_chain, p.prev_chain);
    EXPECT_EQ(q.payload, p.payload);
}

TEST(AomWire, PkPacketRoundTripSigned) {
    PkPacket p;
    p.seq = 10;
    p.signature = Bytes(64, 0x5a);
    p.payload = to_bytes("x");
    PkPacket q = reparse(p);
    EXPECT_EQ(q.signature, p.signature);
    EXPECT_FALSE(q.checkpoint);
}

TEST(AomWire, CheckpointRoundTrip) {
    PkPacket p;
    p.checkpoint = true;
    p.seq = 12;
    p.digest = d32(0x44);
    p.prev_chain = d32(0x55);
    p.signature = Bytes(64, 0x66);
    EXPECT_EQ(p.serialize()[0], static_cast<std::uint8_t>(Wire::kCheckpoint));
    PkPacket q = reparse(p);
    EXPECT_TRUE(q.checkpoint);
    EXPECT_EQ(q.seq, 12u);
    EXPECT_EQ(q.signature, p.signature);
}

TEST(AomWire, CheckpointMustBeSigned) {
    PkPacket p;
    p.checkpoint = true;
    Bytes wire = p.serialize();
    Reader r(BytesView(wire).subspan(1));
    EXPECT_THROW(PkPacket::parse(r), CodecError);
}

TEST(AomWire, PkPacketRejectsBadSignatureLength) {
    PkPacket p;
    p.signature = Bytes(63, 1);
    p.payload = to_bytes("x");
    Bytes wire = p.serialize();
    Reader r(BytesView(wire).subspan(1));
    EXPECT_THROW(PkPacket::parse(r), CodecError);
}

TEST(AomWire, ConfirmPacketRoundTrip) {
    ConfirmPacket p;
    p.sender = 5;
    p.group = 7;
    p.epoch = 2;
    p.entries.push_back({1, d32(0x01), Bytes(64, 0xaa)});
    p.entries.push_back({2, d32(0x02), Bytes(64, 0xbb)});
    ConfirmPacket q = reparse(p);
    EXPECT_EQ(q.sender, 5u);
    ASSERT_EQ(q.entries.size(), 2u);
    EXPECT_EQ(q.entries[1].seq, 2u);
    EXPECT_EQ(q.entries[1].signature, p.entries[1].signature);
}

TEST(AomWire, FailoverAndNewEpochRoundTrip) {
    FailoverRequest f;
    f.sender = 3;
    f.group = 9;
    f.next_epoch = 4;
    FailoverRequest f2 = reparse(f);
    EXPECT_EQ(f2.sender, 3u);
    EXPECT_EQ(f2.next_epoch, 4u);

    NewEpochAnnouncement a;
    a.group = 9;
    a.epoch = 4;
    a.sequencer = 201;
    NewEpochAnnouncement a2 = reparse(a);
    EXPECT_EQ(a2.sequencer, 201u);
}

TEST(AomWire, AuthInputIsPositional) {
    Digest32 d = d32(1);
    EXPECT_NE(auth_input(1, 2, 3, d), auth_input(1, 2, 4, d));
    EXPECT_NE(auth_input(1, 2, 3, d), auth_input(1, 3, 2, d));
    EXPECT_NE(auth_input(1, 2, 3, d), auth_input(2, 1, 3, d));
}

TEST(AomWire, ChainIsDeterministicAndEpochScoped) {
    Digest32 g1 = chain_genesis(1, 1);
    EXPECT_EQ(g1, chain_genesis(1, 1));
    EXPECT_NE(g1, chain_genesis(1, 2));
    EXPECT_NE(g1, chain_genesis(2, 1));

    Digest32 c1 = chain_next(g1, 1, 1, 1, d32(0x0a));
    Digest32 c1b = chain_next(g1, 1, 1, 1, d32(0x0b));
    EXPECT_NE(c1, c1b);
    Digest32 c2 = chain_next(c1, 1, 1, 2, d32(0x0a));
    EXPECT_NE(c2, c1);
}

TEST(AomWire, TruncatedPacketsThrow) {
    DataPacket p;
    p.payload = to_bytes("full");
    Bytes wire = p.serialize();
    for (std::size_t cut = 1; cut < wire.size(); cut += 7) {
        Reader r(BytesView(wire).subspan(1, cut >= wire.size() - 1 ? wire.size() - 1 : cut));
        EXPECT_THROW(DataPacket::parse(r), CodecError) << cut;
    }
}

TEST(AomCertWire, RoundTripHm) {
    OrderingCert c;
    c.variant = AuthVariant::kHmacVector;
    c.group = 7;
    c.epoch = 1;
    c.seq = 5;
    c.payload = to_bytes("req");
    c.digest = crypto::sha256(c.payload);
    c.macs = {1, 2, 3, 4};
    OrderingCert q = wire::decode<OrderingCert>(c.serialize());
    EXPECT_EQ(q.variant, AuthVariant::kHmacVector);
    EXPECT_EQ(q.macs, c.macs);
    EXPECT_EQ(q.payload, c.payload);
    EXPECT_EQ(q.seq, 5u);
}

TEST(AomCertWire, RoundTripPkWithConfirms) {
    OrderingCert c;
    c.variant = AuthVariant::kPublicKey;
    c.group = 7;
    c.epoch = 2;
    c.seq = 5;
    c.payload = to_bytes("req");
    c.digest = crypto::sha256(c.payload);
    c.chain.push_back({5, c.digest, d32(0x10)});
    c.chain.push_back({6, d32(0x06), d32(0x11)});
    c.signature = Bytes(64, 0x77);
    c.confirms.push_back({1, Bytes(64, 0x01)});
    c.confirms.push_back({2, Bytes(64, 0x02)});
    OrderingCert q = wire::decode<OrderingCert>(c.serialize());
    ASSERT_EQ(q.chain.size(), 2u);
    EXPECT_EQ(q.chain[1].seq, 6u);
    EXPECT_EQ(q.signature, c.signature);
    ASSERT_EQ(q.confirms.size(), 2u);
    EXPECT_EQ(q.confirms[1].node, 2u);
}

TEST(AomCertWire, ParseRejectsBadVariant) {
    OrderingCert c;
    Bytes wire = c.serialize();
    wire[0] = 99;
    EXPECT_THROW(wire::decode<OrderingCert>(wire), CodecError);
}

TEST(AomCertWire, ParseRejectsTrailingGarbage) {
    OrderingCert c;
    Bytes wire = c.serialize();
    wire.push_back(0);
    EXPECT_THROW(wire::decode<OrderingCert>(wire), CodecError);
}

}  // namespace
}  // namespace neo::aom
