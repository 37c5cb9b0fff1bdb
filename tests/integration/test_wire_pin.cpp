// Wire pin: every byte every protocol puts on the wire, held fixed.
//
// Each run hashes (from, to, bytes) of every packet the network carries,
// through a tamper hook that delivers the bytes untouched (so the run is
// the same simulation it would be without the hook), and compares the
// SHA-256 with a digest recorded when the formats were last changed on
// purpose. Signatures and MACs are functions of the signed or MAC'd body,
// so the digest pins those bodies too. Kinds no run sends are pinned by
// one encoded sample each.
//
// Each run also records a full trace, and the SHA-256 of its JSONL is
// pinned beside the wire digest: a refactor that should leave the
// simulation as it was must leave every trace record as it was too.
//
// A mismatch prints the new digest: a deliberate format or behaviour
// change is one edit to the tables below.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <set>
#include <streambuf>
#include <string>

#include "aom/wire.hpp"
#include "common/hex.hpp"
#include "crypto/sha256.hpp"
#include "harness/harness.hpp"
#include "neobft/messages.hpp"
#include "obs/trace.hpp"

namespace neo::bench {
namespace {

struct PinRun {
    const char* name;
    int measure_ms;
    /// Kind bytes the run carries, so the pin covers what it claims.
    std::set<std::uint8_t> kinds;
    const char* digest;
    /// SHA-256 of the run's JSONL trace.
    const char* trace_digest;
};

void PrintTo(const PinRun& r, std::ostream* os) { *os << r.name; }

std::unique_ptr<Deployment> build(const std::string& name) {
    CommonParams c;
    c.n_clients = 4;
    c.seed = 11;
    if (name.starts_with("neo")) {
        NeoParams p;
        static_cast<CommonParams&>(p) = c;
        p.variant = name.starts_with("neo_pk") ? NeoVariant::kPk
                    : name.starts_with("neo_bn") ? NeoVariant::kBn
                                                 : NeoVariant::kHm;
        if (name.ends_with("_drop")) {
            p.drop_rate = 0.02;
            p.receiver.gap_timeout = 200 * sim::kMicrosecond;
        }
        if (name == "neo_hm_crash_recover") {
            p.checkpoint_interval = 64;
            p.sync_interval = 32;
        }
        return make_neobft(p);
    }
    if (name == "pbft") return make_pbft(c);
    if (name == "zyzzyva" || name == "zyzzyva_f") {
        ZyzzyvaParams p;
        static_cast<CommonParams&>(p) = c;
        p.faulty_replica = name == "zyzzyva_f";
        return make_zyzzyva(p);
    }
    if (name == "hotstuff") return make_hotstuff(c);
    if (name == "minbft") return make_minbft(c);
    if (name == "unreplicated") return make_unreplicated(c);
    ShardParams p;  // txn_2shard
    static_cast<CommonParams&>(p) = c;
    p.n_shards = 2;
    p.dataset.record_count = 1'000;
    return make_sharded_neobft(p);
}

struct Hashed {
    std::string digest;
    std::set<std::uint8_t> kinds;
    std::string trace_digest;
};

std::string hex(const Digest32& h) { return to_hex(BytesView(h.data(), h.size())); }

/// Feeds what is written to it into a SHA-256 context, so a trace's JSONL
/// is hashed without holding the text.
class HashBuf : public std::streambuf {
  public:
    explicit HashBuf(crypto::Sha256& ctx) : ctx_(ctx) {}

  protected:
    std::streamsize xsputn(const char* s, std::streamsize n) override {
        ctx_.update(std::string_view(s, static_cast<std::size_t>(n)));
        return n;
    }
    int_type overflow(int_type c) override {
        if (!traits_type::eq_int_type(c, traits_type::eof())) {
            const char ch = traits_type::to_char_type(c);
            ctx_.update(std::string_view(&ch, 1));
        }
        return traits_type::not_eof(c);
    }

  private:
    crypto::Sha256& ctx_;
};

Hashed run(const PinRun& pin) {
    const std::string name = pin.name;
    auto d = build(name);
    auto ctx = std::make_shared<crypto::Sha256>();
    auto kinds = std::make_shared<std::set<std::uint8_t>>();
    d->network().set_tamper([ctx, kinds](NodeId from, NodeId to, Bytes& data) {
        Writer w(12);
        w.u32(from);
        w.u32(to);
        w.u32(static_cast<std::uint32_t>(data.size()));
        ctx->update(w.bytes()).update(data);
        if (!data.empty()) kinds->insert(data[0]);
        return sim::TamperAction::kDeliver;
    });

    OpGen ops = echo_ops(64);
    if (name == "neo_hm_failover") {
        d->simulator().at_global(10 * sim::kMillisecond,
                                 [dep = d.get()] { dep->inject_sequencer_failure(); });
    } else if (name == "neo_hm_crash_recover") {
        const NodeId last = d->replica_ids().back();
        d->simulator().at_global(5 * sim::kMillisecond,
                                 [dep = d.get(), last] { dep->crash_replica(last); });
        d->simulator().at_global(15 * sim::kMillisecond,
                                 [dep = d.get(), last] { dep->recover_replica(last); });
    } else if (name == "txn_2shard") {
        ShardTxnWorkload w;
        w.n_shards = 2;
        w.cross_shard_ratio = 0.3;
        w.seed = 11;
        w.dataset.record_count = 1'000;
        ops = sharded_txn_ops(w, d->n_clients());
    }
    obs::TraceSink trace;
    d->simulator().set_trace(&trace);
    run_closed_loop(*d, ops, 1 * sim::kMillisecond, pin.measure_ms * sim::kMillisecond);
    d->simulator().set_trace(nullptr);

    crypto::Sha256 trace_ctx;
    HashBuf buf(trace_ctx);
    std::ostream os(&buf);
    trace.write_jsonl(os);
    return {hex(ctx->finish()), *kinds, hex(trace_ctx.finish())};
}

class WirePin : public ::testing::TestWithParam<PinRun> {};

TEST_P(WirePin, PacketBytesMatchPinnedDigest) {
    const PinRun& pin = GetParam();
    Hashed got = run(pin);
    EXPECT_EQ(got.kinds, pin.kinds) << pin.name;
    EXPECT_EQ(got.digest, pin.digest) << pin.name << ": new digest " << got.digest;
}

TEST_P(WirePin, TraceMatchesPinnedDigest) {
    const PinRun& pin = GetParam();
    Hashed got = run(pin);
    EXPECT_EQ(got.trace_digest, pin.trace_digest)
        << pin.name << ": new trace digest " << got.trace_digest;
}

// Kinds: aom 0x01-0x07, NeoBFT 0x20-0x36, baselines 0x40-0x5f. Between
// them the runs carry every kind but the four WirePinSamples pins.
INSTANTIATE_TEST_SUITE_P(
    Runs, WirePin,
    ::testing::Values(
        PinRun{"neo_hm", 4, {0x01, 0x02, 0x21, 0x2d},
               "9808615a8ccef47f40b2b7bcee5189f9b32ee68d72686bd60752a7474758507a",
               "b61bd00937185bf86dd0e590388a2cb8c9d5c54cf4ae66f404e9ac47577c51d2"},
        PinRun{"neo_pk", 4, {0x01, 0x03, 0x21, 0x2d},
               "fac26df939bc9d45bc5e7e08aa0b8e08d69524d91a96937cd0823e881a899933",
               "8132da2d666973766e06f235d8bbd935d563be139b39feace980d1056a61e05a"},
        PinRun{"neo_bn", 4, {0x01, 0x02, 0x05, 0x21, 0x2d},
               "a72a0268ff3900bc839efbc0defdc33fb90ff8e84abce447fbd75ef82e7988f0",
               "880957f6d63cd3f1bdd7ede91492ce5d7939ff5464731300ca5245b9ffe4f98e"},
        PinRun{"neo_hm_drop", 40,
               {0x01, 0x02, 0x20, 0x21, 0x22, 0x23, 0x24, 0x25, 0x26, 0x27, 0x28, 0x29, 0x2d},
               "d8211721d98fe9c8ee4707986f5a0263c73d80bdf847d759b1b30d2fad91b302",
               "2bd64c97ae0a76106660de0f593d7869b972de4df49b4544ac075d83298115e9"},
        PinRun{"neo_pk_drop", 40,
               {0x01, 0x03, 0x20, 0x21, 0x22, 0x23, 0x24, 0x25, 0x26, 0x27, 0x28, 0x29, 0x2d},
               "5d2ecd62c2b9c462ff004bfdaf24dcddc91a7848506c691f9cd30da55d4c68e3",
               "06f3080a0aea1e9e5ea679e2ca4d2e5f6dcbd6d095e574b7f0cd06f404f720ec"},
        PinRun{"neo_hm_failover", 200,
               {0x01, 0x02, 0x06, 0x07, 0x20, 0x21, 0x2a, 0x2b, 0x2c, 0x2d},
               "290249e879a48bb8bf416b60e41461cfd2de4b8ea826f8e5111827bcccd51bbc",
               "95916a9607d84f42b1ef469ba97fb7a11aa7229001926cd3b1a792e496f86bde"},
        PinRun{"neo_hm_crash_recover", 30,
               {0x01, 0x02, 0x21, 0x2d, 0x2e, 0x2f, 0x33, 0x34, 0x35, 0x36},
               "9d2b3cef5a7b6b05563f5b6c1c698ad0f2ac225ba729b92dbbd9dbd9d2ecce64",
               "b4cf9af35fe3de567ab25715ac1c749f1eef460a5bd8788aa2c007d0b9324ab8"},
        PinRun{"pbft", 40, {0x40, 0x41, 0x42, 0x43, 0x44, 0x45},
               "891c3c093cd5f29221cef15e7085882cdf87200ef9a2f7c6e810771ca8dc5a68",
               "e5819822c08c8387fddc86de51bd2e8aa879a44df1d71fb44bd38642a107152b"},
        PinRun{"zyzzyva", 4, {0x40, 0x48, 0x49},
               "e8b74841b83e363d2f9cf7b9af96b7c6e90bdab996df4dc90e8c4567f97c7e62",
               "fbb2cf71867a4ed2a1c8890d57839e92c68c6c776f39615ce123cc44ddeb75e6"},
        PinRun{"zyzzyva_f", 4, {0x40, 0x48, 0x49, 0x4a, 0x4b},
               "c0953b188da2fd4f71a78fb182e501c890485f575ad5645fcd15717eb551abb2",
               "6aebeafe152ca2d73188ea8568fed4535328a9141ffd476d55ee110078301e1c"},
        PinRun{"hotstuff", 4, {0x40, 0x41, 0x50, 0x51},
               "677ec87d29e18bfca14901ced3cc3725d20edbaf4bf1588127566e162de92392",
               "47d7687c551d4832874335d6658c152f8a264e4e4375cdfbdfe34b785d427b00"},
        PinRun{"minbft", 4, {0x40, 0x41, 0x58, 0x59},
               "46d0502ce6ea2389cc33aa9bc1bddb653f1925c2625ecec7136dc4acccbbf46b",
               "274752392b82384b62a0755077ba1a7b73fa33e350951d2e7ce8e5247fed47aa"},
        PinRun{"unreplicated", 4, {0x5e, 0x5f},
               "4d57411f487a04349c495a116842cda9f3aba08e12d43db4b6b2f13153ecd82b",
               "3450290142c8f5f47fb7c419c6e317df7d796241cfcf7884ab28612d209496eb"},
        PinRun{"txn_2shard", 4, {0x01, 0x02, 0x21, 0x2d},
               "7be663454aa7aea9da06ed40d647d474a55382bd644ff5ca8ba978d126430192",
               "a31ca93eaaafd0066041e05ad88c9b2ec8d4c660d9b92deea89a58595b58121d"}),
    [](const ::testing::TestParamInfo<PinRun>& info) { return std::string(info.param.name); });

std::string digest_hex(BytesView b) { return hex(crypto::sha256(b)); }

Digest32 filled(std::uint8_t v) {
    Digest32 d;
    d.fill(v);
    return d;
}

// Kinds no run above sends: the aom PK checkpoint (0x04), NeoBFT's leader
// probe (0x30, 0x31) and the stored gap certificate answer (0x32). None of
// them carries a signature of its own.
TEST(WirePinSamples, UnsentKindsMatchPinnedDigests) {
    aom::PkPacket ckpt;
    ckpt.group = 3;
    ckpt.epoch = 2;
    ckpt.seq = 77;
    ckpt.digest = filled(0x11);
    ckpt.prev_chain = filled(0x22);
    ckpt.signature = Bytes(64, 0x5a);
    ckpt.checkpoint = true;

    neobft::Ping ping;
    ping.view = neobft::ViewId{4, 2};
    ping.nonce = 0x0102030405060708ull;
    neobft::Pong pong;
    pong.view = neobft::ViewId{4, 3};
    pong.nonce = 99;

    aom::OrderingCert oc;
    oc.variant = aom::AuthVariant::kHmacVector;
    oc.group = 1;
    oc.epoch = 4;
    oc.seq = 12;
    oc.digest = filled(0x33);
    oc.payload = to_bytes("payload");
    oc.macs = {1, 2, 3, 4};
    neobft::GapCertReply gcr;
    gcr.view = neobft::ViewId{4, 2};
    gcr.slot = 12;
    gcr.cert.view = gcr.view;
    gcr.cert.slot = 12;
    gcr.cert.recv = true;
    for (NodeId r : {0u, 1u, 2u}) {
        crypto::SignerSig s;
        s.replica = r;
        s.signature = Bytes(64, static_cast<std::uint8_t>(0x40 + r));
        gcr.cert.commits.push_back(s);
    }
    gcr.oc = oc;

    struct Sample {
        std::uint8_t kind;
        Bytes wire;
        const char* digest;
    };
    const Sample samples[] = {
        {0x04, ckpt.serialize(), "96d8863a59428e3d7aba34736eaf5bd4f34db6e645965f85686388d62f61220b"},
        {0x30, ping.serialize(), "1e183b3d3121af716859532324b423970a9e8f3275d54be14c6ce3d6f7af4cd4"},
        {0x31, pong.serialize(), "aaa8ea99b213ecfb64730993d99a515af1ea29eb44db9f3dc209de2081818f40"},
        {0x32, gcr.serialize(), "0156d5a0c45c17504b8f1feccd96f8858687360278f42eb4d4211ea8b47356de"},
    };
    for (const Sample& s : samples) {
        ASSERT_FALSE(s.wire.empty());
        EXPECT_EQ(s.wire[0], s.kind);
        std::string got = digest_hex(s.wire);
        EXPECT_EQ(got, s.digest) << "kind 0x" << std::hex << static_cast<int>(s.kind)
                                 << ": new digest " << got;
    }
}

}  // namespace
}  // namespace neo::bench
