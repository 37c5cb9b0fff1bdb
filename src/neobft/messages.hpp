// NeoBFT protocol messages (§5.3–§5.5, §B.1–§B.2).
//
// Wire kinds start at aom::Wire::kProtoBase. Every parse is bounds-checked;
// dispatchers treat CodecError as Byzantine garbage.
#pragma once

#include <optional>
#include <vector>

#include "aom/cert.hpp"
#include "common/codec.hpp"
#include "common/types.hpp"
#include "crypto/identity.hpp"

namespace neo::neobft {

enum class MsgKind : std::uint8_t {
    kRequest = 0x20,
    kReply = 0x21,
    kQuery = 0x22,
    kQueryReply = 0x23,
    kGapFind = 0x24,
    kGapRecv = 0x25,
    kGapDrop = 0x26,
    kGapDecision = 0x27,
    kGapPrepare = 0x28,
    kGapCommit = 0x29,
    kViewChange = 0x2a,
    kViewStart = 0x2b,
    kEpochStart = 0x2c,
    kSync = 0x2d,
    kStateReq = 0x2e,
    kStateReply = 0x2f,
    kPing = 0x30,
    kPong = 0x31,
    kGapCertReply = 0x32,
    kCkptReq = 0x33,
    kCkptMeta = 0x34,
    kCkptChunkReq = 0x35,
    kCkptChunk = 0x36,
};

/// Stable name for a NeoBFT wire kind (falls through to the aom layer's
/// names for kinds below kProtoBase); nullptr for unknown bytes. Suitable
/// as a metrics key fragment.
const char* msg_kind_name(std::uint8_t kind);

/// View number: ⟨epoch-num, leader-num⟩ (§5.2).
struct ViewId {
    EpochNum epoch = 1;
    LeaderNum leader = 0;

    friend bool operator==(const ViewId&, const ViewId&) = default;
    friend auto operator<=>(const ViewId& a, const ViewId& b) {
        if (auto c = a.epoch <=> b.epoch; c != 0) return c;
        return a.leader <=> b.leader;
    }
};

void put_view(Writer& w, const ViewId& v);
ViewId get_view(Reader& r);

using crypto::get_signer_sigs;
using crypto::put_signer_sigs;
using crypto::SignerSig;

// ---------------------------------------------------------------- Request

/// Client request, carried as the aom payload (and re-sent by unicast on
/// timeout). Signed by the client.
struct Request {
    NodeId client = 0;
    std::uint64_t request_id = 0;
    Bytes op;
    Bytes signature;

    Bytes signed_body() const;
    Bytes serialize() const;
    static Request parse(Reader& r);
    static std::optional<Request> parse_payload(BytesView payload);
};

// ------------------------------------------------------------------ Reply

/// Replica -> client. Authenticated with the pairwise client MAC (all
/// protocols in this repo authenticate client replies the same way so the
/// comparison stays apples-to-apples; see DESIGN.md §6).
struct Reply {
    ViewId view;
    NodeId replica = 0;
    std::uint64_t slot = 0;
    Digest32 log_hash{};
    std::uint64_t request_id = 0;
    Bytes result;
    Bytes mac;

    Bytes mac_body() const;
    Bytes serialize() const;
    static Reply parse(Reader& r);
};

// ---------------------------------------------------- Gap handling (§5.4)

struct Query {
    ViewId view;
    std::uint64_t slot = 0;

    Bytes serialize() const;
    static Query parse(Reader& r);
};

struct QueryReply {
    ViewId view;
    std::uint64_t slot = 0;
    aom::OrderingCert oc;

    Bytes serialize() const;
    static QueryReply parse(Reader& r);
};

struct GapFind {
    ViewId view;
    std::uint64_t slot = 0;
    Bytes signature;  // leader's

    Bytes signed_body() const;
    Bytes serialize() const;
    static GapFind parse(Reader& r);
};

struct GapRecv {
    ViewId view;
    std::uint64_t slot = 0;
    aom::OrderingCert oc;

    Bytes serialize() const;
    static GapRecv parse(Reader& r);
};

struct GapDrop {
    ViewId view;
    NodeId replica = 0;
    std::uint64_t slot = 0;
    Bytes signature;

    Bytes signed_body() const;
    Bytes serialize() const;
    static GapDrop parse(Reader& r);
};

struct GapDecision {
    ViewId view;
    std::uint64_t slot = 0;
    bool recv = false;
    std::optional<aom::OrderingCert> oc;  // when recv
    std::vector<GapDrop> drops;           // 2f+1 when !recv
    Bytes signature;                      // leader's

    Bytes signed_body() const;
    Bytes serialize() const;
    static GapDecision parse(Reader& r);
};

struct GapPrepare {
    ViewId view;
    NodeId replica = 0;
    std::uint64_t slot = 0;
    bool recv = false;
    Bytes signature;

    Bytes signed_body() const;
    Bytes serialize() const;
    static GapPrepare parse(Reader& r);
};

struct GapCommit {
    ViewId view;
    NodeId replica = 0;
    std::uint64_t slot = 0;
    bool recv = false;
    Bytes signature;

    Bytes signed_body() const;
    Bytes serialize() const;
    static GapCommit parse(Reader& r);
};

/// 2f+1 gap-commits: proof that `slot` committed as recv/drop (§5.4).
struct GapCertificate {
    ViewId view;
    std::uint64_t slot = 0;
    bool recv = false;
    std::vector<SignerSig> commits;

    void put(Writer& w) const;
    static GapCertificate get(Reader& r);

    friend bool operator==(const GapCertificate&, const GapCertificate&) = default;
};

/// Answer to a QUERY for a slot whose gap agreement already concluded:
/// the stored certificate (2f+1 gap-commits) plus, for a recv outcome, the
/// ordering certificate. Self-certifying — no signature needed.
struct GapCertReply {
    ViewId view;
    std::uint64_t slot = 0;
    GapCertificate cert;
    std::optional<aom::OrderingCert> oc;  // present when cert.recv

    Bytes serialize() const;
    static GapCertReply parse(Reader& r);
};

// --------------------------------------------------- State sync (§B.2)

/// Signature covers (view, replica, slot, log_hash, app_hash) so 2f+1
/// syncs form a transferable commitment certificate; the attached gap
/// certificates are self-certifying. `app_hash` is the Merkle root of the
/// replica's checkpoint payload when `slot` is a checkpoint boundary, zero
/// otherwise (checkpointing disabled, or a non-checkpoint sync).
struct SyncMsg {
    ViewId view;
    NodeId replica = 0;
    std::uint64_t slot = 0;
    Digest32 log_hash{};
    Digest32 app_hash{};
    std::vector<GapCertificate> drops;
    Bytes signature;

    Bytes signed_body() const;
    Bytes serialize() const;
    static SyncMsg parse(Reader& r);
};

/// 2f+1 matching sync signatures: proof that the log prefix up to `slot`
/// (with hash `log_hash`) is committed, and — when app_hash is nonzero —
/// that `app_hash` is the agreed application-state root at `slot`.
struct SyncCertificate {
    ViewId view;
    std::uint64_t slot = 0;
    Digest32 log_hash{};
    Digest32 app_hash{};
    std::vector<SignerSig> sigs;

    void put(Writer& w) const;
    static SyncCertificate get(Reader& r);
    bool empty() const { return sigs.empty(); }
};

// -------------------------------------------- Epoch & view change (§B.1)

struct EpochStart {
    EpochNum epoch = 0;
    NodeId replica = 0;
    std::uint64_t slot = 0;  // last log index after merging
    Bytes signature;

    Bytes signed_body() const;
    Bytes serialize() const;
    static EpochStart parse(Reader& r);
};

/// 2f+1 epoch-starts: the agreed starting log position of an epoch.
struct EpochCertificate {
    EpochNum epoch = 0;
    std::uint64_t slot = 0;  // last slot of the previous epoch
    std::vector<SignerSig> sigs;

    void put(Writer& w) const;
    static EpochCertificate get(Reader& r);

    friend bool operator==(const EpochCertificate&, const EpochCertificate&) = default;
};

/// Log entry as transferred in view changes and state transfer. Either a
/// request backed by an ordering certificate or a no-op backed by a gap
/// certificate.
struct WireLogEntry {
    bool noop = false;
    aom::OrderingCert oc;      // when !noop
    GapCertificate gap_cert;   // when noop

    void put(Writer& w) const;
    static WireLogEntry get(Reader& r);
};

struct ViewChange {
    ViewId new_view;
    NodeId replica = 0;
    /// Commitment baseline: everything <= sync_cert.slot is committed and
    /// identical at all correct replicas. May be empty (no sync yet).
    SyncCertificate sync_cert;
    /// Epoch certificates for every epoch this log started after the
    /// baseline: (epoch, first slot of the epoch, certificate).
    struct EpochStartInfo {
        EpochNum epoch = 0;
        std::uint64_t start_slot = 0;
        EpochCertificate cert;
    };
    std::vector<EpochStartInfo> epochs;
    /// Log entries after the baseline, starting at suffix_base + 1.
    std::uint64_t suffix_base = 0;
    std::vector<WireLogEntry> suffix;
    Bytes signature;

    Bytes signed_body() const;
    Bytes serialize() const;
    static ViewChange parse(Reader& r);
};

struct ViewStart {
    ViewId new_view;
    std::vector<ViewChange> msgs;  // 2f+1
    Bytes signature;               // new leader's

    Bytes signed_body() const;
    Bytes serialize() const;
    static ViewStart parse(Reader& r);
};

// ------------------------------------------------------ Leader probing
//
// The paper's liveness argument (§C.2) assumes non-faulty replicas
// "correctly suspect" faulty leaders. This implements that failure
// detector: a replica that hears a VIEW-CHANGE for a higher view probes the
// current leader and joins the view change if the leader stays silent.

struct Ping {
    ViewId view;
    std::uint64_t nonce = 0;

    Bytes serialize() const;
    static Ping parse(Reader& r);
};

struct Pong {
    ViewId view;
    std::uint64_t nonce = 0;

    Bytes serialize() const;
    static Pong parse(Reader& r);
};

// ----------------------------------------------------- State transfer

struct StateReq {
    std::uint64_t from_slot = 0;
    std::uint64_t to_slot = 0;

    Bytes serialize() const;
    static StateReq parse(Reader& r);
};

struct StateReply {
    std::uint64_t base_slot = 0;  // entries start at base_slot + 1
    std::vector<WireLogEntry> entries;

    Bytes serialize() const;
    static StateReply parse(Reader& r);
};

// ------------------------------------------- Checkpoint transfer (§B.2)
//
// A replica whose log starts above the slot a peer needs (stable-checkpoint
// GC) answers with checkpoint metadata instead of log entries. The payload
// travels as Merkle-verified chunks: the sync certificate binds the root
// (app_hash), so each chunk is independently checkable and a Byzantine
// server cannot substitute state.

/// "Send me a checkpoint at or above `min_slot`."
struct CkptReq {
    std::uint64_t min_slot = 0;

    Bytes serialize() const;
    static CkptReq parse(Reader& r);
};

/// Checkpoint offer: the certificate proves (slot, log_hash, app_hash);
/// chunking parameters let the requester schedule kCkptChunkReq pulls.
struct CkptMeta {
    std::uint64_t slot = 0;
    std::uint32_t n_chunks = 0;
    std::uint32_t chunk_size = 0;
    SyncCertificate cert;

    Bytes serialize() const;
    static CkptMeta parse(Reader& r);
};

struct CkptChunkReq {
    std::uint64_t slot = 0;
    std::uint32_t index = 0;

    Bytes serialize() const;
    static CkptChunkReq parse(Reader& r);
};

/// One payload chunk plus its Merkle authentication path (sibling hashes
/// bottom-up; verified against the certificate's app_hash).
struct CkptChunk {
    std::uint64_t slot = 0;
    std::uint32_t index = 0;
    std::uint32_t n_chunks = 0;
    Bytes chunk;
    std::vector<Digest32> siblings;

    Bytes serialize() const;
    static CkptChunk parse(Reader& r);
};

}  // namespace neo::neobft
