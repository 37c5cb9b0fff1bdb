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

}  // namespace neo::neobft
