// Refcounted immutable wire packet.
//
// A Packet is the unit the simulated network moves around: an immutable
// byte buffer shared by reference count. A multicast fan-out serialises its
// payload once and every per-destination delivery — including the arrival
// queue of a busy ProcessingNode — holds the same buffer, so the host-side
// cost of an N-way broadcast is O(1) allocations instead of O(N) copies.
// Immutability is what makes the sharing safe: tampering (Byzantine network
// tests) operates on a private mutable copy (see Network::send_at).
#pragma once

#include <memory>
#include <utility>

#include "common/bytes.hpp"

namespace neo::sim {

class Packet {
  public:
    /// Empty packet (no buffer). view() is an empty span.
    Packet() = default;

    /// Wraps an owned buffer; the Bytes' heap storage is adopted, not
    /// copied (one control-block allocation, zero byte copies). Implicit on
    /// purpose: `send_to(to, msg.serialize())` should stay natural.
    Packet(Bytes&& data) : buf_(std::make_shared<const Bytes>(std::move(data))) {}

    /// Copies an lvalue buffer into a fresh shared buffer. Prefer building
    /// the Packet once and passing it around when a buffer is reused.
    Packet(const Bytes& data) : buf_(std::make_shared<const Bytes>(data)) {}

    BytesView view() const { return buf_ ? BytesView(*buf_) : BytesView(); }
    std::size_t size() const { return buf_ ? buf_->size() : 0; }
    bool empty() const { return size() == 0; }

  private:
    std::shared_ptr<const Bytes> buf_;
};

}  // namespace neo::sim
