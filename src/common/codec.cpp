#include "common/codec.hpp"

namespace neo {

void Writer::u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void Writer::u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::blob(BytesView b) {
    if (b.size() > std::numeric_limits<std::uint32_t>::max()) throw CodecError("blob too large");
    u32(static_cast<std::uint32_t>(b.size()));
    raw(b);
}

void Reader::need(std::size_t n) {
    if (data_.size() - pos_ < n) throw CodecError("truncated message");
}

std::uint8_t Reader::u8() {
    need(1);
    return data_[pos_++];
}

std::uint16_t Reader::u16() {
    need(2);
    std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
    pos_ += 2;
    return v;
}

std::uint32_t Reader::u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
}

std::uint64_t Reader::u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
}

bool Reader::boolean() {
    std::uint8_t v = u8();
    if (v > 1) throw CodecError("invalid boolean");
    return v == 1;
}

Bytes Reader::raw(std::size_t n) {
    need(n);
    Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
              data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
}

Digest32 Reader::digest32() {
    need(32);
    Digest32 d;
    std::memcpy(d.data(), data_.data() + pos_, 32);
    pos_ += 32;
    return d;
}

Bytes Reader::blob(std::size_t max) {
    std::uint32_t n = u32();
    if (n > max) throw CodecError("blob length exceeds cap");
    return raw(n);
}

BytesView Reader::blob_view(std::size_t max) {
    std::uint32_t n = u32();
    if (n > max) throw CodecError("blob length exceeds cap");
    need(n);
    BytesView out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
}

std::string Reader::str(std::size_t max) {
    Bytes b = blob(max);
    return std::string(b.begin(), b.end());
}

void Reader::expect_end() {
    if (!at_end()) throw CodecError("trailing bytes in message");
}

}  // namespace neo
