// Bounds-checked little-endian wire codec, and the field lists every wire
// message is described by.
//
// Each message type states its fields once, in wire order:
//
//   template <class IO, class M>
//   static void fields(IO& io, M& m) {
//       io(m.view, m.slot, m.recv);  // u8/u32/u64/bool, Digest32, u8 enums,
//                                    // nested field-list types
//       io.blob(m.op, kMaxOp);       // u32 length + bytes, capped on decode
//       io.auth(m.signature, 256);   // a blob the signed body leaves out
//   }
//
// `M` is `const T` when encoding and `T` when decoding, and fields are
// visited in order, so a later field may depend on an earlier one
// (`if (m.recv) io.framed(m.oc)`). Encoding, decoding, the exact encoded
// size and the signed (or MAC'd) body all come from that one list, so a
// format is read exactly as it is written: decode(encode(m)) == m, and
// every byte string decode accepts re-encodes to itself.
//
// The other primitives: `io.list(vec, max)` (u32 count, then the elements;
// `io.template list<std::uint8_t>` for a u8 count), `io.framed(x)` and
// `io.framed(vec, max, max_each)` (length-prefixed nested messages, kind
// byte included), `io.on_wire()` (false while the signed body is built:
// guards fields that travel but are not signed) and `io.check(cond, what)`
// (cross-field validation, enforced on decode).
//
// Reader throws CodecError on any out-of-bounds or malformed input, and
// so does every decode; message dispatch layers catch it and treat the
// packet as Byzantine garbage, which is what makes the tamper-injection
// tests meaningful.
#pragma once

#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/bytes.hpp"

namespace neo {

/// Thrown by Reader on truncated or malformed input.
class CodecError : public std::runtime_error {
  public:
    explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

/// Appends little-endian primitives and length-prefixed blobs to a buffer.
class Writer {
  public:
    Writer() = default;
    explicit Writer(std::size_t reserve) { buf_.reserve(reserve); }

    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u16(std::uint16_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void boolean(bool v) { u8(v ? 1 : 0); }

    /// Raw bytes, no length prefix (fixed-size fields like digests).
    void raw(BytesView b) { append(buf_, b); }

    /// u32 length prefix followed by the bytes.
    void blob(BytesView b);
    void str(std::string_view s) { blob(BytesView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size())); }

    const Bytes& bytes() const& { return buf_; }
    Bytes take() && { return std::move(buf_); }
    std::size_t size() const { return buf_.size(); }

  private:
    Bytes buf_;
};

/// Reads little-endian primitives with bounds checks.
class Reader {
  public:
    explicit Reader(BytesView b) : data_(b) {}

    std::uint8_t u8();
    std::uint16_t u16();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    bool boolean();

    /// Fixed-size raw field.
    Bytes raw(std::size_t n);
    Digest32 digest32();

    /// u32 length-prefixed blob. `max` caps the declared length so a hostile
    /// packet cannot trigger a huge allocation.
    Bytes blob(std::size_t max = kDefaultMaxBlob);
    /// As blob(), but a view into the input instead of a copy.
    BytesView blob_view(std::size_t max = kDefaultMaxBlob);
    std::string str(std::size_t max = kDefaultMaxBlob);

    std::size_t remaining() const { return data_.size() - pos_; }
    bool at_end() const { return pos_ == data_.size(); }

    /// Declares the message fully parsed; trailing garbage is an error.
    void expect_end();

    static constexpr std::size_t kDefaultMaxBlob = 16u << 20;  // 16 MiB

  private:
    void need(std::size_t n);

    BytesView data_;
    std::size_t pos_ = 0;
};

namespace wire {

namespace detail {
struct Probe {};
}  // namespace detail

/// A type with a field list.
template <class T>
concept HasFields = requires(detail::Probe& io, T& m) { T::fields(io, m); };

/// A message whose encoding starts with a kind byte (`T::kKind`).
template <class T>
concept HasKind = requires { T::kKind; };

template <HasFields T>
T decode(BytesView b);

/// Byte counter: the sizing pass of encode.
struct Counter {
    std::size_t n = 0;
    void u8(std::uint8_t) { n += 1; }
    void u32(std::uint32_t) { n += 4; }
    void u64(std::uint64_t) { n += 8; }
    void raw(BytesView b) { n += b.size(); }
};

/// Little-endian stores into a buffer the sizing pass made exactly large
/// enough.
struct Cursor {
    std::uint8_t* p;
    void u8(std::uint8_t v) { *p++ = v; }
    void u32(std::uint32_t v) { le(v, 4); }
    void u64(std::uint64_t v) { le(v, 8); }
    void raw(BytesView b) {
        if (!b.empty()) std::memcpy(p, b.data(), b.size());
        p += b.size();
    }
    void le(std::uint64_t v, int n) {
        for (int i = 0; i < n; ++i) *p++ = static_cast<std::uint8_t>(v >> (8 * i));
    }
};

/// Writes (Sink = Cursor) or sizes (Sink = Counter) a field list. With
/// `wire` false it renders the signed body: auth fields and fields under
/// `on_wire()` are left out.
template <class Sink>
class Out {
  public:
    Out(Sink& sink, bool wire) : sink_(sink), wire_(wire) {}

    bool on_wire() const { return wire_; }

    template <class... Fs>
    void operator()(const Fs&... fs) {
        (field(fs), ...);
    }
    void blob(const Bytes& b, std::size_t /*max*/) {
        length(b.size());
        sink_.raw(b);
    }
    void auth(const Bytes& b, std::size_t max) {
        if (wire_) blob(b, max);
    }
    template <class Count = std::uint32_t, class T>
    void list(const std::vector<T>& v, std::size_t /*max*/) {
        field(static_cast<Count>(v.size()));
        for (const T& x : v) field(x);
    }
    template <HasFields T>
    void framed(const T& x) {
        Counter size;
        Out<Counter>(size, true).message(x);
        length(size.n);
        if constexpr (std::is_same_v<Sink, Counter>) {
            sink_.n += size.n;
        } else {
            Out(sink_, true).message(x);
        }
    }
    template <HasFields T>
    void framed(const std::optional<T>& x) {
        framed(*x);
    }
    template <HasFields T>
    void framed(const std::vector<T>& v, std::size_t /*max*/,
                std::size_t /*max_each*/ = Reader::kDefaultMaxBlob) {
        field(static_cast<std::uint32_t>(v.size()));
        for (const T& x : v) framed(x);
    }
    void check(bool, const char*) {}

    /// The kind byte, when T has one, then the fields.
    template <HasFields T>
    void message(const T& m) {
        if constexpr (HasKind<T>) field(T::kKind);
        T::fields(*this, m);
    }

  private:
    void field(std::uint8_t v) { sink_.u8(v); }
    void field(std::uint32_t v) { sink_.u32(v); }
    void field(std::uint64_t v) { sink_.u64(v); }
    void field(bool v) { sink_.u8(v ? 1 : 0); }
    void field(const Digest32& d) { sink_.raw(BytesView(d.data(), d.size())); }
    template <class E>
        requires std::is_enum_v<E>
    void field(E e) {
        static_assert(std::is_same_v<std::underlying_type_t<E>, std::uint8_t>);
        field(static_cast<std::uint8_t>(e));
    }
    template <HasFields T>
    void field(const T& x) {
        T::fields(*this, x);
    }
    void length(std::size_t n) {
        if (n > std::numeric_limits<std::uint32_t>::max()) throw CodecError("blob too large");
        field(static_cast<std::uint32_t>(n));
    }

    Sink& sink_;
    bool wire_;
};

/// Reads a field list. Every count and length is checked against its cap
/// before anything is read or allocated for it.
class In {
  public:
    explicit In(Reader& r) : r_(r) {}

    static constexpr bool on_wire() { return true; }

    template <class... Fs>
    void operator()(Fs&... fs) {
        (field(fs), ...);
    }
    void blob(Bytes& b, std::size_t max) { b = r_.blob(max); }
    void auth(Bytes& b, std::size_t max) { b = r_.blob(max); }
    template <class Count = std::uint32_t, class T>
    void list(std::vector<T>& v, std::size_t max) {
        Count n = 0;
        field(n);
        reserve(v, n, max);
        for (Count i = 0; i < n; ++i) field(v.emplace_back());
    }
    template <HasFields T>
    void framed(T& x) {
        x = decode<T>(r_.blob_view());
    }
    template <HasFields T>
    void framed(std::optional<T>& x) {
        x = decode<T>(r_.blob_view());
    }
    template <HasFields T>
    void framed(std::vector<T>& v, std::size_t max,
                std::size_t max_each = Reader::kDefaultMaxBlob) {
        std::uint32_t n = r_.u32();
        reserve(v, n, max);
        for (std::uint32_t i = 0; i < n; ++i) v.push_back(decode<T>(r_.blob_view(max_each)));
    }
    void check(bool ok, const char* what) {
        if (!ok) throw CodecError(what);
    }

  private:
    void field(std::uint8_t& v) { v = r_.u8(); }
    void field(std::uint32_t& v) { v = r_.u32(); }
    void field(std::uint64_t& v) { v = r_.u64(); }
    void field(bool& v) { v = r_.boolean(); }
    void field(Digest32& d) { d = r_.digest32(); }
    template <class E>
        requires std::is_enum_v<E>
    void field(E& e) {
        static_assert(std::is_same_v<std::underlying_type_t<E>, std::uint8_t>);
        e = static_cast<E>(r_.u8());
    }
    template <HasFields T>
    void field(T& x) {
        T::fields(*this, x);
    }

    /// Rejects a count above its cap. Memory is reserved up front only
    /// when the cap bounds it to kMaxReserve bytes; longer lists grow as
    /// their elements actually decode.
    template <class T>
    static void reserve(std::vector<T>& v, std::size_t n, std::size_t max) {
        constexpr std::size_t kMaxReserve = 1024;
        if (n > max) throw CodecError("count exceeds cap");
        if (max <= kMaxReserve / sizeof(T)) v.reserve(n);
    }

    Reader& r_;
};

/// Encoded size of `m`, kind byte included.
template <HasFields T>
std::size_t size(const T& m) {
    Counter c;
    Out<Counter>(c, true).message(m);
    return c.n;
}

/// The kind byte (when T has one) and the fields, in one exactly sized
/// allocation.
template <HasFields T>
Bytes encode(const T& m) {
    Bytes out(wire::size(m));
    Cursor c{out.data()};
    Out<Cursor>(c, true).message(m);
    return out;
}

/// Decodes the fields of a T whose kind byte `r` has already consumed;
/// the input must end there.
template <HasFields T>
T parse(Reader& r) {
    T m;
    In in(r);
    T::fields(in, m);
    r.expect_end();
    return m;
}

/// Decodes a whole encoding, kind byte included.
template <HasFields T>
T decode(BytesView b) {
    Reader r(b);
    if constexpr (HasKind<T>) {
        if (r.u8() != static_cast<std::uint8_t>(T::kKind)) throw CodecError("unexpected kind");
    }
    return parse<T>(r);
}

/// decode(), with nullopt for malformed input.
template <HasFields T>
std::optional<T> try_decode(BytesView b) {
    try {
        return decode<T>(b);
    } catch (const CodecError&) {
        return std::nullopt;
    }
}

/// What a signature or MAC over `m` covers: str(T::kTag), then every field
/// but the authenticator and the fields under `on_wire()`.
template <HasFields T>
Bytes signed_body(const T& m) {
    const BytesView tag(reinterpret_cast<const std::uint8_t*>(T::kTag.data()), T::kTag.size());
    Counter size{4 + tag.size()};
    Out<Counter> sizing(size, false);
    T::fields(sizing, m);
    Bytes out(size.n);
    Cursor c{out.data()};
    c.u32(static_cast<std::uint32_t>(tag.size()));
    c.raw(tag);
    Out<Cursor> body(c, false);
    T::fields(body, m);
    return out;
}

/// Base for wire messages: the codec operations as members, all derived
/// from T's field list.
template <class T>
struct Message {
    Bytes serialize() const { return wire::encode(static_cast<const T&>(*this)); }
    /// Decodes after the kind byte; the packet must end with the fields.
    static T parse(Reader& r) { return wire::parse<T>(r); }
    Bytes signed_body() const { return wire::signed_body(static_cast<const T&>(*this)); }
};

}  // namespace wire
}  // namespace neo
