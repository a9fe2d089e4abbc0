// Minimal deterministic binary serialization used for every PEACE wire
// message, log record and state image. Big-endian fixed-width integers and
// length-prefixed byte strings; a Reader that throws on truncation so
// malformed network input can never read out of bounds.
//
// Each format is stated once, as a field list:
//
//   static void fields(auto& io, auto& s) {
//     io(s.router_id, nonzero(s.public_key), s.expires_at, kSignedEnd,
//        s.signature);
//   }
//
// encode() runs it with a Writer, decode() with a Reader, and
// encode_signed() with a Writer that stops at kSignedEnd, so the bytes a
// signature covers are by construction a prefix of the wire bytes. The
// leaf encoding of each field comes from the put()/get() overload set for
// its type: the common leaves are below, the curve leaves (G1, G2, Fr) are
// in curve/bn254.hpp, and the state-image leaves for key pairs, the issuer
// and the DRBG sit next to those types.
#pragma once

#include <concepts>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bytes.hpp"

namespace peace {

/// Ends the signed prefix of a field list.
struct SignedEnd {};
inline constexpr SignedEnd kSignedEnd{};

/// A constant string heading a state image; decoding throws unless the
/// image carries exactly this text.
struct Tag {
  std::string_view text;
};

/// Appends fields to a growing byte buffer in a canonical encoding.
class Writer {
 public:
  /// `wide_counts` prefixes lists and maps with u64 element counts (log
  /// records, state images) instead of u32 (wire messages).
  explicit Writer(bool wide_counts = false) : wide_counts_(wide_counts) {}

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Raw bytes, no length prefix (fixed-size fields).
  void raw(BytesView data) { append(buf_, data); }
  /// Length-prefixed (u32) byte string.
  void bytes(BytesView data);
  /// Length-prefixed UTF-8 string.
  void str(std::string_view s) { bytes(as_bytes(s)); }
  /// Element count of a list or map.
  void count(std::size_t n);

  /// Appends each field with its leaf encoding; after signed_prefix_only(),
  /// fields past kSignedEnd are dropped.
  template <class... T>
  Writer& operator()(const T&... fields) {
    (field(fields), ...);
    return *this;
  }
  void signed_prefix_only() { signed_prefix_only_ = true; }

  const Bytes& data() const { return buf_; }
  Bytes take() { return std::move(buf_); }

 private:
  template <class T>
  void field(const T& f) {
    if (!stopped_) put(*this, f);
  }
  void field(SignedEnd) { stopped_ = signed_prefix_only_; }

  Bytes buf_;
  bool wide_counts_ = false;
  bool signed_prefix_only_ = false;
  bool stopped_ = false;
};

/// Consumes fields from a byte view; every accessor throws Error("serde: ...")
/// if the buffer is exhausted, so callers never see partial reads.
class Reader {
 public:
  explicit Reader(BytesView data, bool wide_counts = false)
      : data_(data), wide_counts_(wide_counts) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  /// Fixed-size field.
  Bytes raw(std::size_t n);
  /// Length-prefixed byte string (u32 prefix); the length is validated
  /// against the remaining buffer before allocation.
  Bytes bytes();
  std::string str();
  /// Element count of a list or map. Every element takes at least 4 bytes,
  /// so a count above remaining()/4 is hostile and throws before anything
  /// is allocated.
  std::size_t count();

  /// Reads each field with its leaf decoding, in order.
  template <class... T>
  Reader& operator()(T&&... fields) {
    (get(*this, std::forward<T>(fields)), ...);
    return *this;
  }

  bool empty() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }
  /// Throws unless the whole buffer has been consumed — rejects messages
  /// with trailing garbage.
  void expect_end() const;

 private:
  void need(std::size_t n) const;

  BytesView data_;
  std::size_t pos_ = 0;
  bool wide_counts_ = false;
};

// --- field lists -------------------------------------------------------------

/// Reaches a type's static `fields(io, self)`; classes that keep their field
/// list private befriend this.
struct FieldAccess {
  template <class Io, class T>
  static auto fields(Io& io, T& v)
      -> decltype(std::remove_const_t<T>::fields(io, v)) {
    return std::remove_const_t<T>::fields(io, v);
  }
};

template <class T>
concept Fielded =
    requires(Writer& w, const T& v) { FieldAccess::fields(w, v); };

/// A type with its own wire encoding. Nested in another format it is
/// embedded raw when it declares a fixed `kWireSize`, else length-prefixed.
template <class T>
concept WireUnit = requires(const T& v, BytesView b) {
  { v.to_bytes() } -> std::same_as<Bytes>;
  { T::from_bytes(b) } -> std::same_as<T>;
};

/// A state image; nested in another image it is length-prefixed.
template <class T>
concept StateUnit = requires(const T& v, BytesView b) {
  { v.state_bytes() } -> std::same_as<Bytes>;
  { T::from_state(b) } -> std::same_as<T>;
};

/// Types whose field list is laid out inline where they are nested.
template <class T>
concept InlineRecord = Fielded<T> && !WireUnit<T> && !StateUnit<T>;

template <class T>
constexpr bool wide_counts() {
  if constexpr (requires { T::kWideCounts; }) return T::kWideCounts;
  return false;
}

template <Fielded T>
Bytes encode(const T& v) {
  Writer w(wide_counts<T>());
  FieldAccess::fields(w, v);
  return w.take();
}

/// The bytes a signature over `v` covers: `domain` then the field list up
/// to kSignedEnd.
template <Fielded T>
Bytes encode_signed(const T& v, std::string_view domain) {
  Writer w;
  w.signed_prefix_only();
  w.str(domain);
  FieldAccess::fields(w, v);
  return w.take();
}

/// Decodes all of `data` into `v`; trailing bytes throw.
template <Fielded T>
void decode_into(BytesView data, T& v) {
  Reader r(data, wide_counts<T>());
  FieldAccess::fields(r, v);
  r.expect_end();
}

template <Fielded T>
T decode(BytesView data) {
  T v;
  decode_into(data, v);
  return v;
}

// --- leaves ------------------------------------------------------------------

template <class T>
concept Unsigned = std::unsigned_integral<T> && !std::same_as<T, bool>;

template <Unsigned T>
void put(Writer& w, T v) {
  if constexpr (sizeof(T) == 1) w.u8(v);
  else if constexpr (sizeof(T) == 2) w.u16(v);
  else if constexpr (sizeof(T) == 4) w.u32(v);
  else w.u64(v);
}
template <Unsigned T>
void get(Reader& r, T& v) {
  if constexpr (sizeof(T) == 1) v = r.u8();
  else if constexpr (sizeof(T) == 2) v = r.u16();
  else if constexpr (sizeof(T) == 4) v = r.u32();
  else v = r.u64();
}

/// Flags are one byte, 0 or 1; any other value throws, so each message
/// has exactly one encoding.
template <std::same_as<bool> B>
void put(Writer& w, B v) {
  w.u8(v ? 1 : 0);
}
template <std::same_as<bool> B>
void get(Reader& r, B& v) {
  const std::uint8_t b = r.u8();
  if (b > 1) throw Error("serde: flag byte is not 0 or 1");
  v = b == 1;
}

/// Enums travel as their underlying integer; range checks on the value
/// stay with the format that owns the enum.
template <class E>
  requires std::is_enum_v<E>
void put(Writer& w, E v) {
  w(static_cast<std::underlying_type_t<E>>(v));
}
template <class E>
  requires std::is_enum_v<E>
void get(Reader& r, E& v) {
  std::underlying_type_t<E> u{};
  r(u);
  v = static_cast<E>(u);
}

inline void put(Writer& w, const Bytes& b) { w.bytes(b); }
inline void get(Reader& r, Bytes& b) { b = r.bytes(); }
inline void put(Writer& w, const std::string& s) { w.str(s); }
inline void get(Reader& r, std::string& s) { s = r.str(); }

inline void put(Writer& w, Tag t) { w.str(t.text); }
inline void get(Reader& r, Tag t) {
  if (r.str() != t.text) throw Error("serde: bad image tag");
}

inline void put(Writer&, SignedEnd) {}
inline void get(Reader&, SignedEnd) {}

template <class A, class B>
void put(Writer& w, const std::pair<A, B>& p) {
  w(p.first, p.second);
}
template <class A, class B>
void get(Reader& r, std::pair<A, B>& p) {
  r(p.first, p.second);
}

template <class T>
void put(Writer& w, const std::vector<T>& v) {
  w.count(v.size());
  for (const T& x : v) w(x);
}
template <class T>
void get(Reader& r, std::vector<T>& v) {
  const std::size_t n = r.count();
  v.clear();
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    T x;
    r(x);
    v.push_back(std::move(x));
  }
}

/// Maps go out in key order, so equal state encodes to equal bytes.
template <class K, class V, class C>
void put(Writer& w, const std::map<K, V, C>& m) {
  w.count(m.size());
  for (const auto& [k, v] : m) w(k, v);
}
template <class K, class V, class C>
void get(Reader& r, std::map<K, V, C>& m) {
  const std::size_t n = r.count();
  m.clear();
  for (std::size_t i = 0; i < n; ++i) {
    K k{};
    V v{};
    r(k, v);
    m.insert_or_assign(std::move(k), std::move(v));
  }
}

/// A 0/1 flag, then the value when present.
template <class T>
void put(Writer& w, const std::optional<T>& o) {
  w(o.has_value());
  if (o.has_value()) w(*o);
}
template <class T>
void get(Reader& r, std::optional<T>& o) {
  bool present = false;
  r(present);
  o.reset();
  if (present) r(o.emplace());
}

template <WireUnit T>
void put(Writer& w, const T& v) {
  if constexpr (requires { T::kWireSize; }) w.raw(v.to_bytes());
  else w.bytes(v.to_bytes());
}
template <WireUnit T>
void get(Reader& r, T& v) {
  if constexpr (requires { T::kWireSize; })
    v = T::from_bytes(r.raw(T::kWireSize));
  else
    v = T::from_bytes(r.bytes());
}

template <StateUnit T>
void put(Writer& w, const T& v) {
  w.bytes(v.state_bytes());
}
template <StateUnit T>
void get(Reader& r, T& v) {
  v = T::from_state(r.bytes());
}

template <InlineRecord T>
void put(Writer& w, const T& v) {
  FieldAccess::fields(w, v);
}
template <InlineRecord T>
void get(Reader& r, T& v) {
  FieldAccess::fields(r, v);
}

/// Length-prefixes a field whose leaf encoding is otherwise raw.
template <class T>
struct Prefixed {
  T& field;
};
template <class T>
Prefixed<T> prefixed(T& field) {
  return {field};
}
template <class T>
void put(Writer& w, const Prefixed<T>& p) {
  Writer inner;
  inner(p.field);
  w.bytes(inner.data());
}
template <class T>
void get(Reader& r, Prefixed<T> p) {
  const Bytes b = r.bytes();
  Reader inner(b);
  inner(p.field);
  inner.expect_end();
}

}  // namespace peace
