// One field list per record: the XDR-style codec.
//
// XDR (§3.4's "data conversion ... between different host architectures")
// has one filter per type that both encodes and decodes.  Here a record
// declares its wire layout once, as a member template that hands every
// field, in wire order, to whatever walks it:
//
//   struct SpawnReply {
//     std::string urn;
//     std::string host;
//     std::uint16_t port = 0;
//     template <class Io> void fields(Io& io) { io(urn, host, port); }
//   };
//
// encode(r) walks that list with a writer and decode<R>(bytes) with a
// reader, so the two directions cannot drift.  Type -> wire:
//   bool                 u8 (0/1; any nonzero reads as true)
//   fixed-width integer  the same width, big-endian
//   double               f64 (the IEEE-754 bit pattern)
//   enum                 its underlying type
//   std::string          str (u32 length, bytes)
//   Bytes                blob (u32 length, bytes)
//   Payload              blob, read back as a zero-copy slice
//   vector / deque       u32 count, then the elements
//   std::pair            its two fields in order
//   std::array<u8, N>    N raw bytes (XDR fixed-length opaque)
//   std::array<T, N>     u32 count, which must equal N, then the elements
//   in_blob(f...)        a blob holding the fields f... (a nested encoding)
//   copy_small(p)        a Payload blob; PayloadWriter copies short segments
//   a record             its own fields()
// A count larger than the bytes left is rejected before anything is
// allocated: every element takes at least one byte.  A record may add
// `Result<void> check() const`, its domain rules, run after its fields
// decode.  A top-level decode rejects trailing bytes.
//
// Back ends: ByteWriter/ByteReader over flat Bytes, PayloadWriter/
// PayloadCursor over segmented Payloads (transport packets and RPC bodies
// that carry zero-copy chunks).  Both produce the same bytes.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <deque>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/bytes.hpp"
#include "util/payload.hpp"
#include "util/result.hpp"

namespace snipe {
namespace codec {

/// The fields f... carried inside one length-prefixed blob (see in_blob).
template <class... F>
struct InBlob {
  std::tuple<F...> fields;
};

/// Wraps fields so they travel as one blob holding their own encoding — a
/// signed canonical form, a key nested inside a certificate.  Decoding
/// rejects bytes left over inside the blob.
template <class... F>
InBlob<F...> in_blob(F&&... f) {
  return {std::tuple<F...>(std::forward<F>(f)...)};
}

/// A Payload field that a PayloadWriter splices only segment by segment
/// from kSpliceMin bytes up, copying shorter ones into its pooled header
/// chunk: a small RPC body then costs the frame no segment of its own, and
/// the frame stays within Payload's two inline segments.  Same bytes as a
/// plain Payload field; reads back as one.
struct CopySmall {
  static constexpr std::size_t kSpliceMin = 512;
  Payload& payload;
};
inline CopySmall copy_small(Payload& p) { return {p}; }

template <class T> struct is_sequence : std::false_type {};
template <class T> struct is_sequence<std::vector<T>> : std::true_type {};
template <class T> struct is_sequence<std::deque<T>> : std::true_type {};
template <class T> struct is_array : std::false_type {};
template <class T, std::size_t N> struct is_array<std::array<T, N>> : std::true_type {};
template <class T> struct is_pair : std::false_type {};
template <class A, class B> struct is_pair<std::pair<A, B>> : std::true_type {};
template <class T> struct is_in_blob : std::false_type {};
template <class... F> struct is_in_blob<InBlob<F...>> : std::true_type {};

template <class T>
concept Checked = requires(const T& t) {
  { t.check() } -> std::same_as<Result<void>>;
};

/// Walks field lists onto W: ByteWriter or PayloadWriter.
template <class W>
class Writer {
 public:
  static constexpr bool reading = false;
  explicit Writer(W& w) : w_(w) {}

  template <class... T>
  void operator()(const T&... v) {
    (put(v), ...);
  }

 private:
  template <class T>
  void put(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      w_.u8(v ? 1 : 0);
    } else if constexpr (std::is_enum_v<T>) {
      put(static_cast<std::underlying_type_t<T>>(v));
    } else if constexpr (std::is_integral_v<T>) {
      using U = std::make_unsigned_t<T>;
      if constexpr (sizeof(T) == 1) w_.u8(static_cast<U>(v));
      else if constexpr (sizeof(T) == 2) w_.u16(static_cast<U>(v));
      else if constexpr (sizeof(T) == 4) w_.u32(static_cast<U>(v));
      else w_.u64(static_cast<U>(v));
    } else if constexpr (std::is_same_v<T, double>) {
      w_.u64(std::bit_cast<std::uint64_t>(v));
    } else if constexpr (std::is_same_v<T, std::string>) {
      w_.str(v);
    } else if constexpr (std::is_same_v<T, Bytes>) {
      w_.blob(v);
    } else if constexpr (std::is_same_v<T, Payload>) {
      if constexpr (std::is_same_v<W, PayloadWriter>) {
        w_.blob(v);
      } else {
        w_.u32(static_cast<std::uint32_t>(v.size()));
        for (std::size_t i = 0; i < v.segment_count(); ++i)
          w_.raw(v.segment(i).data(), v.segment(i).len);
      }
    } else if constexpr (std::is_same_v<T, CopySmall>) {
      if constexpr (std::is_same_v<W, PayloadWriter>) {
        w_.u32(static_cast<std::uint32_t>(v.payload.size()));
        for (std::size_t i = 0; i < v.payload.segment_count(); ++i) {
          const Payload::Segment& s = v.payload.segment(i);
          if (s.len < CopySmall::kSpliceMin)
            w_.raw(s.data(), s.len);
          else
            w_.append(Payload(s.buf, s.off, s.len));
        }
      } else {
        put(v.payload);
      }
    } else if constexpr (is_sequence<T>::value) {
      w_.u32(static_cast<std::uint32_t>(v.size()));
      for (const auto& e : v) put(e);
    } else if constexpr (is_array<T>::value) {
      if constexpr (std::is_same_v<typename T::value_type, std::uint8_t>) {
        w_.raw(v.data(), v.size());
      } else {
        w_.u32(static_cast<std::uint32_t>(v.size()));
        for (const auto& e : v) put(e);
      }
    } else if constexpr (is_pair<T>::value) {
      put(v.first);
      put(v.second);
    } else if constexpr (is_in_blob<T>::value) {
      ByteWriter inner;
      Writer<ByteWriter> io(inner);
      std::apply([&io](const auto&... f) { io(f...); }, v.fields);
      w_.blob(inner.bytes());
    } else {
      // Writing never changes the record; fields() is non-const only so
      // that the reader can share it.
      const_cast<T&>(v).fields(*this);
    }
  }

  W& w_;
};

/// Walks field lists off R: ByteReader or PayloadCursor.  The first failure
/// sticks; every later field is skipped.
template <class R>
class Reader {
 public:
  static constexpr bool reading = true;
  explicit Reader(R& r) : r_(r) {}

  template <class... T>
  void operator()(T&&... v) {
    (get(v), ...);
  }

  bool ok() const { return err_.code == Errc::ok; }
  const Error& error() const { return err_; }
  void fail(Error e) {
    if (ok()) err_ = std::move(e);
  }

 private:
  template <class T>
  bool take(Result<T> r, T& out) {
    if (!r) {
      fail(r.error());
      return false;
    }
    out = std::move(r).take();
    return true;
  }

  template <class T>
  void get(T& v) {
    if (!ok()) return;
    if constexpr (std::is_same_v<T, bool>) {
      std::uint8_t b = 0;
      get(b);
      v = b != 0;
    } else if constexpr (std::is_enum_v<T>) {
      std::underlying_type_t<T> u{};
      get(u);
      v = static_cast<T>(u);
    } else if constexpr (std::is_integral_v<T>) {
      std::make_unsigned_t<T> u{};
      if constexpr (sizeof(T) == 1) take(r_.u8(), u);
      else if constexpr (sizeof(T) == 2) take(r_.u16(), u);
      else if constexpr (sizeof(T) == 4) take(r_.u32(), u);
      else take(r_.u64(), u);
      v = static_cast<T>(u);
    } else if constexpr (std::is_same_v<T, double>) {
      std::uint64_t u = 0;
      get(u);
      v = std::bit_cast<double>(u);
    } else if constexpr (std::is_same_v<T, std::string>) {
      take(r_.str(), v);
    } else if constexpr (std::is_same_v<T, Bytes> || std::is_same_v<T, Payload>) {
      auto b = r_.blob();
      if (!b) return fail(b.error());
      if constexpr (std::is_same_v<T, Bytes> && std::is_same_v<R, PayloadCursor>)
        v = b.value().to_bytes();
      else
        v = std::move(b).take();
    } else if constexpr (std::is_same_v<T, CopySmall>) {
      get(v.payload);
    } else if constexpr (is_sequence<T>::value) {
      std::uint32_t n = 0;
      if (!take(r_.u32(), n)) return;
      if (n > r_.remaining()) return fail(Error{Errc::corrupt, "count exceeds bytes left"});
      v.clear();
      if constexpr (requires { v.reserve(n); }) v.reserve(n);
      for (std::uint32_t i = 0; i < n && ok(); ++i) get(v.emplace_back());
    } else if constexpr (is_array<T>::value) {
      if constexpr (std::is_same_v<typename T::value_type, std::uint8_t>) {
        if (r_.remaining() < v.size()) return fail(Error{Errc::corrupt, "short read (raw)"});
        if constexpr (std::is_same_v<R, PayloadCursor>)
          r_.view(v.size()).value().copy_to(v.data());
        else
          std::copy_n(r_.raw(v.size()).value().begin(), v.size(), v.begin());
      } else {
        std::uint32_t n = 0;
        if (!take(r_.u32(), n)) return;
        if (n != v.size()) return fail(Error{Errc::corrupt, "array length"});
        for (auto& e : v) get(e);
      }
    } else if constexpr (is_pair<T>::value) {
      get(v.first);
      get(v.second);
    } else if constexpr (is_in_blob<T>::value) {
      auto b = r_.blob();
      if (!b) return fail(b.error());
      R inner_r(b.value());
      Reader inner(inner_r);
      std::apply([&inner](auto&... f) { inner(f...); }, v.fields);
      if (inner.ok() && inner_r.remaining() != 0)
        inner.fail(Error{Errc::corrupt, "trailing bytes in blob"});
      if (!inner.ok()) fail(inner.error());
    } else {
      v.fields(*this);
      if constexpr (Checked<T>) {
        if (!ok()) return;
        if (auto c = v.check(); !c) fail(c.error());
      }
    }
  }

  R& r_;
  Error err_;
};

/// Reads one T that must fill the source exactly.
template <class T, class R>
Result<T> read_whole(R& r) {
  T v{};
  Reader<R> io(r);
  io(v);
  if (io.ok() && r.remaining() != 0) io.fail(Error{Errc::corrupt, "trailing bytes"});
  if (!io.ok()) return io.error();
  return v;
}

}  // namespace codec

/// The encoding of v... in order, as one flat byte vector.
template <class... T>
Bytes encode(const T&... v) {
  ByteWriter w;
  codec::Writer<ByteWriter> io(w);
  io(v...);
  return std::move(w).take();
}

/// The encoding of v... as a Payload: Payload fields are spliced in by
/// reference, the rest lands in a pooled header chunk.
template <class... T>
Payload encode_payload(const T&... v) {
  PayloadWriter w;
  codec::Writer<PayloadWriter> io(w);
  io(v...);
  return std::move(w).take();
}

/// Decodes a T that must fill `b` exactly; Errc::corrupt otherwise.
template <class T>
Result<T> decode(const Bytes& b) {
  ByteReader r(b);
  return codec::read_whole<T>(r);
}

/// Decodes a T straight from a (possibly multi-segment) payload; Payload
/// fields come back as zero-copy slices of it.
template <class T>
Result<T> decode(const Payload& p) {
  PayloadCursor r(p);
  return codec::read_whole<T>(r);
}

/// decode<T> of the bytes after `p`'s first, a tag the caller has already
/// read (a transport packet's type).
template <class T>
Result<T> decode_tagged(const Payload& p) {
  PayloadCursor r(p);
  if (auto tag = r.u8(); !tag) return tag.error();
  return codec::read_whole<T>(r);
}

}  // namespace snipe
