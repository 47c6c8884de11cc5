// Byte buffers and the SNIPE on-wire encoding.
//
// All SNIPE messages, RC assertions, checkpoints and certificates share one
// encoding: the XDR-style network byte order (big-endian) scheme the
// paper's client library uses for "data conversion (e.g. between different
// host architectures)" (§3.4): fixed-width big-endian integers, IEEE-754
// doubles transported as their bit pattern, and length-prefixed
// strings/blobs.
//
// A record declares its layout once, in its `fields` member, and the codec
// (util/codec.hpp) walks that list both ways: encode(r), decode<R>(...).
// The two reader/writer pairs are that codec's back ends:
//   * ByteWriter/ByteReader (here) over one flat Bytes vector;
//   * PayloadWriter/PayloadCursor (util/payload.hpp) over segmented,
//     ref-counted Payloads, which splice message bodies in and slice them
//     out without copying.
// Both produce the same bytes for the same field sequence.  Nothing outside
// src/util/ drives the back ends by hand: transport packets and RPC frames
// are records too (transport/wire.hpp).
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/result.hpp"

namespace snipe {

using Bytes = std::vector<std::uint8_t>;

/// Converts a string to raw bytes (no terminator).
Bytes to_bytes(const std::string& s);
/// Converts raw bytes to a string.
std::string to_string(const Bytes& b);

/// Appends primitives to a byte vector in network (big-endian) order.
///
/// Writer never fails: it grows the target buffer as needed.
class ByteWriter {
 public:
  ByteWriter() = default;

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  /// Length-prefixed (u32) string.
  void str(const std::string& s);
  /// Length-prefixed (u32) blob.
  void blob(const Bytes& b);
  /// Raw bytes, no length prefix (caller knows the framing).
  void raw(const std::uint8_t* p, std::size_t n) { buf_.insert(buf_.end(), p, p + n); }
  void raw(const Bytes& b) { raw(b.data(), b.size()); }

  const Bytes& bytes() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

/// Reads primitives back out of a byte span, in the same order they were
/// written.  All reads are bounds-checked; a short buffer yields
/// Errc::corrupt rather than undefined behaviour, because wire data is
/// untrusted (§4).
class ByteReader {
 public:
  explicit ByteReader(const Bytes& b) : p_(b.data()), n_(b.size()) {}
  ByteReader(const std::uint8_t* p, std::size_t n) : p_(p), n_(n) {}

  Result<std::uint8_t> u8();
  Result<std::uint16_t> u16();
  Result<std::uint32_t> u32();
  Result<std::uint64_t> u64();
  Result<std::int32_t> i32();
  Result<std::int64_t> i64();
  Result<double> f64();
  Result<std::string> str();
  Result<Bytes> blob();
  /// Reads exactly n raw bytes.
  Result<Bytes> raw(std::size_t n);

  std::size_t remaining() const { return n_ - off_; }
  bool done() const { return off_ == n_; }

 private:
  bool need(std::size_t n) { return n_ - off_ >= n; }
  const std::uint8_t* p_;
  std::size_t n_;
  std::size_t off_ = 0;
};

/// Hex encoding of a byte string, lowercase.
std::string hex_encode(const Bytes& b);
std::string hex_encode(const std::uint8_t* p, std::size_t n);
/// Decodes lowercase/uppercase hex; fails on odd length or non-hex chars.
Result<Bytes> hex_decode(const std::string& s);

}  // namespace snipe
