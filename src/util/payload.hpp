// Ref-counted immutable buffer views for the zero-copy data plane.
//
// A Payload is an ordered list of segments, each a [offset, len) window into
// a shared immutable byte buffer.  Slicing and concatenation never copy
// bytes — a wire packet is a small pooled header segment plus a slice of the
// sender's original message buffer, and receiver-side reassembly of adjacent
// slices of one buffer coalesces back into a single segment aliasing that
// buffer.  The only copies left on the data path are the ones that change
// bytes: the fault injector's corruption (copy-on-write, see cow_xor) and
// flattening a payload that could not be coalesced (e.g. after a corrupted
// fragment was cloned).
//
// Ownership rule (DESIGN.md §data-plane): whoever holds a Payload may read
// it forever and mutate it never.  Producers hand buffers over by value
// (`Payload(Bytes)`) and must not retain a mutable reference.  The one
// sanctioned mutation, cow_xor, writes in place only when the segment's
// buffer has a single owner and is not sealed; otherwise it clones that
// segment first.
//
// A buffer may be *sealed* with its SHA-256 (seal()): the digest rides in
// the buffer's shared_ptr control block, so it lives and dies with exactly
// that allocation and is never found through a later buffer that happens
// to reuse the address.  A payload's bytes carry a sealed digest when their
// provenance proves them equal to a sealed buffer (proven_digest()): every
// segment is either a same-offset slice of a buffer sealed with that digest
// and exactly as long as the payload, or compares equal (memcmp) to those
// bytes at its offset.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/result.hpp"

namespace snipe {

class Payload {
 public:
  using Buffer = std::shared_ptr<const Bytes>;
  /// A SHA-256 digest, as sealed into a buffer (crypto::Digest256's layout).
  using Digest = std::array<std::uint8_t, 32>;

  /// One window into a shared buffer.
  struct Segment {
    Buffer buf;
    std::size_t off = 0;
    std::size_t len = 0;
    const std::uint8_t* data() const { return buf->data() + off; }
  };

  Payload() = default;
  /// Wraps a byte vector (moved, not copied) as a single-segment payload.
  /// Implicit on purpose: every legacy `send(addr, Bytes{...})` call site
  /// stays valid.
  Payload(Bytes bytes);  // NOLINT(google-explicit-constructor)
  /// Views [off, off+len) of an existing shared buffer.
  Payload(Buffer buf, std::size_t off, std::size_t len);
  explicit Payload(Buffer buf);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Number of segments (0 for an empty payload).
  std::size_t segment_count() const { return nsegs_; }
  const Segment& segment(std::size_t i) const {
    assert(i < nsegs_);
    return i < kInlineSegments ? inline_[i] : more_[i - kInlineSegments];
  }
  bool contiguous() const { return nsegs_ <= 1; }

  /// Pointer to the bytes of a contiguous() payload.  Delivered messages
  /// may have several segments: read them with PayloadCursor, or flatten()
  /// first.  Calling this on a multi-segment payload aborts in every build
  /// type — it would otherwise silently expose only the first segment.
  const std::uint8_t* data() const {
    if (nsegs_ > 1) not_contiguous();
    return nsegs_ == 0 ? nullptr : inline_[0].data();
  }

  /// A view of [off, off+len); shares buffers, copies nothing.
  /// Requires off + len <= size().
  Payload slice(std::size_t off, std::size_t len) const;

  /// Appends another payload's segments.  A segment that continues the
  /// previous one (same buffer, adjacent offsets) is coalesced, so
  /// reassembling fragments sliced from one message buffer yields a single
  /// contiguous segment again.
  void append(const Payload& p);
  void append(Payload&& p);

  /// Collapses a multi-segment payload into one freshly-owned segment
  /// (no-op when already contiguous).  The only copy on the receive path,
  /// and only taken when coalescing failed.
  void flatten();

  std::uint8_t operator[](std::size_t i) const;

  /// Copies all bytes to `out` (which must hold size() bytes).
  void copy_to(std::uint8_t* out) const;
  /// Materializes a fresh byte vector (test/diagnostic convenience).
  Bytes to_bytes() const;

  /// XORs the byte at `pos` with `mask`, cloning the containing segment
  /// first unless this payload holds the buffer's only reference and the
  /// buffer is unsealed — the fault injector's copy-on-write hook.  Everyone
  /// else sharing the bytes keeps seeing the original, and a sealed digest
  /// never describes bytes that changed.
  void cow_xor(std::size_t pos, std::uint8_t mask);

  /// Wraps `bytes` as an immutable buffer sealed with `sha256`, which must be
  /// their SHA-256 (crypto::seal computes it).
  static Buffer seal(Bytes bytes, const Digest& sha256);
  /// Seals an existing buffer without copying it: the result views the
  /// same bytes through a new control block that carries the digest and
  /// keeps `buf` alive (so `buf` is never again a sole owner that cow_xor
  /// could write through).
  static Buffer seal(Buffer buf, const Digest& sha256);
  /// The digest sealed into `buf`'s control block, or nullptr.
  static const Digest* sealed_digest(const Buffer& buf);
  /// The sealed digest of these bytes, when their provenance proves it;
  /// nullptr otherwise.  The reference is the first segment's buffer, which
  /// must be sealed and exactly as long as the payload.  Each segment then
  /// either sits at its own payload offset in a buffer exactly as long as
  /// the payload and sealed with the same digest (O(1): same digest, same
  /// length, same place, so the same bytes), or equals the reference's
  /// bytes at that offset by memcmp (a short tail copied into a header
  /// chunk, a clone whose bytes did not change).  Sound because buffers are immutable and seals are true: a
  /// corrupted byte is always a fresh, unsealed clone (cow_xor) whose bytes
  /// differ from the reference.
  const Digest* proven_digest() const;

  bool operator==(const Payload& o) const;
  bool operator==(const Bytes& o) const;

 private:
  static constexpr std::size_t kInlineSegments = 2;

  void push_segment(Buffer buf, std::size_t off, std::size_t len);
  [[noreturn]] void not_contiguous() const;
  Segment& seg_at(std::size_t i) {
    return i < kInlineSegments ? inline_[i] : more_[i - kInlineSegments];
  }

  Segment inline_[kInlineSegments];
  std::vector<Segment> more_;  ///< segments beyond the inline pair (rare)
  std::size_t nsegs_ = 0;
  std::size_t size_ = 0;
};

/// String view of a payload's bytes (mirror of to_string(const Bytes&)).
std::string to_string(const Payload& p);

/// Builds a Payload from header fields plus existing payloads without
/// copying the latter: primitive writes go to a small pooled scratch buffer
/// (reused across packets once every reference to it drops), append()
/// splices in shared segments.  Produces exactly the byte sequence a
/// ByteWriter would — the wire format is unchanged, only its ownership is.
class PayloadWriter {
 public:
  PayloadWriter() = default;
  PayloadWriter(const PayloadWriter&) = delete;
  PayloadWriter& operator=(const PayloadWriter&) = delete;
  PayloadWriter(PayloadWriter&&) = default;
  PayloadWriter& operator=(PayloadWriter&&) = default;

  // Field writes are inline: a wire header is a handful of them per packet,
  // and each lands in the current chunk unless it is full.
  void u8(std::uint8_t v) { raw(&v, 1); }
  void u16(std::uint16_t v) {
    const std::uint8_t b[2] = {static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
    raw(b, 2);
  }
  void u32(std::uint32_t v) {
    const std::uint8_t b[4] = {
        static_cast<std::uint8_t>(v >> 24), static_cast<std::uint8_t>(v >> 16),
        static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
    raw(b, 4);
  }
  void u64(std::uint64_t v) {
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
    raw(b, 8);
  }
  void raw(const std::uint8_t* p, std::size_t n) {
    if (n == 0) return;
    if (chunk_ == nullptr || chunk_->size() + n > chunk_->capacity()) next_chunk(n);
    chunk_->insert(chunk_->end(), p, p + n);
    pending_ += n;
  }
  /// Length-prefixed (u32) string, as ByteWriter::str.
  void str(const std::string& s);
  /// Length-prefixed (u32) blob, spliced in by reference.
  void blob(const Payload& p) {
    u32(static_cast<std::uint32_t>(p.size()));
    append(p);
  }
  /// Length-prefixed (u32) blob copied into the scratch buffer — for small
  /// freshly-built byte vectors (bitmaps) not worth sharing.
  void blob(const Bytes& b) {
    u32(static_cast<std::uint32_t>(b.size()));
    raw(b.data(), b.size());
  }
  /// Splices `p`'s segments into the output without copying.
  void append(const Payload& p);

  std::size_t size() const { return out_.size() + pending_; }
  Payload take() &&;

 private:
  /// Freezes the pending bytes and switches to a pooled chunk with room
  /// for `need` more.
  void next_chunk(std::size_t need);
  void freeze_pending();

  std::shared_ptr<Bytes> chunk_;   ///< pooled scratch buffer being filled
  std::size_t chunk_base_ = 0;     ///< start of the unfrozen tail in chunk_
  std::size_t pending_ = 0;        ///< bytes written to chunk_ since freeze
  Payload out_;
};

/// Bounds-checked big-endian reads over a (possibly multi-segment) payload,
/// mirroring ByteReader.  The fast path reads straight from the current
/// segment; fields straddling a segment boundary take a byte-at-a-time
/// fallback.  view(n) returns a zero-copy sub-slice.
class PayloadCursor {
 public:
  explicit PayloadCursor(const Payload& p) : p_(p) {}

  Result<std::uint8_t> u8();
  Result<std::uint16_t> u16();
  Result<std::uint32_t> u32();
  Result<std::uint64_t> u64();
  Result<std::int32_t> i32();
  Result<std::int64_t> i64();
  Result<double> f64();
  Result<std::string> str();
  /// Length-prefixed (u32) blob as a zero-copy slice.
  Result<Payload> blob();
  /// The next n bytes as a zero-copy slice.
  Result<Payload> view(std::size_t n);

  std::size_t remaining() const { return p_.size() - off_; }

 private:
  /// Copies the next n bytes out; false (nothing consumed) on a short read.
  bool read(std::uint8_t* out, std::size_t n) {
    if (seg_ < p_.segment_count()) {  // fast path: inside the current segment
      const Payload::Segment& s = p_.segment(seg_);
      const std::size_t in_seg = off_ - seg_off_;
      if (n <= s.len - in_seg) {
        std::memcpy(out, s.data() + in_seg, n);
        off_ += n;
        return true;
      }
    }
    return read_across(out, n);
  }
  /// read() for a field that starts at or straddles a segment boundary.
  bool read_across(std::uint8_t* out, std::size_t n);

  const Payload& p_;
  std::size_t off_ = 0;
  std::size_t seg_ = 0;      ///< segment containing off_
  std::size_t seg_off_ = 0;  ///< offset of seg_'s first byte in the payload
};

}  // namespace snipe
