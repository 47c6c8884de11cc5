#include "util/payload.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace snipe {

namespace {

// ---------------------------------------------------------------------------
// Pooled scratch buffers for PayloadWriter headers.
//
// The pool keeps one reference to every buffer it has handed out; a buffer
// is free for reuse exactly when the pool's reference is the only one left
// (use_count() == 1), i.e. every Payload that viewed it has been dropped.
// This also means an in-flight pooled buffer always has use_count() >= 2,
// so Payload::cow_xor never mutates pooled bytes in place — the pool can
// recycle them without tearing someone's view.
// The pool must cover the headers of everything in flight at once: a 1 MiB
// message alone keeps ~65 chunks referenced while its fragments sit in the
// media queue, so a 64-chunk pool thrashed (full scan + fresh allocation
// per packet).  320 chunks (~160 KiB per thread) covers several in-flight
// large messages; the probe is bounded so a saturated pool degrades to a
// handful of use_count loads, not a full sweep.
constexpr std::size_t kPoolBuffers = 320;
constexpr std::size_t kChunkCapacity = 512;
constexpr std::size_t kPoolProbes = 32;

struct ChunkPool {
  std::vector<std::shared_ptr<Bytes>> buffers;
  std::size_t cursor = 0;

  std::shared_ptr<Bytes> acquire(std::size_t need) {
    std::size_t want = std::max(need, kChunkCapacity);
    std::size_t probes = std::min(buffers.size(), kPoolProbes);
    for (std::size_t i = 0; i < probes; ++i) {
      auto& b = buffers[cursor];
      cursor = (cursor + 1) % buffers.size();
      if (b.use_count() == 1 && b->capacity() >= want) {
        b->clear();
        return b;
      }
    }
    auto fresh = std::make_shared<Bytes>();
    fresh->reserve(want);
    if (buffers.size() < kPoolBuffers) buffers.push_back(fresh);
    return fresh;
  }
};

ChunkPool& pool() {
  thread_local ChunkPool p;
  return p;
}

/// The deleter of a sealed buffer, read back through std::get_deleter: the
/// bytes' SHA-256, plus the wrapped buffer when an existing one was sealed
/// (then the bytes are that buffer's, and dropping the wrapper frees them).
struct Sealed {
  Payload::Digest sha256;
  Payload::Buffer wrapped;
  void operator()(const Bytes* b) const {
    if (wrapped == nullptr) delete b;
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Payload

Payload::Payload(Bytes bytes) {
  std::size_t n = bytes.size();
  if (n == 0) return;
  push_segment(std::make_shared<const Bytes>(std::move(bytes)), 0, n);
}

Payload::Payload(Buffer buf, std::size_t off, std::size_t len) {
  assert(buf != nullptr && off + len <= buf->size());
  if (len == 0) return;
  push_segment(std::move(buf), off, len);
}

Payload::Payload(Buffer buf) {
  if (buf == nullptr || buf->empty()) return;
  std::size_t n = buf->size();
  push_segment(std::move(buf), 0, n);
}

Payload::Buffer Payload::seal(Bytes bytes, const Digest& sha256) {
  return Buffer(new Bytes(std::move(bytes)), Sealed{sha256, nullptr});
}

Payload::Buffer Payload::seal(Buffer buf, const Digest& sha256) {
  const Bytes* bytes = buf.get();
  return Buffer(bytes, Sealed{sha256, std::move(buf)});
}

const Payload::Digest* Payload::sealed_digest(const Buffer& buf) {
  const Sealed* s = std::get_deleter<Sealed>(buf);
  return s == nullptr ? nullptr : &s->sha256;
}

const Payload::Digest* Payload::proven_digest() const {
  if (nsegs_ == 0) return nullptr;
  const Bytes& ref = *inline_[0].buf;
  const Digest* digest = sealed_digest(inline_[0].buf);
  if (digest == nullptr || ref.size() != size_) return nullptr;
  std::size_t pos = 0;
  for (std::size_t i = 0; i < nsegs_; ++i) {
    const Segment& s = segment(i);
    bool same_copy = false;
    if (s.off == pos && s.buf->size() == size_) {
      const Digest* d = sealed_digest(s.buf);
      same_copy = d != nullptr && *d == *digest;
    }
    if (!same_copy && std::memcmp(s.data(), ref.data() + pos, s.len) != 0) return nullptr;
    pos += s.len;
  }
  return digest;
}

void Payload::not_contiguous() const {
  std::fprintf(stderr,
               "Payload::data() on a %zu-segment payload: not contiguous; read it with "
               "PayloadCursor or flatten() it first\n",
               nsegs_);
  std::abort();
}

void Payload::push_segment(Buffer buf, std::size_t off, std::size_t len) {
  if (len == 0) return;
  // Coalesce: a segment that continues the previous window of the same
  // buffer extends it instead of growing the list.
  if (nsegs_ > 0) {
    Segment& last = seg_at(nsegs_ - 1);
    if (last.buf == buf && last.off + last.len == off) {
      last.len += len;
      size_ += len;
      return;
    }
  }
  if (nsegs_ < kInlineSegments) {
    inline_[nsegs_] = Segment{std::move(buf), off, len};
  } else {
    more_.push_back(Segment{std::move(buf), off, len});
  }
  ++nsegs_;
  size_ += len;
}

Payload Payload::slice(std::size_t off, std::size_t len) const {
  assert(off + len <= size_);
  Payload out;
  std::size_t skip = off;
  for (std::size_t i = 0; i < nsegs_ && len > 0; ++i) {
    const Segment& s = segment(i);
    if (skip >= s.len) {
      skip -= s.len;
      continue;
    }
    std::size_t take = std::min(len, s.len - skip);
    out.push_segment(s.buf, s.off + skip, take);
    skip = 0;
    len -= take;
  }
  return out;
}

void Payload::append(const Payload& p) {
  for (std::size_t i = 0; i < p.nsegs_; ++i) {
    const Segment& s = p.segment(i);
    push_segment(s.buf, s.off, s.len);
  }
}

void Payload::append(Payload&& p) {
  if (nsegs_ == 0) {
    *this = std::move(p);
    return;
  }
  for (std::size_t i = 0; i < p.nsegs_; ++i) {
    Segment& s = p.seg_at(i);
    push_segment(std::move(s.buf), s.off, s.len);
  }
  p.more_.clear();
  p.nsegs_ = 0;
  p.size_ = 0;
}

void Payload::flatten() {
  if (nsegs_ <= 1) return;
  Bytes flat(size_);
  copy_to(flat.data());
  std::size_t n = flat.size();
  more_.clear();
  nsegs_ = 0;
  size_ = 0;
  for (Segment& s : inline_) s = Segment{};
  push_segment(std::make_shared<const Bytes>(std::move(flat)), 0, n);
}

std::uint8_t Payload::operator[](std::size_t i) const {
  assert(i < size_);
  for (std::size_t s = 0; s < nsegs_; ++s) {
    const Segment& seg = segment(s);
    if (i < seg.len) return seg.data()[i];
    i -= seg.len;
  }
  return 0;  // unreachable given the assert
}

void Payload::copy_to(std::uint8_t* out) const {
  for (std::size_t i = 0; i < nsegs_; ++i) {
    const Segment& s = segment(i);
    std::memcpy(out, s.data(), s.len);
    out += s.len;
  }
}

Bytes Payload::to_bytes() const {
  Bytes out(size_);
  copy_to(out.data());
  return out;
}

void Payload::cow_xor(std::size_t pos, std::uint8_t mask) {
  assert(pos < size_);
  for (std::size_t i = 0; i < nsegs_; ++i) {
    Segment& s = seg_at(i);
    if (pos >= s.len) {
      pos -= s.len;
      continue;
    }
    if (s.buf.use_count() != 1 || sealed_digest(s.buf) != nullptr) {
      // Shared bytes (another payload, a retransmit buffer, or the writer
      // pool still references them), or bytes whose sealed digest must
      // stay true: clone just this segment.
      auto clone = std::make_shared<Bytes>(s.buf->begin() + static_cast<std::ptrdiff_t>(s.off),
                                           s.buf->begin() + static_cast<std::ptrdiff_t>(s.off + s.len));
      s.buf = clone;
      s.off = 0;
    }
    // Sole owner now; mutating in place is invisible to everyone else.
    const_cast<Bytes&>(*s.buf)[s.off + pos] ^= mask;
    return;
  }
}

bool Payload::operator==(const Payload& o) const {
  if (size_ != o.size_) return false;
  std::size_t i = 0, j = 0, ioff = 0, joff = 0;
  std::size_t left = size_;
  while (left > 0) {
    const Segment& a = segment(i);
    const Segment& b = o.segment(j);
    std::size_t n = std::min({a.len - ioff, b.len - joff, left});
    if (std::memcmp(a.data() + ioff, b.data() + joff, n) != 0) return false;
    ioff += n;
    joff += n;
    left -= n;
    if (ioff == a.len) { ++i; ioff = 0; }
    if (joff == b.len) { ++j; joff = 0; }
  }
  return true;
}

bool Payload::operator==(const Bytes& o) const {
  if (size_ != o.size()) return false;
  std::size_t pos = 0;
  for (std::size_t i = 0; i < nsegs_; ++i) {
    const Segment& s = segment(i);
    if (std::memcmp(s.data(), o.data() + pos, s.len) != 0) return false;
    pos += s.len;
  }
  return true;
}

std::string to_string(const Payload& p) {
  std::string out(p.size(), '\0');
  p.copy_to(reinterpret_cast<std::uint8_t*>(out.data()));
  return out;
}

// ---------------------------------------------------------------------------
// PayloadWriter

void PayloadWriter::next_chunk(std::size_t need) {
  freeze_pending();
  chunk_ = pool().acquire(need);
  chunk_base_ = chunk_->size();
}

void PayloadWriter::freeze_pending() {
  if (pending_ == 0) return;
  out_.append(Payload(Payload::Buffer(chunk_), chunk_base_, pending_));
  chunk_base_ += pending_;
  pending_ = 0;
}

void PayloadWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  raw(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

void PayloadWriter::append(const Payload& p) {
  if (p.empty()) return;
  freeze_pending();
  out_.append(p);
}

Payload PayloadWriter::take() && {
  freeze_pending();
  chunk_.reset();
  return std::move(out_);
}

// ---------------------------------------------------------------------------
// PayloadCursor

bool PayloadCursor::read_across(std::uint8_t* out, std::size_t n) {
  if (remaining() < n) return false;
  while (n > 0) {
    const Payload::Segment& s = p_.segment(seg_);
    std::size_t in_seg = off_ - seg_off_;
    if (in_seg == s.len) {
      seg_off_ += s.len;
      ++seg_;
      continue;
    }
    std::size_t take = std::min(n, s.len - in_seg);
    std::memcpy(out, s.data() + in_seg, take);
    out += take;
    off_ += take;
    n -= take;
  }
  return true;
}

namespace {
Error short_read() { return Error{Errc::corrupt, "short read"}; }
}  // namespace

Result<std::uint8_t> PayloadCursor::u8() {
  std::uint8_t b;
  if (!read(&b, 1)) return short_read();
  return b;
}

Result<std::uint16_t> PayloadCursor::u16() {
  std::uint8_t b[2];
  if (!read(b, 2)) return short_read();
  return static_cast<std::uint16_t>((b[0] << 8) | b[1]);
}

Result<std::uint32_t> PayloadCursor::u32() {
  std::uint8_t b[4];
  if (!read(b, 4)) return short_read();
  return (static_cast<std::uint32_t>(b[0]) << 24) | (static_cast<std::uint32_t>(b[1]) << 16) |
         (static_cast<std::uint32_t>(b[2]) << 8) | b[3];
}

Result<std::uint64_t> PayloadCursor::u64() {
  std::uint8_t b[8];
  if (!read(b, 8)) return short_read();
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | b[i];
  return v;
}

Result<std::int32_t> PayloadCursor::i32() {
  auto v = u32();
  if (!v) return v.error();
  return static_cast<std::int32_t>(v.value());
}

Result<std::int64_t> PayloadCursor::i64() {
  auto v = u64();
  if (!v) return v.error();
  return static_cast<std::int64_t>(v.value());
}

Result<double> PayloadCursor::f64() {
  auto v = u64();
  if (!v) return v.error();
  return std::bit_cast<double>(v.value());
}

Result<std::string> PayloadCursor::str() {
  auto n = u32();
  if (!n) return n.error();
  if (remaining() < n.value()) return short_read();
  std::string s(n.value(), '\0');
  read(reinterpret_cast<std::uint8_t*>(s.data()), n.value());
  return s;
}

Result<Payload> PayloadCursor::view(std::size_t n) {
  if (remaining() < n) return short_read();
  Payload out = p_.slice(off_, n);
  off_ += n;
  // Re-sync the segment cursor by walking forward.
  while (seg_ < p_.segment_count()) {
    const Payload::Segment& s = p_.segment(seg_);
    if (off_ - seg_off_ <= s.len) break;
    seg_off_ += s.len;
    ++seg_;
  }
  return out;
}

Result<Payload> PayloadCursor::blob() {
  auto n = u32();
  if (!n) return n.error();
  return view(n.value());
}

}  // namespace snipe
