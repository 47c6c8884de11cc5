#include "transport/wire.hpp"

#include <cassert>

namespace snipe::transport {

namespace {
PayloadWriter begin(PacketType type) {
  PayloadWriter w;
  w.u8(static_cast<std::uint8_t>(type));
  return w;
}

Result<PayloadCursor> open(const Payload& wire) {
  PayloadCursor r(wire);
  auto type = r.u8();
  if (!type) return type.error();
  return r;
}

bool is_checksummed(PacketType t) {
  return t == PacketType::data_ck || t == PacketType::status_ck ||
         t == PacketType::msg_ack_ck || t == PacketType::probe_ck;
}

// Ends a packet; a checksummed twin gets the FNV-1a of its bytes appended.
Payload finish(PayloadWriter&& w, bool with_checksum) {
  Payload p = std::move(w).take();
  if (!with_checksum) return p;
  PayloadWriter out;
  out.append(p);
  out.u32(payload_checksum(p));
  return std::move(out).take();
}

// The bytes a decoder parses: `wire` itself or, for a checksummed twin, its
// bytes before the trailer (kept in `held`); `ok` reports whether the
// trailer matched them.
Result<const Payload*> unseal(const Payload& wire, Payload& held, bool& ok) {
  ok = true;
  if (wire.empty() || !is_checksummed(static_cast<PacketType>(wire[0]))) return &wire;
  if (wire.size() < 5) return Error{Errc::corrupt, "short checksummed packet"};
  const std::size_t n = wire.size() - 4;
  held = wire.slice(0, n);
  std::uint32_t sum = 0;
  for (std::size_t i = n; i < wire.size(); ++i) sum = sum << 8 | wire[i];
  ok = payload_checksum(held) == sum;
  return &held;
}

// A flipped length field can shrink a blob and leave stray bytes after the
// last field; a decoder that ignores them would accept a structurally
// mangled packet, so every decode_* ends with this check.
Error trailing_bytes() { return Error{Errc::corrupt, "trailing bytes"}; }
}  // namespace

std::uint64_t mint_flow(std::string_view from_host, std::uint16_t from_port,
                        std::string_view to_host, std::uint16_t to_port,
                        std::uint64_t ordinal) {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a 64-bit offset basis
  auto mix = [&h](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ull;
  };
  for (char c : from_host) mix(static_cast<unsigned char>(c), 1);
  mix(from_port, 2);
  for (char c : to_host) mix(static_cast<unsigned char>(c), 1);
  mix(to_port, 2);
  mix(ordinal, 8);
  return h == 0 ? 1 : h;  // 0 means "untraced"
}

std::uint32_t payload_checksum(const Payload& p) {
  std::uint32_t h = 2166136261u;  // FNV-1a offset basis
  for (std::size_t i = 0; i < p.segment_count(); ++i) {
    const Payload::Segment& s = p.segment(i);
    const std::uint8_t* d = s.data();
    for (std::size_t j = 0; j < s.len; ++j) h = (h ^ d[j]) * 16777619u;
  }
  return h;
}

Payload encode_data(const DataPacket& p, bool with_checksum) {
  auto w = begin(with_checksum ? PacketType::data_ck : PacketType::data);
  w.u64(p.msg_id);
  w.u32(p.frag_index);
  w.u32(p.frag_count);
  w.u32(p.total_len);
  w.blob(p.payload);
  return finish(std::move(w), with_checksum);
}

Payload encode_status(const StatusPacket& p, bool with_checksum) {
  auto w = begin(with_checksum ? PacketType::status_ck : PacketType::status);
  w.u64(p.msg_id);
  w.u32(p.frag_count);
  w.blob(p.bitmap);
  return finish(std::move(w), with_checksum);
}

Payload encode_msg_id(PacketType type, const MsgIdPacket& p, bool with_checksum) {
  if (with_checksum)
    type = type == PacketType::probe ? PacketType::probe_ck : PacketType::msg_ack_ck;
  auto w = begin(type);
  w.u64(p.msg_id);
  return finish(std::move(w), with_checksum);
}

Payload encode_stream(PacketType type, const StreamPacket& p) {
  auto w = begin(type);
  w.u32(p.conn_id);
  w.u64(p.seq);
  w.u64(p.ack);
  w.u32(p.window);
  w.blob(p.payload);
  return std::move(w).take();
}

Payload encode_mcast_data(const McastDataPacket& p) {
  auto w = begin(PacketType::mdata);
  w.str(p.group);
  w.u64(p.msg_id);
  w.u32(p.frag_index);
  w.u32(p.frag_count);
  w.u32(p.total_len);
  w.u64(static_cast<std::uint64_t>(p.born));
  w.blob(p.payload);
  return std::move(w).take();
}

Payload encode_mcast_nack(const McastNackPacket& p) {
  auto w = begin(PacketType::mnack);
  w.str(p.group);
  w.u64(p.msg_id);
  w.u32(static_cast<std::uint32_t>(p.missing.size()));
  for (auto idx : p.missing) w.u32(idx);
  return std::move(w).take();
}

Result<PacketHead> decode_head(const Payload& wire) {
  PayloadCursor r(wire);
  auto type = r.u8();
  if (!type) return type.error();
  return PacketHead{static_cast<PacketType>(type.value())};
}

Result<DataPacket> decode_data(const Payload& wire) {
  DataPacket p;
  Payload held;
  auto body = unseal(wire, held, p.checksum_ok);
  if (!body) return body.error();
  PayloadCursor r(*body.value());
  auto type = r.u8();
  if (!type) return type.error();
  p.has_checksum = static_cast<PacketType>(type.value()) == PacketType::data_ck;
  auto msg_id = r.u64();
  if (!msg_id) return msg_id.error();
  p.msg_id = msg_id.value();
  auto frag_index = r.u32();
  if (!frag_index) return frag_index.error();
  p.frag_index = frag_index.value();
  auto frag_count = r.u32();
  if (!frag_count) return frag_count.error();
  p.frag_count = frag_count.value();
  auto total_len = r.u32();
  if (!total_len) return total_len.error();
  p.total_len = total_len.value();
  auto payload = r.blob();
  if (!payload) return payload.error();
  p.payload = std::move(payload).take();
  if (p.frag_count == 0 || p.frag_index >= p.frag_count)
    return Error{Errc::corrupt, "bad fragment indices"};
  if (p.frag_count > kMaxWireFragments)
    return Error{Errc::corrupt, "absurd fragment count"};
  if (p.frag_count > 1 && p.total_len == 0)
    return Error{Errc::corrupt, "multi-fragment message with zero length"};
  if (r.remaining() != 0) return trailing_bytes();
  return p;
}

Result<StatusPacket> decode_status(const Payload& wire) {
  StatusPacket p;
  Payload held;
  auto body = unseal(wire, held, p.checksum_ok);
  if (!body) return body.error();
  auto r = open(*body.value());
  if (!r) return r.error();
  auto msg_id = r.value().u64();
  if (!msg_id) return msg_id.error();
  p.msg_id = msg_id.value();
  auto frag_count = r.value().u32();
  if (!frag_count) return frag_count.error();
  p.frag_count = frag_count.value();
  auto bitmap = r.value().blob();
  if (!bitmap) return bitmap.error();
  p.bitmap = bitmap.value().to_bytes();
  if (p.frag_count > kMaxWireFragments)
    return Error{Errc::corrupt, "absurd status fragment count"};
  if (p.bitmap.size() * 8 < p.frag_count)
    return Error{Errc::corrupt, "status bitmap too small"};
  if (r.value().remaining() != 0) return trailing_bytes();
  return p;
}

Result<MsgIdPacket> decode_msg_id(const Payload& wire) {
  MsgIdPacket p;
  Payload held;
  auto body = unseal(wire, held, p.checksum_ok);
  if (!body) return body.error();
  auto r = open(*body.value());
  if (!r) return r.error();
  auto msg_id = r.value().u64();
  if (!msg_id) return msg_id.error();
  p.msg_id = msg_id.value();
  if (r.value().remaining() != 0) return trailing_bytes();
  return p;
}

Result<StreamPacket> decode_stream(const Payload& wire) {
  auto r = open(wire);
  if (!r) return r.error();
  StreamPacket p;
  auto conn_id = r.value().u32();
  if (!conn_id) return conn_id.error();
  p.conn_id = conn_id.value();
  auto seq = r.value().u64();
  if (!seq) return seq.error();
  p.seq = seq.value();
  auto ack = r.value().u64();
  if (!ack) return ack.error();
  p.ack = ack.value();
  auto window = r.value().u32();
  if (!window) return window.error();
  p.window = window.value();
  auto payload = r.value().blob();
  if (!payload) return payload.error();
  p.payload = std::move(payload).take();
  if (r.value().remaining() != 0) return trailing_bytes();
  return p;
}

Result<McastDataPacket> decode_mcast_data(const Payload& wire) {
  auto r = open(wire);
  if (!r) return r.error();
  McastDataPacket p;
  auto group = r.value().str();
  if (!group) return group.error();
  p.group = group.value();
  auto msg_id = r.value().u64();
  if (!msg_id) return msg_id.error();
  p.msg_id = msg_id.value();
  auto frag_index = r.value().u32();
  if (!frag_index) return frag_index.error();
  p.frag_index = frag_index.value();
  auto frag_count = r.value().u32();
  if (!frag_count) return frag_count.error();
  p.frag_count = frag_count.value();
  auto total_len = r.value().u32();
  if (!total_len) return total_len.error();
  p.total_len = total_len.value();
  auto born = r.value().u64();
  if (!born) return born.error();
  p.born = static_cast<std::int64_t>(born.value());
  auto payload = r.value().blob();
  if (!payload) return payload.error();
  p.payload = std::move(payload).take();
  if (p.frag_count == 0 || p.frag_index >= p.frag_count)
    return Error{Errc::corrupt, "bad multicast fragment indices"};
  if (p.frag_count > kMaxWireFragments)
    return Error{Errc::corrupt, "absurd multicast fragment count"};
  if (p.frag_count > 1 && p.total_len == 0)
    return Error{Errc::corrupt, "multi-fragment multicast with zero length"};
  if (r.value().remaining() != 0) return trailing_bytes();
  return p;
}

Result<McastNackPacket> decode_mcast_nack(const Payload& wire) {
  auto r = open(wire);
  if (!r) return r.error();
  McastNackPacket p;
  auto group = r.value().str();
  if (!group) return group.error();
  p.group = group.value();
  auto msg_id = r.value().u64();
  if (!msg_id) return msg_id.error();
  p.msg_id = msg_id.value();
  auto count = r.value().u32();
  if (!count) return count.error();
  if (count.value() > kMaxWireFragments) return Error{Errc::corrupt, "absurd NACK count"};
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto idx = r.value().u32();
    if (!idx) return idx.error();
    p.missing.push_back(idx.value());
  }
  if (r.value().remaining() != 0) return trailing_bytes();
  return p;
}

Payload encode_rpc(RpcKind kind, std::uint64_t id, std::uint32_t tag, const Payload& body,
                   const Bytes* auth) {
  constexpr std::size_t kSpliceMin = 512;
  PayloadWriter w;
  w.u8(static_cast<std::uint8_t>(kind));
  w.u64(id);
  w.u32(tag);
  w.u32(static_cast<std::uint32_t>(body.size()));
  for (std::size_t i = 0; i < body.segment_count(); ++i) {
    const Payload::Segment& s = body.segment(i);
    if (s.len < kSpliceMin)
      w.raw(s.data(), s.len);
    else
      w.append(Payload(s.buf, s.off, s.len));
  }
  if (auth != nullptr) w.blob(*auth);
  return std::move(w).take();
}

Result<RpcFrame> decode_rpc(const Payload& wire) {
  PayloadCursor r(wire);
  RpcFrame f;
  auto kind = r.u8();
  if (!kind) return kind.error();
  f.kind = static_cast<RpcKind>(kind.value());
  auto id = r.u64();
  if (!id) return id.error();
  f.id = id.value();
  auto tag = r.u32();
  if (!tag) return tag.error();
  f.tag = tag.value();
  auto body = r.blob();
  if (!body) return body.error();
  f.body = std::move(body).take();
  if (f.kind == RpcKind::request || f.kind == RpcKind::oneway) {
    auto auth = r.blob();
    if (!auth) return auth.error();
    f.auth = std::move(auth).take();
  }
  if (r.remaining() != 0) return trailing_bytes();
  return f;
}

Payload encode_stream_frame(const Payload& message) {
  PayloadWriter w;
  w.blob(message);
  return std::move(w).take();
}

std::uint32_t stream_frame_length(const Payload& buffer) {
  PayloadCursor r(buffer);
  return r.u32().value();
}

bool bitmap_get(const Bytes& bitmap, std::uint32_t index) {
  std::size_t byte = index / 8;
  if (byte >= bitmap.size()) return false;
  return (bitmap[byte] >> (index % 8)) & 1;
}

void bitmap_set(Bytes& bitmap, std::uint32_t index) {
  std::size_t byte = index / 8;
  if (byte >= bitmap.size()) bitmap.resize(byte + 1, 0);
  bitmap[byte] |= static_cast<std::uint8_t>(1u << (index % 8));
}

Bytes make_bitmap(std::uint32_t bits) { return Bytes((bits + 7) / 8, 0); }

FragBitmap::FragBitmap(std::uint32_t bits) : nbytes_((bits + 7) / 8) {
  if (bits > kInlineBits) heap_ = std::make_unique<std::uint8_t[]>(nbytes_);  // zeroed
}

void FragBitmap::set(std::uint32_t index) {
  assert(index / 8 < nbytes_);
  // Through a named pointer: GCC 12 with -fsanitize=undefined drops the
  // subscript of `(c ? p : q)[i] |= v` and writes element 0.
  std::uint8_t* bytes = heap_ ? heap_.get() : inline_.data();
  bytes[index / 8] |= static_cast<std::uint8_t>(1u << (index % 8));
}

}  // namespace snipe::transport
