#include "transport/wire.hpp"

#include <cassert>

namespace snipe::transport {

namespace {
PacketType checksummed(PacketType t) {
  switch (t) {
    case PacketType::data: return PacketType::data_ck;
    case PacketType::status: return PacketType::status_ck;
    case PacketType::msg_ack: return PacketType::msg_ack_ck;
    case PacketType::probe: return PacketType::probe_ck;
    default: return t;
  }
}

bool is_checksummed(PacketType t) {
  return PacketType::data_ck <= t && t <= PacketType::probe_ck;
}

// The bytes a packet's fields are read from: `wire` itself or, for a
// checksummed twin, its bytes before the trailer (kept in `held`); `ok`
// reports whether the trailer matched them.  nullptr when `wire` is too
// short to hold its type (and a twin's trailer).
const Payload* unseal(const Payload& wire, Payload& held, bool& ok) {
  if (wire.empty()) return nullptr;
  if (!is_checksummed(static_cast<PacketType>(wire[0]))) return &wire;
  if (wire.size() < 5) return nullptr;
  const std::size_t n = wire.size() - 4;
  held = wire.slice(0, n);
  std::uint32_t sum = 0;
  for (std::size_t i = n; i < wire.size(); ++i) sum = sum << 8 | wire[i];
  ok = payload_checksum(held) == sum;
  return &held;
}
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

Result<void> check_fragment(std::uint32_t index, std::uint32_t count, std::uint32_t total_len) {
  if (count == 0 || index >= count) return Error{Errc::corrupt, "bad fragment indices"};
  if (count > kMaxWireFragments) return Error{Errc::corrupt, "absurd fragment count"};
  if (count > 1 && total_len == 0)
    return Error{Errc::corrupt, "multi-fragment message with zero length"};
  return ok_result();
}

template <class P>
Payload encode_packet(PacketType type, const P& p, bool with_checksum) {
  PayloadWriter w;
  w.u8(static_cast<std::uint8_t>(with_checksum ? checksummed(type) : type));
  codec::Writer<PayloadWriter> io(w);
  io(p);
  Payload packet = std::move(w).take();
  if (with_checksum) {
    PayloadWriter sealed;
    sealed.append(packet);
    sealed.u32(payload_checksum(packet));
    packet = std::move(sealed).take();
  }
  return packet;
}

Result<PacketHead> decode_head(const Payload& wire) {
  if (wire.empty()) return Error{Errc::corrupt, "empty packet"};
  return PacketHead{static_cast<PacketType>(wire[0])};
}

template <class P>
Result<P> decode_packet(const Payload& wire) {
  Payload held;
  bool checksum_ok = true;
  const Payload* body = unseal(wire, held, checksum_ok);
  Result<P> p = body != nullptr ? decode_tagged<P>(*body)
                                : Result<P>(Errc::corrupt, "short packet");
  if (p) {
    if constexpr (requires(P& q) { q.checksum_ok; }) p.value().checksum_ok = checksum_ok;
    if constexpr (requires(P& q) { q.has_checksum; })
      p.value().has_checksum = static_cast<PacketType>(wire[0]) == PacketType::data_ck;
  }
  return p;
}

template Payload encode_packet(PacketType, const DataPacket&, bool);
template Payload encode_packet(PacketType, const StatusPacket&, bool);
template Payload encode_packet(PacketType, const MsgIdPacket&, bool);
template Payload encode_packet(PacketType, const StreamPacket&, bool);
template Payload encode_packet(PacketType, const McastDataPacket&, bool);
template Payload encode_packet(PacketType, const McastNackPacket&, bool);
template Result<DataPacket> decode_packet(const Payload&);
template Result<StatusPacket> decode_packet(const Payload&);
template Result<MsgIdPacket> decode_packet(const Payload&);
template Result<StreamPacket> decode_packet(const Payload&);
template Result<McastDataPacket> decode_packet(const Payload&);
template Result<McastNackPacket> decode_packet(const Payload&);

std::uint32_t stream_frame_length(const Payload& buffer) {
  std::uint32_t len = 0;
  for (std::size_t i = 0; i < kStreamFrameHeaderBytes; ++i) len = len << 8 | buffer[i];
  return len;
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
