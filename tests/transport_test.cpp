// Tests for the SNIPE communications module: SRUDP reliability/ordering/
// fragmentation/failover, the TCP-like stream, wire codecs, multipath
// policy, and the experimental Ethernet multicast.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "obs/trace.hpp"
#include "simnet/fault.hpp"
#include "transport/ethmcast.hpp"
#include "transport/multipath.hpp"
#include "transport/rpc.hpp"
#include "transport/srudp.hpp"
#include "transport/stream.hpp"
#include "transport/wire.hpp"

namespace snipe::transport {
namespace {

using simnet::Address;
using simnet::World;

Bytes pattern_bytes(std::size_t n, std::uint32_t seed = 1) {
  Bytes b(n);
  std::uint32_t x = seed;
  for (std::size_t i = 0; i < n; ++i) {
    x = x * 1664525u + 1013904223u;
    b[i] = static_cast<std::uint8_t>(x >> 24);
  }
  return b;
}

/// A message shaped the way applications build them: a 16-byte header in
/// its own vector plus a slice of a shared buffer.
Payload header_plus_slice(std::uint64_t seq, const Payload::Buffer& shared, std::size_t off,
                          std::size_t len) {
  ByteWriter h;
  h.u64(seq);
  h.u64(off);
  Payload m(std::move(h).take());
  m.append(Payload(shared, off, len));
  return m;
}

/// Where byte `pos` of `m` lives, read from the segment that holds it.
const std::uint8_t* byte_address(const Payload& m, std::size_t pos) {
  for (std::size_t i = 0; i < m.segment_count(); ++i) {
    const Payload::Segment& s = m.segment(i);
    if (pos < s.len) return s.data() + pos;
    pos -= s.len;
  }
  return nullptr;
}

/// Checks a delivered header+slice message: the body is one segment whose
/// bytes are the sender's own, read in place (pointer equality).
void expect_body_aliases(const Payload& m, const Payload::Buffer& shared, std::size_t len) {
  ASSERT_EQ(m.size(), 16 + len);
  PayloadCursor r(m);
  (void)r.u64();
  const std::size_t off = r.u64().value();
  EXPECT_EQ(byte_address(m, 16), shared->data() + off);
  EXPECT_EQ(m.segment(m.segment_count() - 1).len, len);
}

/// Counts delivered header+slice messages whose body differs from the
/// sender's bytes.
std::size_t count_altered(const std::vector<Payload>& got, const Bytes& original) {
  std::size_t altered = 0;
  for (const Payload& m : got) {
    PayloadCursor r(m);
    auto seq = r.u64();
    auto off = r.u64();
    const Payload body = m.slice(16, m.size() - 16);
    if (!seq || !off || off.value() + body.size() > original.size() ||
        !(body == Bytes(original.begin() + static_cast<std::ptrdiff_t>(off.value()),
                        original.begin() +
                            static_cast<std::ptrdiff_t>(off.value() + body.size()))))
      ++altered;
  }
  return altered;
}

// ---- wire codecs ----

TEST(Wire, DataRoundTrip) {
  DataPacket p{77, 3, 9, 12345, pattern_bytes(100)};
  auto wire = encode_packet(PacketType::data, p);
  auto head = decode_head(wire).value();
  EXPECT_EQ(head.type, PacketType::data);
  auto q = decode_packet<DataPacket>(wire).value();
  EXPECT_EQ(q.msg_id, 77u);
  EXPECT_EQ(q.frag_index, 3u);
  EXPECT_EQ(q.frag_count, 9u);
  EXPECT_EQ(q.total_len, 12345u);
  EXPECT_EQ(q.payload, p.payload);
}

TEST(Wire, DataChecksumRoundTripAndDetectsCorruption) {
  DataPacket p{77, 3, 9, 12345, pattern_bytes(100)};
  auto wire = encode_packet(PacketType::data, p, /*with_checksum=*/true);
  EXPECT_EQ(decode_head(wire).value().type, PacketType::data_ck);
  auto q = decode_packet<DataPacket>(wire).value();
  EXPECT_TRUE(q.has_checksum);
  EXPECT_TRUE(q.checksum_ok);
  EXPECT_EQ(q.payload, p.payload);

  // Flip one payload byte: the packet still decodes (the caller decides
  // whether to drop), but the mismatch is flagged.
  Bytes mangled = wire.to_bytes();
  mangled.back() ^= 0x01;
  auto bad = decode_packet<DataPacket>(Payload(std::move(mangled))).value();
  EXPECT_TRUE(bad.has_checksum);
  EXPECT_FALSE(bad.checksum_ok);
}

TEST(Wire, PlainDataCarriesNoChecksum) {
  DataPacket p{1, 0, 1, 4, pattern_bytes(4)};
  auto q = decode_packet<DataPacket>(encode_packet(PacketType::data, p)).value();
  EXPECT_FALSE(q.has_checksum);
  EXPECT_TRUE(q.checksum_ok);  // vacuously: nothing to verify
}

TEST(Wire, DataRejectsBadIndices) {
  DataPacket p{1, 5, 5, 10, {}};  // index == count
  EXPECT_FALSE(decode_packet<DataPacket>(encode_packet(PacketType::data, p)).ok());
}

TEST(Wire, StatusRoundTripAndBitmapCheck) {
  StatusPacket p{9, 10, make_bitmap(10)};
  bitmap_set(p.bitmap, 0);
  bitmap_set(p.bitmap, 9);
  auto q = decode_packet<StatusPacket>(encode_packet(PacketType::status, p)).value();
  EXPECT_TRUE(bitmap_get(q.bitmap, 0));
  EXPECT_FALSE(bitmap_get(q.bitmap, 5));
  EXPECT_TRUE(bitmap_get(q.bitmap, 9));

  StatusPacket bad{9, 100, make_bitmap(10)};  // bitmap too small for count
  EXPECT_FALSE(decode_packet<StatusPacket>(encode_packet(PacketType::status, bad)).ok());
}

TEST(Wire, StreamRoundTrip) {
  StreamPacket p{5, 1000, 2000, 65536, pattern_bytes(64)};
  auto q = decode_packet<StreamPacket>(encode_packet(PacketType::seg, p)).value();
  EXPECT_EQ(q.conn_id, 5u);
  EXPECT_EQ(q.seq, 1000u);
  EXPECT_EQ(q.ack, 2000u);
  EXPECT_EQ(q.window, 65536u);
  EXPECT_EQ(q.payload, p.payload);
}

TEST(Wire, McastRoundTrip) {
  McastDataPacket p{"urn:snipe:group:g", 3, 1, 4, 999, /*born=*/123456789, pattern_bytes(32)};
  auto q = decode_packet<McastDataPacket>(encode_packet(PacketType::mdata, p)).value();
  EXPECT_EQ(q.group, p.group);
  EXPECT_EQ(q.payload, p.payload);
  EXPECT_EQ(q.born, p.born);

  McastNackPacket n{"urn:snipe:group:g", 3, {0, 2, 5}};
  auto m = decode_packet<McastNackPacket>(encode_packet(PacketType::mnack, n)).value();
  EXPECT_EQ(m.missing, n.missing);
}

TEST(Wire, HeaderSizeConstantsMatchReality) {
  // Headers hold only what the receiver cannot derive: no reply port (the
  // datagram's source port) and no trace flow id (minted at each end).
  DataPacket p{1, 0, 1, 0, {}};
  EXPECT_EQ(encode_packet(PacketType::data, p).size(), kDataHeaderBytes);
  EXPECT_EQ(kDataHeaderBytes, 25u);
  EXPECT_EQ(encode_packet(PacketType::data, p, /*with_checksum=*/true).size(), kDataCkHeaderBytes);
  EXPECT_EQ(kDataCkHeaderBytes, 29u);
  StreamPacket s{1, 0, 0, 0, {}};
  EXPECT_EQ(encode_packet(PacketType::seg, s).size(), kStreamHeaderBytes);
  EXPECT_EQ(kStreamHeaderBytes, 29u);
  EXPECT_EQ(kStreamFrameHeaderBytes, 4u);

  // A stream message adds exactly its frame header to the byte stream.
  World world(1);
  world.create_network("net", simnet::ethernet100());
  world.attach(world.create_host("a"), *world.network("net"));
  world.attach(world.create_host("b"), *world.network("net"));
  StreamEndpoint client(*world.host("a"), 8001), server(*world.host("b"), 8002);
  std::shared_ptr<StreamConnection> accepted;
  server.listen([&](std::shared_ptr<StreamConnection> conn) { accepted = conn; });
  auto conn = client.connect(server.address());
  conn->send_message(pattern_bytes(100));
  world.engine().run();
  EXPECT_EQ(conn->stats().bytes_sent, 100 + kStreamFrameHeaderBytes);
  EXPECT_EQ(conn->unacked_bytes(), 0u);
}

TEST(Wire, RejectsAbsurdFragmentCounts) {
  // Hostile-input bound (kMaxWireFragments): a forged count must be
  // rejected before any receiver sizes buffers from it.
  DataPacket d{1, 0, kMaxWireFragments + 1, 10, pattern_bytes(4)};
  EXPECT_FALSE(decode_packet<DataPacket>(encode_packet(PacketType::data, d)).ok());

  StatusPacket s{1, kMaxWireFragments + 1, make_bitmap(8)};
  EXPECT_FALSE(decode_packet<StatusPacket>(encode_packet(PacketType::status, s)).ok());

  McastDataPacket m{"g", 1, 0, kMaxWireFragments + 1, 10, 0, pattern_bytes(4)};
  EXPECT_FALSE(decode_packet<McastDataPacket>(encode_packet(PacketType::mdata, m)).ok());

  // A multi-fragment message claiming zero total length is equally bogus.
  DataPacket z{1, 0, 3, 0, pattern_bytes(4)};
  EXPECT_FALSE(decode_packet<DataPacket>(encode_packet(PacketType::data, z)).ok());

  // NACK with a forged element count (hand-built: the encoder cannot
  // produce one without allocating the giant vector first).
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(PacketType::mnack));
  w.str("g");
  w.u64(3);
  w.u32(kMaxWireFragments + 1);
  EXPECT_FALSE(decode_packet<McastNackPacket>(std::move(w).take()).ok());
}

TEST(Wire, RpcFrameSplicesOnlyBulkBodySegments) {
  // A control-sized body and its authenticator are copied into the frame's
  // header chunk, so the frame is one segment; a bulk body is spliced by
  // reference, aliasing the caller's buffer.
  const Payload small(pattern_bytes(100));
  const Payload framed_small =
      encode_payload(RpcFrame{RpcKind::request, 1, 2, small, Payload(Bytes(16, 7))});
  EXPECT_EQ(framed_small.segment_count(), 1u);
  EXPECT_EQ(decode<RpcFrame>(framed_small).value().body, small);

  const Payload bulk(pattern_bytes(600));
  const Payload framed_bulk = encode_payload(RpcFrame{RpcKind::response, 1, 2, bulk, {}});
  ASSERT_EQ(framed_bulk.segment_count(), 2u);
  EXPECT_EQ(framed_bulk.segment(1).buf, bulk.segment(0).buf);
  EXPECT_EQ(decode<RpcFrame>(framed_bulk).value().body, bulk);
}

TEST(Wire, BitmapHelpers) {
  Bytes bm = make_bitmap(17);
  EXPECT_EQ(bm.size(), 3u);
  for (std::uint32_t i = 0; i < 17; ++i) EXPECT_FALSE(bitmap_get(bm, i));
  bitmap_set(bm, 16);
  EXPECT_TRUE(bitmap_get(bm, 16));
  EXPECT_FALSE(bitmap_get(bm, 100));  // out of range reads as unset

  // FragBitmap keeps the same layout, inline up to kInlineBits and on the
  // heap past it.
  for (std::uint32_t bits : {17u, FragBitmap::kInlineBits, FragBitmap::kInlineBits + 73}) {
    FragBitmap frag(bits);
    Bytes want = make_bitmap(bits);
    for (std::uint32_t i = 0; i < bits; i += 3) {
      frag.set(i);
      bitmap_set(want, i);
    }
    frag.set(bits - 1);
    bitmap_set(want, bits - 1);
    EXPECT_EQ(frag.to_bytes(), want) << bits;
    for (std::uint32_t i = 0; i < bits; ++i) EXPECT_EQ(frag.get(i), bitmap_get(want, i)) << i;
    EXPECT_FALSE(frag.get(bits + 100));
  }
}

// ---- SRUDP ----

struct SrudpPair {
  explicit SrudpPair(std::uint64_t seed = 1, simnet::MediaModel media = simnet::ethernet100(),
                     SrudpConfig cfg = {})
      : world(seed) {
    world.create_network("net", media);
    auto& ha = world.create_host("a");
    auto& hb = world.create_host("b");
    world.attach(ha, *world.network("net"));
    world.attach(hb, *world.network("net"));
    a = std::make_unique<SrudpEndpoint>(ha, 7001, cfg);
    b = std::make_unique<SrudpEndpoint>(hb, 7002, cfg);
    b->set_handler([this](const Address& src, Payload msg) {
      received.emplace_back(src, msg.to_bytes());
    });
  }
  World world;
  std::unique_ptr<SrudpEndpoint> a, b;
  std::vector<std::pair<Address, Bytes>> received;
};

// Two Worlds alive on one thread: the older one's components stamp their log
// records and trace events with their own engine's clock, not the newer
// World's.  A zero TTL makes the send expire on the spot, which logs a
// warning and records an "srudp.expire" instant.
TEST(Srudp, OlderWorldStampsItsLogAndTraceWithItsOwnClock) {
  std::vector<std::pair<std::string, std::optional<std::int64_t>>> records;
  LogSink old_sink = set_log_sink([&](LogLevel, std::optional<std::int64_t> stamp,
                                      const std::string& component, const std::string&) {
    records.emplace_back(component, stamp);
  });

  SrudpConfig cfg;
  cfg.msg_ttl = 0;
  SrudpPair older(1, simnet::ethernet100(), cfg);
  SrudpPair newer(2);
  obs::Tracer& tracer = older.world.tracer();
  tracer.set_enabled(true);
  newer.world.run_until(duration::seconds(1));
  older.world.engine().schedule_at(duration::seconds(5), [&older] {
    older.a->send(older.b->address(), to_bytes("late"));
  });
  older.world.run_until(duration::seconds(6));
  set_log_sink(old_sink);

  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].first, "srudp@a:7001");
  EXPECT_EQ(records[0].second, std::optional<std::int64_t>(duration::seconds(5)));
  std::vector<obs::TraceEvent> expired;
  for (const auto& e : tracer.events())
    if (e.name == "srudp.expire") expired.push_back(e);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].ts, duration::seconds(5));
  EXPECT_TRUE(newer.world.tracer().events().empty());
}

// Whether `wire` still parses as the SRUDP packet its head names.
bool parses_as_srudp(const Bytes& wire) {
  auto head = decode_head(wire);
  if (!head) return false;
  switch (head.value().type) {
    case PacketType::data:
    case PacketType::data_ck:
      return decode_packet<DataPacket>(wire).ok();
    case PacketType::status:
    case PacketType::status_ck:
      return decode_packet<StatusPacket>(wire).ok();
    case PacketType::msg_ack:
    case PacketType::msg_ack_ck:
    case PacketType::probe:
    case PacketType::probe_ck:
      return decode_packet<MsgIdPacket>(wire).ok();
    default:
      return false;
  }
}

// With SrudpConfig::checksum on, no single flipped bit anywhere in a
// packet (type, header or payload) is acted on: the packet is dropped and
// counted, or no longer parses at all.  Raw ports pose as each endpoint's
// peer and inject every flip of a real STATUS, MSG_ACK, PROBE and DATA.
// Without whole-packet coverage a flipped MSG_ACK id retires another
// in-flight message.
TEST(SrudpChecksum, NoSingleBitFlipIsActedOn) {
  World world(1);
  world.create_network("net", simnet::myrinet());
  simnet::Host& a = world.create_host("a");
  simnet::Host& b = world.create_host("b");
  world.attach(a, *world.network("net"));
  world.attach(b, *world.network("net"));
  SrudpConfig ck;
  ck.checksum = true;
  SrudpEndpoint sender(a, 7001, ck), receiver(b, 7002, ck);
  int delivered = 0;
  receiver.set_handler([&](const Address&, Payload) { ++delivered; });
  // Whatever an endpoint sends its fake peer lands on that peer's port.
  int at_fake_receiver = 0, at_fake_sender = 0;
  b.bind(7003, [&](const simnet::Packet&) { ++at_fake_receiver; }).value();
  a.bind(7004, [&](const simnet::Packet&) { ++at_fake_sender; }).value();
  const Address fake_receiver{"b", 7003}, fake_sender{"a", 7004};

  auto inject = [&](simnet::Host& from, const Address& as, const Address& to, Bytes wire) {
    simnet::SendOptions opts;
    opts.src_port = as.port;
    ASSERT_TRUE(from.send(to, Payload(std::move(wire)), opts).ok());
    world.run_until(world.engine().now() + duration::microseconds(100));
  };
  // Injects every single-bit flip of `real`; `unchanged` must hold after
  // each, and each flip that still parses must count as a checksum reject.
  auto every_flip = [&](const Payload& real, simnet::Host& from, const Address& as,
                        SrudpEndpoint& to, auto unchanged) {
    const Bytes bytes = real.to_bytes();
    for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
      Bytes flipped = bytes;
      flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      const std::uint64_t rejects = to.stats().checksum_rejects;
      const bool parses = parses_as_srudp(flipped);
      inject(from, as, to.address(), std::move(flipped));
      EXPECT_TRUE(unchanged()) << "bit " << bit;
      EXPECT_EQ(to.stats().checksum_rejects - rejects, parses ? 1u : 0u) << "bit " << bit;
    }
  };

  // Three one-fragment messages in flight to the fake receiver.
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 3; ++i) ids.push_back(sender.send(fake_receiver, pattern_bytes(64)));
  world.run_until(world.engine().now() + duration::microseconds(100));
  ASSERT_EQ(at_fake_receiver, 3);

  // STATUS (before the first RTO, which would also resend): an intact one
  // reporting nothing received makes the sender resend at once.
  const Payload status =
      encode_packet(PacketType::status, StatusPacket{ids[1], 1, Bytes{0}}, /*with_checksum=*/true);
  every_flip(status, b, fake_receiver, sender, [&] { return at_fake_receiver == 3; });
  inject(b, fake_receiver, sender.address(), status.to_bytes());
  EXPECT_EQ(at_fake_receiver, 4);

  // MSG_ACK: only the intact ack retires its message.
  const Payload ack =
      encode_packet(PacketType::msg_ack, MsgIdPacket{ids[1]}, /*with_checksum=*/true);
  every_flip(ack, b, fake_receiver, sender, [&] { return sender.pending() == 3; });
  inject(b, fake_receiver, sender.address(), ack.to_bytes());
  EXPECT_EQ(sender.pending(), 2u);

  // PROBE: an intact probe for a message never seen draws an empty STATUS.
  // The fake sender's first message takes the first id, as ids[0] did.
  const Payload probe =
      encode_packet(PacketType::probe, MsgIdPacket{ids[0]}, /*with_checksum=*/true);
  every_flip(probe, a, fake_sender, receiver, [&] { return at_fake_sender == 0; });
  inject(a, fake_sender, receiver.address(), probe.to_bytes());
  EXPECT_EQ(at_fake_sender, 1);

  // DATA: an intact one-fragment message is delivered and acknowledged.
  const Payload data = encode_packet(
      PacketType::data, DataPacket{ids[0], 0, 1, 4, pattern_bytes(4)}, /*with_checksum=*/true);
  every_flip(data, a, fake_sender, receiver,
             [&] { return delivered == 0 && at_fake_sender == 1; });
  inject(a, fake_sender, receiver.address(), data.to_bytes());
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(at_fake_sender, 2);
}

TEST(Srudp, SmallMessageDelivered) {
  SrudpPair p;
  p.a->send(p.b->address(), to_bytes("hello"));
  p.world.engine().run();
  ASSERT_EQ(p.received.size(), 1u);
  EXPECT_EQ(to_string(p.received[0].second), "hello");
  EXPECT_EQ(p.received[0].first, p.a->address());
  EXPECT_EQ(p.a->pending(), 0u);
  EXPECT_EQ(p.a->stats().fragments_retransmitted, 0u);
}

TEST(Srudp, EmptyMessageDelivered) {
  SrudpPair p;
  p.a->send(p.b->address(), Bytes{});
  p.world.engine().run();
  ASSERT_EQ(p.received.size(), 1u);
  EXPECT_TRUE(p.received[0].second.empty());
}

TEST(Srudp, LargeMessageFragmentsAndReassembles) {
  SrudpPair p;
  Bytes big = pattern_bytes(1 << 20);  // 1 MiB over 1500-MTU Ethernet
  p.a->send(p.b->address(), big);
  p.world.engine().run();
  ASSERT_EQ(p.received.size(), 1u);
  EXPECT_EQ(p.received[0].second, big);
  // ~1 MiB / ~1473 B per fragment.
  EXPECT_GT(p.a->stats().fragments_sent, 700u);
  EXPECT_EQ(p.a->stats().messages_delivered, 0u);  // a received nothing
  EXPECT_EQ(p.b->stats().messages_delivered, 1u);
}

TEST(Srudp, DeliveredBodyAliasesTheSendersBuffer) {
  // Delivery hands over the reassembled segments as they are: no flatten,
  // so the body is read straight out of the sender's buffer.
  SrudpPair p;
  auto shared = std::make_shared<const Bytes>(pattern_bytes(256 << 10));
  std::vector<Payload> got;
  p.b->set_handler([&](const Address&, Payload m) { got.push_back(std::move(m)); });
  p.a->send(p.b->address(), header_plus_slice(0, shared, 1000, 4096));
  p.a->send(p.b->address(), header_plus_slice(1, shared, 7000, 64 << 10));
  p.world.engine().run();
  ASSERT_EQ(got.size(), 2u);
  expect_body_aliases(got[0], shared, 4096);
  expect_body_aliases(got[1], shared, 64 << 10);
}

TEST(Srudp, CorruptionAltersTheDeliveredCopyNeverTheSendersBuffer) {
  SrudpPair p(5);
  simnet::FaultProfile prof;
  prof.corrupt = 0.2;
  prof.corrupt_max_bytes = 1;
  simnet::FaultPlan plan(p.world, 11);
  plan.inject("net", prof);
  const Bytes original = pattern_bytes(64 << 10, 3);
  auto shared = std::make_shared<const Bytes>(original);
  std::vector<Payload> got;
  p.b->set_handler([&](const Address&, Payload m) { got.push_back(std::move(m)); });
  for (std::uint64_t i = 0; i < 6; ++i)
    p.a->send(p.b->address(), header_plus_slice(i, shared, i * 8192, 8192));
  p.world.engine().run();
  EXPECT_GT(plan.injector("net")->stats().corrupted.load(), 0u);
  ASSERT_FALSE(got.empty());
  EXPECT_GT(count_altered(got, original), 0u);
  EXPECT_EQ(*shared, original);  // the flips landed on clones
}

TEST(Srudp, ManyMessagesDeliveredInOrder) {
  SrudpPair p;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    ByteWriter w;
    w.i32(i);
    p.a->send(p.b->address(), std::move(w).take());
  }
  p.world.engine().run();
  ASSERT_EQ(p.received.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ByteReader r(p.received[i].second);
    EXPECT_EQ(r.i32().value(), i);
  }
}

TEST(Srudp, SurvivesHeavyLoss) {
  SrudpPair p(99);
  p.world.network("net")->set_extra_loss(0.20);
  Bytes big = pattern_bytes(200'000);
  p.a->send(p.b->address(), big);
  for (int i = 0; i < 30; ++i) {
    ByteWriter w;
    w.i32(i);
    p.a->send(p.b->address(), std::move(w).take());
  }
  p.world.engine().run();
  ASSERT_EQ(p.received.size(), 31u);
  EXPECT_EQ(p.received[0].second, big);
  EXPECT_GT(p.a->stats().fragments_retransmitted, 0u);
  EXPECT_EQ(p.a->stats().messages_expired, 0u);
  EXPECT_EQ(p.b->stats().messages_skipped, 0u);
}

TEST(Srudp, ChecksumRejectsCorruptFragmentsYetDeliveryConverges) {
  SrudpConfig cfg;
  cfg.checksum = true;
  SrudpPair p(1234, simnet::ethernet100(), cfg);
  simnet::FaultProfile prof;
  prof.corrupt = 0.05;
  prof.corrupt_max_bytes = 8;
  simnet::FaultPlan plan(p.world, 4321);
  plan.inject("net", prof);

  Bytes big = pattern_bytes(400'000);
  p.a->send(p.b->address(), big);
  p.world.engine().run();

  // Corrupt fragments were caught and dropped, the sender's RTO resent
  // them, and the message still arrived byte-identical.
  ASSERT_EQ(p.received.size(), 1u);
  EXPECT_EQ(p.received[0].second, big);
  EXPECT_GT(p.b->stats().checksum_rejects.v, 0u);
  EXPECT_GT(p.a->stats().fragments_retransmitted.v, 0u);
  EXPECT_EQ(p.a->stats().messages_expired.v, 0u);
}

TEST(Srudp, ChecksummingReceiverAcceptsPlainData) {
  // One side upgraded, the other not: a checksumming receiver must still
  // accept legacy DATA fragments (the feature is per-sender opt-in).
  World world(77);
  world.create_network("net", simnet::ethernet100());
  auto& ha = world.create_host("a");
  auto& hb = world.create_host("b");
  world.attach(ha, *world.network("net"));
  world.attach(hb, *world.network("net"));
  SrudpConfig plain;
  SrudpConfig checked;
  checked.checksum = true;
  SrudpEndpoint a(ha, 7001, plain);
  SrudpEndpoint b(hb, 7002, checked);
  std::vector<Bytes> got;
  b.set_handler([&](const Address&, Payload msg) { got.push_back(msg.to_bytes()); });

  Bytes msg = pattern_bytes(50'000);
  a.send(b.address(), msg);
  world.engine().run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], msg);
  EXPECT_EQ(b.stats().checksum_rejects.v, 0u);
}

TEST(Srudp, ChecksumIsOffByDefault) {
  EXPECT_FALSE(SrudpConfig{}.checksum);
  SrudpPair p;
  p.a->send(p.b->address(), pattern_bytes(10'000));
  p.world.engine().run();
  ASSERT_EQ(p.received.size(), 1u);
  EXPECT_EQ(p.b->stats().checksum_rejects.v, 0u);
}

TEST(Srudp, ExactlyOnceUnderLossAndDuplicates) {
  SrudpPair p(7);
  p.world.network("net")->set_extra_loss(0.3);
  const int n = 50;
  for (int i = 0; i < n; ++i) p.a->send(p.b->address(), pattern_bytes(5000, i + 1));
  p.world.engine().run();
  ASSERT_EQ(p.received.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) EXPECT_EQ(p.received[i].second, pattern_bytes(5000, i + 1));
}

TEST(Srudp, BuffersWhileReceiverTemporarilyDown) {
  // §6: "migrating or temporarily unavailable tasks did not result in lost
  // messages".
  SrudpPair p;
  p.world.host("b")->set_up(false);
  p.a->send(p.b->address(), to_bytes("patience"));
  p.world.engine().run_for(duration::seconds(2));
  EXPECT_TRUE(p.received.empty());
  EXPECT_EQ(p.a->pending(), 1u);
  p.world.host("b")->set_up(true);
  p.world.engine().run();
  ASSERT_EQ(p.received.size(), 1u);
  EXPECT_EQ(to_string(p.received[0].second), "patience");
  EXPECT_EQ(p.a->pending(), 0u);
}

TEST(Srudp, ExpiresAfterTtlWhenReceiverGone) {
  SrudpConfig cfg;
  cfg.msg_ttl = duration::seconds(3);
  SrudpPair p(1, simnet::ethernet100(), cfg);
  p.world.host("b")->set_up(false);
  p.a->send(p.b->address(), to_bytes("doomed"));
  p.world.engine().run();
  EXPECT_EQ(p.a->pending(), 0u);
  EXPECT_EQ(p.a->stats().messages_expired, 1u);
  EXPECT_TRUE(p.received.empty());
}

TEST(Srudp, HeadOfLineGapSkippedAfterSenderGivesUp) {
  SrudpConfig cfg;
  cfg.msg_ttl = duration::seconds(2);
  cfg.hol_skip = duration::seconds(1);
  SrudpPair p(1, simnet::ethernet100(), cfg);
  // Message 1 dies (receiver down past the sender's TTL; the expiry fires
  // on the first retransmission timeout after the deadline)...
  p.world.host("b")->set_up(false);
  p.a->send(p.b->address(), to_bytes("first"));
  p.world.engine().run_for(duration::seconds(5));
  EXPECT_EQ(p.a->stats().messages_expired, 1u);
  // ...then message 2 arrives and must not be blocked forever.
  p.world.host("b")->set_up(true);
  p.a->send(p.b->address(), to_bytes("second"));
  p.world.engine().run();
  ASSERT_EQ(p.received.size(), 1u);
  EXPECT_EQ(to_string(p.received[0].second), "second");
  EXPECT_EQ(p.b->stats().messages_skipped, 1u);
}

TEST(Srudp, BidirectionalEcho) {
  SrudpPair p;
  p.b->set_handler([&](const Address& src, Payload msg) {
    p.b->send(src, msg);  // echo
  });
  std::vector<Bytes> echoes;
  p.a->set_handler([&](const Address&, Payload msg) { echoes.push_back(msg.to_bytes()); });
  for (int i = 0; i < 10; ++i) p.a->send(p.b->address(), pattern_bytes(3000, i));
  p.world.engine().run();
  ASSERT_EQ(echoes.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(echoes[i], pattern_bytes(3000, i));
}

TEST(Srudp, FailsOverToSecondNetworkWhenLinkDies) {
  // Dual-homed hosts: ATM is fastest and chosen first; killing it mid-
  // transfer must switch the route to Ethernet without losing the message.
  World world(5);
  world.create_network("atm", simnet::atm155());
  world.create_network("eth", simnet::ethernet100());
  auto& ha = world.create_host("a");
  auto& hb = world.create_host("b");
  for (auto* h : {&ha, &hb}) {
    world.attach(*h, *world.network("atm"));
    world.attach(*h, *world.network("eth"));
  }
  SrudpEndpoint a(ha, 7001), b(hb, 7002);
  std::vector<Bytes> got;
  b.set_handler([&](const Address&, Payload msg) { got.push_back(msg.to_bytes()); });

  Bytes big = pattern_bytes(2 << 20);
  a.send(b.address(), big);
  // Let a few fragments flow on ATM, then silently kill the *receiver's*
  // ATM interface: the sender cannot see that, keeps transmitting into a
  // black hole, and must discover the failure through timeouts — the case
  // MultipathPolicy exists for.  (A network the sender can see down is
  // routed around at send time without the policy.)
  world.engine().run_for(duration::milliseconds(5));
  hb.nic_on("atm")->set_up(false);
  world.engine().run();

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], big);
  EXPECT_GE(a.stats().route_switches, 1);
  EXPECT_GT(world.network("eth")->stats().packets_delivered, 0u);
}

TEST(Srudp, MtuRespectedPerNetwork) {
  // Fragments must fit the *smallest* attached MTU so failover never
  // produces an oversize datagram.
  World world(5);
  world.create_network("atm", simnet::atm155());   // MTU 9180
  world.create_network("eth", simnet::ethernet100());  // MTU 1500
  auto& ha = world.create_host("a");
  auto& hb = world.create_host("b");
  for (auto* h : {&ha, &hb}) {
    world.attach(*h, *world.network("atm"));
    world.attach(*h, *world.network("eth"));
  }
  SrudpEndpoint a(ha, 7001), b(hb, 7002);
  int count = 0;
  b.set_handler([&](const Address&, Payload) { ++count; });
  a.send(b.address(), pattern_bytes(100'000));
  world.engine().run();
  EXPECT_EQ(count, 1);
  // ~100000/1473 fragments — i.e. sized for Ethernet, not ATM.
  EXPECT_GT(a.stats().fragments_sent, 60u);
}

TEST(Srudp, ThroughputApproachesMediaLimitOnEthernet) {
  SrudpPair p;
  Bytes big = pattern_bytes(4 << 20);
  SimTime start = p.world.now();
  p.a->send(p.b->address(), big);
  p.world.engine().run();
  ASSERT_EQ(p.received.size(), 1u);
  double secs = to_seconds(p.world.now() - start);
  double mbps = static_cast<double>(big.size()) / secs / 1e6;
  // 100 Mb/s Ethernet tops out at 12.5 MB/s; headers cost a few percent.
  EXPECT_GT(mbps, 10.0);
  EXPECT_LT(mbps, 12.5);
}

TEST(Srudp, InterleavedPeersDoNotInterfere) {
  World world(3);
  world.create_network("net", simnet::ethernet100());
  auto& ha = world.create_host("a");
  auto& hb = world.create_host("b");
  auto& hc = world.create_host("c");
  for (auto* h : {&ha, &hb, &hc}) world.attach(*h, *world.network("net"));
  SrudpEndpoint a(ha, 7001), b(hb, 7002), c(hc, 7003);
  std::vector<Bytes> from_a_at_b, from_c_at_b;
  b.set_handler([&](const Address& src, Payload msg) {
    (src.host == "a" ? from_a_at_b : from_c_at_b).push_back(msg.to_bytes());
  });
  for (int i = 0; i < 20; ++i) {
    a.send(b.address(), pattern_bytes(2000, 100 + i));
    c.send(b.address(), pattern_bytes(2000, 200 + i));
  }
  world.engine().run();
  ASSERT_EQ(from_a_at_b.size(), 20u);
  ASSERT_EQ(from_c_at_b.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(from_a_at_b[i], pattern_bytes(2000, 100 + i));
    EXPECT_EQ(from_c_at_b[i], pattern_bytes(2000, 200 + i));
  }
}

TEST(Srudp, PeersOnOneHostAreKeptApartByPort) {
  // Peers are (host, port) pairs: two senders on one host both number their
  // messages from 1, so a receiver keying peers by host alone would drop
  // one stream as duplicates of the other.
  World world(5);
  world.create_network("net", simnet::ethernet100());
  auto& ha = world.create_host("a");
  auto& hb = world.create_host("b");
  world.attach(ha, *world.network("net"));
  world.attach(hb, *world.network("net"));
  SrudpEndpoint a1(ha, 7001), a2(ha, 7002), b1(hb, 7101), b2(hb, 7102);
  std::map<std::uint16_t, std::vector<Bytes>> at_b1, at_b2;
  b1.set_handler([&](const Address& src, Payload m) {
    EXPECT_EQ(src.host, "a");
    at_b1[src.port].push_back(m.to_bytes());
  });
  b2.set_handler([&](const Address& src, Payload m) {
    EXPECT_EQ(src.host, "a");
    at_b2[src.port].push_back(m.to_bytes());
  });
  for (std::uint32_t i = 0; i < 10; ++i) {
    a1.send(b1.address(), pattern_bytes(3000, 100 + i));
    a2.send(b1.address(), pattern_bytes(3000, 200 + i));
    a1.send(b2.address(), pattern_bytes(3000, 300 + i));
  }
  world.engine().run();
  ASSERT_EQ(at_b1.size(), 2u);
  ASSERT_EQ(at_b1[7001].size(), 10u);
  ASSERT_EQ(at_b1[7002].size(), 10u);
  ASSERT_EQ(at_b2.size(), 1u);
  ASSERT_EQ(at_b2[7001].size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(at_b1[7001][i], pattern_bytes(3000, 100 + i));
    EXPECT_EQ(at_b1[7002][i], pattern_bytes(3000, 200 + i));
    EXPECT_EQ(at_b2[7001][i], pattern_bytes(3000, 300 + i));
  }
  EXPECT_EQ(b1.stats().duplicate_fragments, 0u);
  EXPECT_EQ(a1.pending() + a2.pending(), 0u);
}

TEST(Srudp, UnknownDestinationExpiresAtTtl) {
  // A name no host answers to: nothing reaches the wire, the message stays
  // buffered until its TTL and then expires, and real peers are untouched.
  SrudpConfig cfg;
  cfg.msg_ttl = duration::seconds(3);
  SrudpPair p(1, simnet::ethernet100(), cfg);
  const simnet::NetStats& net = p.world.network("net")->stats();
  p.a->send({"ghost", 7002}, to_bytes("nowhere"));
  p.a->send({"phantom", 7002}, to_bytes("nowhere either"));
  p.world.engine().run_for(duration::milliseconds(2999));
  EXPECT_EQ(p.a->pending(), 2u);
  EXPECT_EQ(p.a->stats().messages_expired, 0u);
  p.world.engine().run();
  EXPECT_EQ(p.a->pending(), 0u);
  EXPECT_EQ(p.a->stats().messages_expired, 2u);
  EXPECT_EQ(net.packets_sent.load(), 0u);

  p.a->send(p.b->address(), to_bytes("somewhere"));
  p.world.engine().run();
  ASSERT_EQ(p.received.size(), 1u);
  EXPECT_EQ(to_string(p.received[0].second), "somewhere");
  EXPECT_EQ(p.a->stats().messages_expired, 2u);
}

TEST(Srudp, DeterministicUnderSeed) {
  auto run_once = [] {
    SrudpConfig cfg;
    SrudpPair p(42, simnet::internet_lossy(), cfg);
    for (int i = 0; i < 20; ++i) p.a->send(p.b->address(), pattern_bytes(10'000, i));
    p.world.engine().run();
    return std::make_tuple(p.world.now(), p.a->stats().fragments_retransmitted,
                           p.received.size());
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Srudp, SendReturnsIdEvenWhenMessageExpiresImmediately) {
  // Regression: send() used to read out.queue.back().msg_id *after* pump(),
  // but pump() expires TTL-dead messages — with msg_ttl == 0 the queue is
  // already empty again and back() was a dangling read.
  SrudpConfig cfg;
  cfg.msg_ttl = 0;
  SrudpPair p(1, simnet::ethernet100(), cfg);
  EXPECT_EQ(p.a->send(p.b->address(), pattern_bytes(100)), 1u);
  EXPECT_EQ(p.a->send(p.b->address(), pattern_bytes(100)), 2u);
  EXPECT_EQ(p.a->stats().messages_expired.v, 2u);
  EXPECT_EQ(p.a->pending(), 0u);
}

TEST(Srudp, TinyMtuInterfaceDoesNotWreckFragmentation) {
  // Regression: an attached network with MTU <= kDataHeaderBytes wrapped
  // the unsigned fragment budget to ~2^64, which in turn overflowed the
  // frag_count computation to zero — the message was silently unsendable
  // even though a perfectly good Ethernet was also attached.
  World world(5);
  world.create_network("fat", simnet::ethernet100());
  auto tiny = simnet::ethernet10();
  tiny.mtu = kDataHeaderBytes - 1;
  world.create_network("tiny", tiny);
  auto& ha = world.create_host("a");
  auto& hb = world.create_host("b");
  for (auto* h : {&ha, &hb}) {
    world.attach(*h, *world.network("fat"));
    world.attach(*h, *world.network("tiny"));
  }
  SrudpEndpoint a(ha, 7001), b(hb, 7002);
  std::vector<Bytes> received;
  b.set_handler([&](const Address&, Payload m) { received.push_back(m.to_bytes()); });
  Bytes msg = pattern_bytes(1000);
  a.send(b.address(), msg);
  world.engine().run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], msg);
  // The clamped budget still fragments finely enough for every interface.
  EXPECT_GE(a.stats().fragments_sent.v, 4u);
}

// ---- MultipathPolicy ----

TEST(Multipath, SwitchesAfterThresholdAndResetsOnSuccess) {
  World world(1);
  world.create_network("atm", simnet::atm155());
  world.create_network("eth", simnet::ethernet100());
  auto& h = world.create_host("h");
  world.attach(h, *world.network("atm"));
  world.attach(h, *world.network("eth"));

  MultipathPolicy policy(2);
  EXPECT_EQ(policy.preferred(), nullptr);
  EXPECT_FALSE(policy.on_timeout(h));  // 1st timeout: below threshold
  policy.on_success();                 // resets the counter
  EXPECT_FALSE(policy.on_timeout(h));
  EXPECT_TRUE(policy.on_timeout(h));  // 2nd consecutive: switch
  // Fastest is atm; the switch must move us off it.
  EXPECT_EQ(policy.preferred(), world.network("eth"));
  EXPECT_EQ(policy.switches(), 1);
  // Next failure pair rotates again (wraps to atm).
  EXPECT_FALSE(policy.on_timeout(h));
  EXPECT_TRUE(policy.on_timeout(h));
  EXPECT_EQ(policy.preferred(), world.network("atm"));
}

TEST(Multipath, ProbesDefaultRouteAfterQuietPeriod) {
  // A failover route must not be pinned forever: once the detour has been
  // timeout-free for the quiet period, on_success drops the preference so
  // the next send re-probes the default (fastest) route.
  World world(1);
  world.create_network("atm", simnet::atm155());
  world.create_network("eth", simnet::ethernet100());
  auto& h = world.create_host("h");
  world.attach(h, *world.network("atm"));
  world.attach(h, *world.network("eth"));

  MultipathPolicy policy(1, duration::seconds(1));
  EXPECT_TRUE(policy.on_timeout(h));  // threshold 1: switch immediately
  EXPECT_EQ(policy.preferred(), world.network("eth"));
  const SimTime switched_at = world.engine().now();
  // Successes inside the quiet window keep the detour.
  EXPECT_FALSE(policy.on_success(switched_at + duration::milliseconds(500)));
  EXPECT_EQ(policy.preferred(), world.network("eth"));
  // After a full timeout-free quiet period the preference resets.
  EXPECT_TRUE(policy.on_success(switched_at + duration::seconds(2)));
  EXPECT_EQ(policy.preferred(), nullptr);
  EXPECT_EQ(policy.probes(), 1);
  // The legacy no-argument form only clears the failure streak.
  EXPECT_TRUE(policy.on_timeout(h));
  EXPECT_EQ(policy.preferred(), world.network("eth"));
  policy.on_success();
  EXPECT_EQ(policy.preferred(), world.network("eth"));
}

TEST(Multipath, SingleNetworkHasNowhereToGo) {
  World world(1);
  world.create_network("eth", simnet::ethernet100());
  auto& h = world.create_host("h");
  world.attach(h, *world.network("eth"));
  MultipathPolicy policy(1);
  EXPECT_FALSE(policy.on_timeout(h));
  EXPECT_EQ(policy.switches(), 0);
}

// ---- RtoEstimator (shared by SRUDP and stream) ----

TEST(RtoEstimator, FollowsRfc6298InIntegerNanoseconds) {
  // Bounds in bare nanoseconds keep the hand arithmetic readable.
  using Rto = RtoEstimator<100, 10, 1000>;
  Rto rto;
  EXPECT_EQ(rto.rto(), 100);
  rto.collapse();  // no sample yet: nothing to collapse to
  EXPECT_EQ(rto.rto(), 100);

  // First sample: srtt = s, rttvar = s/2, rto = srtt + 4·rttvar.
  rto.sample(40);
  EXPECT_EQ(rto.srtt(), 40);
  EXPECT_EQ(rto.rttvar(), 20);
  EXPECT_EQ(rto.rto(), 120);

  // Second sample: rttvar = (3·20 + |40 - 80|)/4 = 25, then
  // srtt = (7·40 + 80)/8 = 45; rto = 45 + 4·25 = 145.
  rto.sample(80);
  EXPECT_EQ(rto.rttvar(), 25);
  EXPECT_EQ(rto.srtt(), 45);
  EXPECT_EQ(rto.rto(), 145);

  // Backoff doubles and stops at the maximum.
  rto.backoff();
  EXPECT_EQ(rto.rto(), 290);
  rto.backoff();
  EXPECT_EQ(rto.rto(), 580);
  rto.backoff();
  EXPECT_EQ(rto.rto(), 1000);
  rto.backoff();
  EXPECT_EQ(rto.rto(), 1000);

  // Progress collapses the backoff to srtt + 4·rttvar.
  rto.collapse();
  EXPECT_EQ(rto.rto(), 145);
  EXPECT_EQ(rto.srtt(), 45);
  EXPECT_EQ(rto.rttvar(), 25);

  // restart() returns to the initial timeout and keeps the estimate.
  rto.restart();
  EXPECT_EQ(rto.rto(), 100);
  EXPECT_EQ(rto.srtt(), 45);
}

TEST(RtoEstimator, ClampsAtMinimumAndMaximum) {
  using Rto = RtoEstimator<100, 10, 1000>;
  Rto fast;
  fast.sample(2);  // 2 + 4·1 = 6, below the minimum
  EXPECT_EQ(fast.rto(), 10);
  Rto slow;
  slow.sample(400);  // 400 + 4·200 = 1200, above the maximum
  EXPECT_EQ(slow.rto(), 1000);
  slow.collapse();
  EXPECT_EQ(slow.rto(), 1000);
}

TEST(RtoEstimator, TransportsStartAtTheirOwnInitialTimeout) {
  EXPECT_EQ(SrudpEndpoint::Rto{}.rto(), duration::milliseconds(50));
  EXPECT_EQ(StreamConnection::Rto{}.rto(), duration::milliseconds(100));
}

// ---- Stream (TCP-like) ----

struct StreamPair {
  explicit StreamPair(std::uint64_t seed = 1, simnet::MediaModel media = simnet::ethernet100())
      : world(seed) {
    world.create_network("net", media);
    auto& ha = world.create_host("a");
    auto& hb = world.create_host("b");
    world.attach(ha, *world.network("net"));
    world.attach(hb, *world.network("net"));
    client_ep = std::make_unique<StreamEndpoint>(ha, 8001);
    server_ep = std::make_unique<StreamEndpoint>(hb, 8002);
    server_ep->listen([this](std::shared_ptr<StreamConnection> conn) {
      server_conn = conn;
      conn->set_message_handler([this](Payload msg) { received.push_back(msg.to_bytes()); });
    });
  }
  World world;
  std::unique_ptr<StreamEndpoint> client_ep, server_ep;
  std::shared_ptr<StreamConnection> server_conn;
  std::vector<Bytes> received;
};

TEST(Stream, HandshakeEstablishesBothSides) {
  StreamPair p;
  auto conn = p.client_ep->connect(p.server_ep->address());
  bool connected = false;
  conn->set_connect_handler([&] { connected = true; });
  p.world.engine().run();
  EXPECT_TRUE(connected);
  EXPECT_TRUE(conn->established());
  ASSERT_NE(p.server_conn, nullptr);
}

TEST(Stream, MessagesDeliveredInOrder) {
  StreamPair p;
  auto conn = p.client_ep->connect(p.server_ep->address());
  for (int i = 0; i < 50; ++i) conn->send_message(pattern_bytes(500, i));
  p.world.engine().run();
  ASSERT_EQ(p.received.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(p.received[i], pattern_bytes(500, i));
}

TEST(Stream, LargeTransferIntact) {
  StreamPair p;
  auto conn = p.client_ep->connect(p.server_ep->address());
  Bytes big = pattern_bytes(2 << 20);
  conn->send_message(big);
  p.world.engine().run();
  ASSERT_EQ(p.received.size(), 1u);
  EXPECT_EQ(p.received[0], big);
  EXPECT_EQ(conn->unacked_bytes(), 0u);
}

TEST(Stream, ServerCanSendBack) {
  StreamPair p;
  auto conn = p.client_ep->connect(p.server_ep->address());
  std::vector<Bytes> client_got;
  conn->set_message_handler([&](Payload m) { client_got.push_back(m.to_bytes()); });
  p.world.engine().run();
  ASSERT_NE(p.server_conn, nullptr);
  p.server_conn->send_message(to_bytes("pong"));
  p.world.engine().run();
  ASSERT_EQ(client_got.size(), 1u);
  EXPECT_EQ(to_string(client_got[0]), "pong");
}

TEST(Stream, DeliveredBodyAliasesTheSendersBuffer) {
  StreamPair p;
  auto conn = p.client_ep->connect(p.server_ep->address());
  p.world.engine().run();
  ASSERT_NE(p.server_conn, nullptr);
  std::vector<Payload> got;
  p.server_conn->set_message_handler([&](Payload m) { got.push_back(std::move(m)); });
  auto shared = std::make_shared<const Bytes>(pattern_bytes(256 << 10));
  conn->send_message(header_plus_slice(0, shared, 1000, 4096));
  conn->send_message(header_plus_slice(1, shared, 7000, 64 << 10));
  p.world.engine().run();
  ASSERT_EQ(got.size(), 2u);
  expect_body_aliases(got[0], shared, 4096);
  expect_body_aliases(got[1], shared, 64 << 10);
}

TEST(Stream, SendQueueSlicesAcrossFrameBoundaries) {
  // Frames of 1, mss-1, mss+1 and 3*mss message bytes (plus each frame's
  // 4-byte header) put frame boundaries at every offset within a segment,
  // so segments span one, two and three frames and acks land mid-frame.
  const std::size_t mss = simnet::ethernet100().mtu - kStreamHeaderBytes;
  const std::size_t sizes[] = {1, mss - 1, mss + 1, 3 * mss};
  auto shared = std::make_shared<const Bytes>(pattern_bytes(16 * mss, 9));
  std::vector<std::pair<std::size_t, std::size_t>> sent;  // (offset, length)
  for (std::size_t round = 0; round < 4; ++round)
    for (std::size_t len : sizes) sent.emplace_back((round * 7 + len) % (12 * mss), len);
  auto send_all = [&](StreamConnection& conn) {
    for (auto [off, len] : sent) conn.send_message(Payload(shared, off, len));
  };
  auto expected = [&](std::size_t i) {
    auto [off, len] = sent[i];
    return Bytes(shared->begin() + static_cast<std::ptrdiff_t>(off),
                 shared->begin() + static_cast<std::ptrdiff_t>(off + len));
  };

  {  // Seeded loss and duplication: exactly once, in order, all acked.
    StreamPair p(29);
    p.world.network("net")->set_extra_loss(0.05);
    simnet::FaultPlan plan(p.world, 31);
    simnet::FaultProfile prof;
    prof.duplicate = 0.1;
    plan.inject("net", prof);
    auto conn = p.client_ep->connect(p.server_ep->address());
    send_all(*conn);
    EXPECT_GT(conn->unacked_bytes(), 0u);
    p.world.engine().run_for(duration::seconds(60));
    ASSERT_EQ(p.received.size(), sent.size());
    for (std::size_t i = 0; i < sent.size(); ++i) EXPECT_EQ(p.received[i], expected(i)) << i;
    EXPECT_EQ(conn->unacked_bytes(), 0u);
    EXPECT_GT(conn->stats().segments_retransmitted, 0u);
    EXPECT_GT(plan.injector("net")->stats().duplicated.load(), 0u);
  }
  {  // Clean path: every body is the sender's own bytes, read in place.
    StreamPair p;
    auto conn = p.client_ep->connect(p.server_ep->address());
    p.world.engine().run();
    ASSERT_NE(p.server_conn, nullptr);
    std::vector<Payload> got;
    p.server_conn->set_message_handler([&](Payload m) { got.push_back(std::move(m)); });
    send_all(*conn);
    p.world.engine().run();
    ASSERT_EQ(got.size(), sent.size());
    for (std::size_t i = 0; i < sent.size(); ++i) {
      ASSERT_EQ(got[i].segment_count(), 1u) << i;
      EXPECT_EQ(got[i].segment(0).buf, shared) << i;
      EXPECT_EQ(got[i].segment(0).data(), shared->data() + sent[i].first) << i;
      EXPECT_EQ(got[i].size(), sent[i].second) << i;
    }
    EXPECT_EQ(conn->unacked_bytes(), 0u);
    // Each segment carried all the bytes it spans, across frame boundaries:
    // every frame byte went out once and nothing had to be re-sent.
    std::size_t frame_bytes = 0;
    for (auto [off, len] : sent) frame_bytes += kStreamFrameHeaderBytes + len;
    EXPECT_EQ(conn->stats().bytes_sent, frame_bytes);
    EXPECT_EQ(conn->stats().segments_retransmitted, 0u);
  }
}

TEST(Stream, CorruptionAltersTheDeliveredCopyNeverTheSendersBuffer) {
  StreamPair p(5);
  auto conn = p.client_ep->connect(p.server_ep->address());
  p.world.engine().run();
  ASSERT_NE(p.server_conn, nullptr);
  std::vector<Payload> got;
  p.server_conn->set_message_handler([&](Payload m) { got.push_back(std::move(m)); });
  simnet::FaultProfile prof;
  prof.corrupt = 0.2;
  prof.corrupt_max_bytes = 1;
  simnet::FaultPlan plan(p.world, 11);
  plan.inject("net", prof);
  const Bytes original = pattern_bytes(64 << 10, 3);
  auto shared = std::make_shared<const Bytes>(original);
  for (std::uint64_t i = 0; i < 6; ++i)
    conn->send_message(header_plus_slice(i, shared, i * 8192, 8192));
  p.world.engine().run_for(duration::seconds(30));
  EXPECT_GT(plan.injector("net")->stats().corrupted.load(), 0u);
  ASSERT_FALSE(got.empty());
  EXPECT_GT(count_altered(got, original), 0u);
  EXPECT_EQ(*shared, original);
}

TEST(Stream, RecoversFromLoss) {
  StreamPair p(17, simnet::internet_lossy());
  p.world.network("net")->set_extra_loss(0.04);  // total 5%
  auto conn = p.client_ep->connect(p.server_ep->address());
  Bytes big = pattern_bytes(300'000);
  conn->send_message(big);
  p.world.engine().run();
  ASSERT_EQ(p.received.size(), 1u);
  EXPECT_EQ(p.received[0], big);
  EXPECT_GT(conn->stats().segments_retransmitted, 0u);
}

TEST(Stream, SynRetriesUntilServerExists) {
  // SYN loss: the connect must retry and eventually succeed.
  StreamPair p(3);
  p.world.network("net")->set_extra_loss(0.5);
  auto conn = p.client_ep->connect(p.server_ep->address());
  conn->send_message(to_bytes("eventually"));
  p.world.engine().run_for(duration::seconds(60));
  ASSERT_EQ(p.received.size(), 1u);
}

TEST(Stream, ThroughputReasonableOnEthernet) {
  StreamPair p;
  auto conn = p.client_ep->connect(p.server_ep->address());
  Bytes big = pattern_bytes(4 << 20);
  SimTime start = p.world.now();
  conn->send_message(big);
  p.world.engine().run();
  ASSERT_EQ(p.received.size(), 1u);
  double secs = to_seconds(p.world.now() - start);
  double mbps = static_cast<double>(big.size()) / secs / 1e6;
  EXPECT_GT(mbps, 8.0);
  EXPECT_LT(mbps, 12.5);
}

// ---- Ethernet multicast ----

TEST(EthMcast, AllMembersReceive) {
  World world(4);
  world.create_network("seg", simnet::ethernet100());
  std::vector<std::unique_ptr<EthMcastEndpoint>> members;
  std::map<std::string, std::vector<Bytes>> got;
  for (const char* name : {"a", "b", "c", "d", "e"}) {
    auto& h = world.create_host(name);
    world.attach(h, *world.network("seg"));
    auto ep = std::make_unique<EthMcastEndpoint>(h, "seg", "grp", 9000);
    ep->set_handler([&got, name](const Address&, Payload m) { got[name].push_back(m.to_bytes()); });
    members.push_back(std::move(ep));
  }
  Bytes msg = pattern_bytes(50'000);
  members[0]->send(msg);
  world.engine().run();
  EXPECT_TRUE(got["a"].empty());  // sender does not receive its own
  for (const char* name : {"b", "c", "d", "e"}) {
    ASSERT_EQ(got[name].size(), 1u) << name;
    EXPECT_EQ(got[name][0], msg) << name;
  }
  // One broadcast serves all four receivers: fragment count is independent
  // of group size (modulo repairs).
  EXPECT_LT(members[0]->stats().fragments_broadcast, 50'000u / 1400 + 10);
}

TEST(EthMcast, NackRepairsLoss) {
  World world(11);
  world.create_network("seg", simnet::ethernet100());
  world.network("seg")->set_extra_loss(0.1);
  std::vector<std::unique_ptr<EthMcastEndpoint>> members;
  int delivered = 0;
  for (const char* name : {"a", "b", "c"}) {
    auto& h = world.create_host(name);
    world.attach(h, *world.network("seg"));
    auto ep = std::make_unique<EthMcastEndpoint>(h, "seg", "grp", 9000);
    ep->set_handler([&](const Address&, Payload) { ++delivered; });
    members.push_back(std::move(ep));
  }
  members[0]->send(pattern_bytes(100'000));
  world.engine().run();
  EXPECT_EQ(delivered, 2);
  EXPECT_GT(members[0]->stats().repairs_sent, 0u);
  std::uint64_t nacks = members[1]->stats().nacks_sent + members[2]->stats().nacks_sent;
  EXPECT_GT(nacks, 0u);
}

TEST(EthMcast, RejectsFragmentsDisagreeingWithFirstSeenMetadata) {
  // Regression: a fragment whose frag_count/total_len disagreed with the
  // first-seen fragment of the same message indexed the reassembly buffers
  // with its *own* frag_count — an out-of-bounds write under ASan.  Now it
  // is dropped and the genuine fragments still complete the message.
  World world(3);
  world.create_network("seg", simnet::ethernet100());
  auto& evil = world.create_host("evil");
  auto& good = world.create_host("good");
  world.attach(evil, *world.network("seg"));
  world.attach(good, *world.network("seg"));
  EthMcastEndpoint receiver(good, "seg", "grp", 9000);
  std::vector<Bytes> got;
  receiver.set_handler([&](const Address&, Payload m) { got.push_back(m.to_bytes()); });

  auto raw = [&](const McastDataPacket& p) {
    simnet::SendOptions opts;
    opts.src_port = 9000;
    evil.send({"good", 9000}, encode_packet(PacketType::mdata, p), opts).value();
  };
  raw({"grp", /*msg_id=*/1, /*frag_index=*/0, /*frag_count=*/2, /*total_len=*/6,
       /*born=*/0, to_bytes("abc")});
  // Same message, wildly different metadata: frags/have only hold 2 slots.
  raw({"grp", 1, 7, 8, 6, 0, to_bytes("x")});
  raw({"grp", 1, 1, 2, 6, 0, to_bytes("def")});
  world.engine().run();

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(to_string(got[0]), "abcdef");
}

// ---- trace flows: no packet carries an id, yet both ends agree on it ----

/// Three hosts on one Ethernet segment, recording trace flows while alive
/// (the switch is process-wide; the World's ring keeps the events).
struct FlowWorld {
  using Phase = obs::TraceEvent::Phase;

  FlowWorld() : world(11) {
    obs::Tracer::global().set_flow_enabled(true);
    world.create_network("seg", simnet::ethernet100());
    for (const char* name : {"a", "b", "c"})
      world.attach(world.create_host(name), *world.network("seg"));
  }
  ~FlowWorld() { obs::Tracer::global().set_flow_enabled(false); }

  simnet::Host& host(const char* name) { return *world.host(name); }

  /// Id and `key` argument of every `phase` event named `name`.
  std::multimap<std::uint64_t, std::string> flows(Phase phase, const std::string& name,
                                                  const std::string& key) {
    std::multimap<std::uint64_t, std::string> out;
    for (const auto& e : world.tracer().events()) {
      if (e.phase != phase || e.name != name) continue;
      std::string value;
      for (const auto& [k, v] : e.args)
        if (k == key) value = v;
      out.emplace(e.id, value);
    }
    return out;
  }

  /// Each `prefix`.send flow_start names its receiver ("peer"); the one
  /// `prefix`.deliver flow_end bound to the same id must name the sender,
  /// so it was recorded on the other host.  Returns the distinct ids.
  std::set<std::uint64_t> expect_joined(const std::string& prefix,
                                        const std::map<std::string, std::string>& sender_of) {
    const auto sends = flows(Phase::flow_start, prefix + ".send", "peer");
    const auto delivers = flows(Phase::flow_end, prefix + ".deliver", "peer");
    std::set<std::uint64_t> ids;
    for (const auto& [id, receiver] : sends) {
      EXPECT_NE(id, 0u);
      EXPECT_TRUE(ids.insert(id).second) << prefix << ": id minted twice";
      EXPECT_EQ(delivers.count(id), 1u) << prefix << " to " << receiver << ": send not joined";
      if (auto it = delivers.find(id); it != delivers.end()) {
        EXPECT_EQ(it->second, sender_of.at(receiver)) << prefix;
      }
    }
    EXPECT_EQ(delivers.size(), sends.size()) << prefix << ": a delivery joins no send";
    return ids;
  }

  World world;
};

TEST(FlowJoin, SrudpReceiverDerivesTheSendersId) {
  FlowWorld w;
  SrudpEndpoint a(w.host("a"), 7001), b(w.host("b"), 7002);
  b.set_handler([&](const Address& src, Payload) { b.send(src, pattern_bytes(10)); });
  a.send(b.address(), pattern_bytes(4000));  // three fragments
  a.send(b.address(), pattern_bytes(20));
  w.world.engine().run();
  EXPECT_EQ(b.stats().messages_delivered, 2u);
  EXPECT_EQ(a.stats().messages_delivered, 2u);
  EXPECT_EQ(w.expect_joined("srudp", {{"b:7002", "a:7001"}, {"a:7001", "b:7002"}}).size(), 4u);
}

TEST(FlowJoin, StreamReceiverCountsMessagesToTheSendersId) {
  FlowWorld w;
  StreamEndpoint a(w.host("a"), 8001), b(w.host("b"), 8002);
  std::shared_ptr<StreamConnection> served;
  b.listen([&](std::shared_ptr<StreamConnection> conn) {
    served = conn;
    conn->set_message_handler([&](Payload) { served->send_message(pattern_bytes(10)); });
  });
  auto conn = a.connect(b.address());
  int replies = 0;
  conn->set_message_handler([&](Payload) { ++replies; });
  conn->send_message(pattern_bytes(3000));  // spans three segments
  conn->send_message(pattern_bytes(20));
  w.world.engine().run();
  EXPECT_EQ(replies, 2);
  EXPECT_EQ(w.expect_joined("stream", {{"b:8002", "a:8001"}, {"a:8001", "b:8002"}}).size(), 4u);
}

TEST(FlowJoin, EthMcastReceiversDeriveTheSendersId) {
  FlowWorld w;
  EthMcastEndpoint a(w.host("a"), "seg", "grp", 9000), b(w.host("b"), "seg", "grp", 9000),
      c(w.host("c"), "seg", "grp", 9000);
  int got = 0;
  b.set_handler([&](const Address&, Payload) { ++got; });
  c.set_handler([&](const Address&, Payload) { ++got; });
  a.send(pattern_bytes(3000));  // three fragments
  a.send(pattern_bytes(20));
  w.world.engine().run();
  ASSERT_EQ(got, 4);
  using Phase = FlowWorld::Phase;
  const auto sends = w.flows(Phase::flow_start, "ethmcast.send", "group");
  const auto delivers = w.flows(Phase::flow_end, "ethmcast.deliver", "host");
  ASSERT_EQ(sends.size(), 2u);
  EXPECT_EQ(delivers.size(), 4u);
  for (const auto& [id, group] : sends) {
    std::multiset<std::string> hosts;
    for (auto [it, end] = delivers.equal_range(id); it != end; ++it) hosts.insert(it->second);
    EXPECT_EQ(hosts, (std::multiset<std::string>{"b", "c"})) << "multicast id " << id;
  }
}

TEST(FlowJoin, RpcServeAndCompleteCarryTheCallsId) {
  FlowWorld w;
  RpcEndpoint a(w.host("a"), 7101), b(w.host("b"), 7102);
  b.serve(1, [](const Address&, const Payload&) -> Result<Payload> {
    return Payload(pattern_bytes(10));
  });
  bool answered = false;
  const std::uint64_t flow =
      a.call(b.address(), 1, Payload(pattern_bytes(10)), [&](Result<Payload> r) {
        answered = r.ok();
      });
  w.world.engine().run();
  ASSERT_TRUE(answered);
  ASSERT_NE(flow, 0u);
  using Phase = FlowWorld::Phase;
  for (const char* step : {"rpc.call", "rpc.serve", "rpc.complete"}) {
    const auto steps = w.flows(Phase::flow_step, step, "tag");
    ASSERT_EQ(steps.size(), 1u) << step;
    EXPECT_EQ(steps.begin()->first, flow) << step;
  }
  // The call's id is the request message's transport flow, joined at b.
  EXPECT_EQ(w.flows(Phase::flow_start, "srudp.send", "peer").count(flow), 1u);
  EXPECT_EQ(w.flows(Phase::flow_end, "srudp.deliver", "peer").count(flow), 1u);

  // Untraced, nothing is minted.
  obs::Tracer::global().set_flow_enabled(false);
  EXPECT_EQ(a.call(b.address(), 1, Payload(pattern_bytes(10)), [](Result<Payload>) {}), 0u);
  w.world.engine().run();
}

}  // namespace
}  // namespace snipe::transport
