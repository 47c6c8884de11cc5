// Property-style parameterized sweeps over the core invariants:
//   * SRUDP delivers every message exactly once, in order, byte-identical,
//     for any (media, loss, size mix) combination;
//   * Record replica merges converge regardless of delivery order
//     (commutativity / idempotence over random histories);
//   * SVM execution is invariant under scheduling quantum;
//   * VM checkpoint/restore at *any* interruption point resumes to an
//     identical result;
//   * the engine is deterministic under a fixed seed;
//   * every record, transport packets and RPC frames included, round-trips
//     through its one field list, byte-identical to the hand-written
//     encoders it replaced, and fails closed on truncation, trailing bytes
//     and impossible counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>

#include "core/console.hpp"
#include "core/group.hpp"
#include "counting_alloc.hpp"
#include "crypto/session.hpp"
#include "daemon/daemon.hpp"
#include "files/fileserver.hpp"
#include "mpi/bridge.hpp"
#include "obs/fleet.hpp"
#include "playground/svmasm.hpp"
#include "rcds/assertion.hpp"
#include "rcds/signed.hpp"
#include "rm/resource_manager.hpp"
#include "simnet/fault.hpp"
#include "transport/srudp.hpp"
#include "transport/stream.hpp"
#include "transport/wire.hpp"

namespace snipe {
namespace {

Bytes pattern(std::size_t n, std::uint32_t seed) {
  Bytes b(n);
  std::uint32_t x = seed * 2654435761u + 1;
  for (std::size_t i = 0; i < n; ++i) {
    x = x * 1664525u + 1013904223u;
    b[i] = static_cast<std::uint8_t>(x >> 24);
  }
  return b;
}

// ---- SRUDP exactly-once/in-order/intact under (media, loss) sweep ----

struct SrudpCase {
  int media;      // index into bench-style media table
  int loss_pm;    // loss in per-mille
  int messages;
  std::size_t max_size;
};

class SrudpProperty : public ::testing::TestWithParam<SrudpCase> {};

simnet::MediaModel media_of(int i) {
  switch (i) {
    case 0: return simnet::ethernet100();
    case 1: return simnet::atm155();
    case 2: return simnet::wan_t3();
    default: return simnet::internet_lossy();
  }
}

TEST_P(SrudpProperty, ExactlyOnceInOrderIntact) {
  const SrudpCase& c = GetParam();
  simnet::World world(1000 + static_cast<std::uint64_t>(c.media * 100 + c.loss_pm));
  auto& net = world.create_network("net", media_of(c.media));
  net.set_extra_loss(c.loss_pm / 1000.0);
  auto& a = world.create_host("a");
  auto& b = world.create_host("b");
  world.attach(a, net);
  world.attach(b, net);
  transport::SrudpEndpoint tx(a, 7001), rx(b, 7002);

  std::vector<Bytes> received;
  rx.set_handler([&](const simnet::Address&, Payload m) { received.push_back(m.to_bytes()); });

  Rng sizes(c.media * 7919u + c.loss_pm);
  std::vector<Bytes> sent;
  for (int i = 0; i < c.messages; ++i) {
    std::size_t size = static_cast<std::size_t>(sizes.next_below(c.max_size)) + 1;
    sent.push_back(pattern(size, static_cast<std::uint32_t>(i)));
    tx.send(rx.address(), sent.back());
  }
  world.engine().run();

  ASSERT_EQ(received.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) EXPECT_EQ(received[i], sent[i]) << i;
  EXPECT_EQ(tx.stats().messages_expired, 0u);
  EXPECT_EQ(rx.stats().messages_skipped, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SrudpProperty,
    ::testing::Values(SrudpCase{0, 0, 40, 40'000}, SrudpCase{0, 50, 40, 40'000},
                      SrudpCase{0, 200, 25, 20'000}, SrudpCase{1, 0, 40, 120'000},
                      SrudpCase{1, 100, 25, 60'000}, SrudpCase{2, 10, 30, 30'000},
                      SrudpCase{2, 150, 20, 15'000}, SrudpCase{3, 100, 20, 10'000}),
    [](const ::testing::TestParamInfo<SrudpCase>& info) {
      return "media" + std::to_string(info.param.media) + "_loss" +
             std::to_string(info.param.loss_pm) + "pm";
    });

// ---- Stream (TCP-like) integrity under (media, loss) sweep ----

class StreamProperty : public ::testing::TestWithParam<SrudpCase> {};

TEST_P(StreamProperty, ByteStreamIntactInOrder) {
  const SrudpCase& c = GetParam();
  simnet::World world(2000 + static_cast<std::uint64_t>(c.media * 100 + c.loss_pm));
  auto& net = world.create_network("net", media_of(c.media));
  net.set_extra_loss(c.loss_pm / 1000.0);
  auto& a = world.create_host("a");
  auto& b = world.create_host("b");
  world.attach(a, net);
  world.attach(b, net);
  transport::StreamEndpoint client(a, 8001), server(b, 8002);
  std::vector<Bytes> received;
  std::shared_ptr<transport::StreamConnection> server_conn;
  server.listen([&](std::shared_ptr<transport::StreamConnection> conn) {
    server_conn = conn;
    conn->set_message_handler([&](Payload m) { received.push_back(m.to_bytes()); });
  });
  auto conn = client.connect(server.address());

  Rng sizes(c.media * 104729u + c.loss_pm);
  std::vector<Bytes> sent;
  for (int i = 0; i < c.messages; ++i) {
    std::size_t size = static_cast<std::size_t>(sizes.next_below(c.max_size)) + 1;
    sent.push_back(pattern(size, static_cast<std::uint32_t>(i) + 7777));
    conn->send_message(sent.back());
  }
  world.engine().run();
  ASSERT_EQ(received.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) EXPECT_EQ(received[i], sent[i]) << i;
  EXPECT_EQ(conn->unacked_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StreamProperty,
    ::testing::Values(SrudpCase{0, 0, 40, 40'000}, SrudpCase{0, 50, 25, 20'000},
                      SrudpCase{1, 20, 25, 60'000}, SrudpCase{2, 10, 25, 20'000},
                      SrudpCase{2, 100, 15, 10'000}),
    [](const ::testing::TestParamInfo<SrudpCase>& info) {
      return "media" + std::to_string(info.param.media) + "_loss" +
             std::to_string(info.param.loss_pm) + "pm";
    });

// ---- Record merge convergence over random histories ----

class RecordProperty : public ::testing::TestWithParam<int> {};

TEST_P(RecordProperty, MergeOrderIrrelevant) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  // A random history of assertions over few names/values, from 3 origins.
  std::vector<rcds::Assertion> history;
  for (int i = 0; i < 60; ++i) {
    rcds::Assertion a;
    a.name = "k" + std::to_string(rng.next_below(4));
    a.value = "v" + std::to_string(rng.next_below(3));
    a.timestamp = static_cast<SimTime>(rng.next_below(20));
    a.origin = "s" + std::to_string(rng.next_below(3));
    a.tombstone = rng.chance(0.3);
    history.push_back(std::move(a));
  }
  rcds::Record in_order;
  for (const auto& a : history) in_order.merge(a);

  auto dump = [](const rcds::Record& r) {
    std::string out;
    for (const auto& a : r.all())
      out += a.name + "=" + a.value + "@" + std::to_string(a.timestamp) + a.origin +
             (a.tombstone ? "T" : "") + ";";
    return out;
  };
  std::string expected = dump(in_order);

  // Any permutation — including with duplicated deliveries — converges.
  for (int trial = 0; trial < 5; ++trial) {
    auto shuffled = history;
    for (std::size_t i = shuffled.size(); i > 1; --i)
      std::swap(shuffled[i - 1], shuffled[rng.next_below(i)]);
    rcds::Record r;
    for (const auto& a : shuffled) {
      r.merge(a);
      if (rng.chance(0.2)) r.merge(a);  // duplicate delivery
    }
    EXPECT_EQ(dump(r), expected) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecordProperty, ::testing::Range(1, 9));

// ---- SVM invariance under quantum and checkpoint point ----

class VmProperty : public ::testing::TestWithParam<int> {};

const char* kVmProgram = R"(
  .globals 3
  push 7
  storeg 1
loop:
  loadg 0
  loadg 1
  mul
  push 9973
  mod
  storeg 0
  loadg 0
  push 1
  add
  storeg 0
  loadg 2
  push 1
  add
  dup
  storeg 2
  push 500
  lt
  jnz loop
  loadg 0
  emit
  halt
)";

TEST_P(VmProperty, CheckpointAnywhereResumesIdentically) {
  const int interrupt_after = GetParam() * 137;  // various mid-run points
  auto program = playground::assemble(kVmProgram);
  ASSERT_TRUE(program.ok());

  playground::Vm reference(program.value(), {});
  reference.run(1'000'000);
  ASSERT_EQ(reference.status(), playground::VmStatus::halted);
  auto expected = reference.drain_output();

  playground::Vm first(program.value(), {});
  first.run(static_cast<std::uint64_t>(interrupt_after));
  auto restored = playground::Vm::restore(first.snapshot()).value();
  restored.run(1'000'000);
  EXPECT_EQ(restored.drain_output(), expected);
  EXPECT_EQ(restored.cycles_used(), reference.cycles_used());
}

TEST_P(VmProperty, QuantumInvariance) {
  const int quantum = GetParam() * 13 + 1;
  auto program = playground::assemble(kVmProgram);
  playground::Vm reference(program.value(), {});
  reference.run(1'000'000);
  playground::Vm sliced(program.value(), {});
  while (sliced.status() != playground::VmStatus::halted)
    sliced.run(static_cast<std::uint64_t>(quantum));
  EXPECT_EQ(sliced.drain_output(), reference.drain_output());
}

INSTANTIATE_TEST_SUITE_P(Points, VmProperty, ::testing::Range(1, 11));

// ---- Wire codecs: round-trip, truncation, and bit-flip fuzzing ----
//
// The decoders face untrusted bytes (any NIC can deliver garbage, and the
// fault injector corrupts datagrams on purpose), so three properties must
// hold for every codec: a round-trip is lossless, every strict prefix of a
// valid encoding fails with a clean Errc::corrupt, and arbitrary bit flips
// never crash or yield a structurally impossible packet.

using namespace transport;

// One valid encoding of every packet shape the transports emit, with sizes
// varied by `seed` so sweeps cover empty/short/multi-fragment cases.
std::vector<Bytes> valid_encodings(std::uint32_t seed) {
  Rng rng(seed);
  auto some_bytes = [&](std::size_t max) {
    return pattern(rng.next_below(max + 1), seed * 31 + 7);
  };
  std::vector<Bytes> out;

  DataPacket data;
  data.msg_id = rng.next_below(1u << 30);
  data.frag_count = static_cast<std::uint32_t>(rng.next_below(16)) + 1;
  data.frag_index = static_cast<std::uint32_t>(rng.next_below(data.frag_count));
  data.payload = some_bytes(600);
  data.total_len = static_cast<std::uint32_t>(data.payload.size()) * data.frag_count;
  if (data.frag_count > 1 && data.total_len == 0) data.total_len = 1;
  out.push_back(encode_packet(PacketType::data, data).to_bytes());
  out.push_back(encode_packet(PacketType::data, data, /*with_checksum=*/true).to_bytes());

  StatusPacket status;
  status.msg_id = rng.next_below(1u << 30);
  status.frag_count = static_cast<std::uint32_t>(rng.next_below(64)) + 1;
  status.bitmap = make_bitmap(status.frag_count);
  for (std::uint32_t i = 0; i < status.frag_count; ++i)
    if (rng.chance(0.5)) bitmap_set(status.bitmap, i);
  out.push_back(encode_packet(PacketType::status, status).to_bytes());
  out.push_back(encode_packet(PacketType::status, status, /*with_checksum=*/true).to_bytes());

  const std::uint64_t ack_id = rng.next_below(1u << 30);
  const std::uint64_t probe_id = rng.next_below(1u << 30);
  for (bool ck : {false, true}) {
    out.push_back(encode_packet(PacketType::msg_ack, MsgIdPacket{ack_id}, ck).to_bytes());
    out.push_back(encode_packet(PacketType::probe, MsgIdPacket{probe_id}, ck).to_bytes());
  }

  for (PacketType t : {PacketType::syn, PacketType::syn_ack, PacketType::ack,
                       PacketType::seg, PacketType::fin, PacketType::rst}) {
    StreamPacket s;
    s.conn_id = static_cast<std::uint32_t>(rng.next_below(1u << 16));
    s.seq = rng.next_below(1u << 20);
    s.ack = rng.next_below(1u << 20);
    s.window = static_cast<std::uint32_t>(rng.next_below(1u << 16));
    if (t == PacketType::seg) s.payload = some_bytes(400);
    out.push_back(encode_packet(t, s).to_bytes());
  }

  McastDataPacket md;
  md.group = "grp" + std::to_string(rng.next_below(1000));
  md.msg_id = rng.next_below(1u << 30);
  md.frag_count = static_cast<std::uint32_t>(rng.next_below(8)) + 1;
  md.frag_index = static_cast<std::uint32_t>(rng.next_below(md.frag_count));
  md.payload = some_bytes(300);
  md.total_len = static_cast<std::uint32_t>(md.payload.size()) * md.frag_count;
  if (md.frag_count > 1 && md.total_len == 0) md.total_len = 1;
  out.push_back(encode_packet(PacketType::mdata, md).to_bytes());

  McastNackPacket nack;
  nack.group = "grp";
  nack.msg_id = rng.next_below(1u << 30);
  for (std::uint64_t i = 0, n = rng.next_below(10) + 1; i < n; ++i)
    nack.missing.push_back(static_cast<std::uint32_t>(rng.next_below(64)));
  out.push_back(encode_packet(PacketType::mnack, nack).to_bytes());
  return out;
}

// Routes `wire` to the decoder its own head claims; returns whether that
// decoder accepted it, checking decoder-enforced invariants when it did.
bool decode_by_head(const Bytes& wire) {
  auto head = decode_head(wire);
  if (!head) return false;
  switch (head.value().type) {
    case PacketType::data:
    case PacketType::data_ck: {
      auto p = decode_packet<DataPacket>(wire);
      if (!p) return false;
      EXPECT_EQ(p.value().has_checksum, head.value().type == PacketType::data_ck);
      EXPECT_GT(p.value().frag_count, 0u);
      EXPECT_LT(p.value().frag_index, p.value().frag_count);
      EXPECT_LE(p.value().frag_count, kMaxWireFragments);
      return true;
    }
    case PacketType::msg_ack:
    case PacketType::probe:
    case PacketType::msg_ack_ck:
    case PacketType::probe_ck:
      return decode_packet<MsgIdPacket>(wire).ok();
    case PacketType::status:
    case PacketType::status_ck: {
      auto p = decode_packet<StatusPacket>(wire);
      if (!p) return false;
      EXPECT_LE(p.value().frag_count, kMaxWireFragments);
      EXPECT_GE(p.value().bitmap.size() * 8, p.value().frag_count);
      return true;
    }
    case PacketType::syn:
    case PacketType::syn_ack:
    case PacketType::ack:
    case PacketType::seg:
    case PacketType::fin:
    case PacketType::rst:
      return decode_packet<StreamPacket>(wire).ok();
    case PacketType::mdata: {
      auto p = decode_packet<McastDataPacket>(wire);
      if (!p) return false;
      EXPECT_GT(p.value().frag_count, 0u);
      EXPECT_LT(p.value().frag_index, p.value().frag_count);
      EXPECT_LE(p.value().frag_count, kMaxWireFragments);
      return true;
    }
    case PacketType::mnack: {
      auto p = decode_packet<McastNackPacket>(wire);
      if (!p) return false;
      EXPECT_LE(p.value().missing.size(), kMaxWireFragments);
      return true;
    }
  }
  return false;
}

class WireFuzz : public ::testing::TestWithParam<int> {};

TEST_P(WireFuzz, RoundTripIsLossless) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 1013 + 1);
  auto some_bytes = [&](std::size_t max) {
    return pattern(rng.next_below(max + 1), static_cast<std::uint32_t>(GetParam()));
  };

  DataPacket data;
  data.msg_id = rng.next_below(1ull << 40);
  data.frag_count = static_cast<std::uint32_t>(rng.next_below(100)) + 1;
  data.frag_index = static_cast<std::uint32_t>(rng.next_below(data.frag_count));
  data.total_len = static_cast<std::uint32_t>(rng.next_below(1u << 20)) + 1;
  data.payload = some_bytes(2000);
  auto d = decode_packet<DataPacket>(encode_packet(PacketType::data, data));
  ASSERT_TRUE(d.ok()) << d.error().to_string();
  EXPECT_EQ(d.value().msg_id, data.msg_id);
  EXPECT_EQ(d.value().frag_index, data.frag_index);
  EXPECT_EQ(d.value().frag_count, data.frag_count);
  EXPECT_EQ(d.value().total_len, data.total_len);
  EXPECT_EQ(d.value().payload, data.payload);
  auto ck =
      decode_packet<DataPacket>(encode_packet(PacketType::data, data, /*with_checksum=*/true));
  ASSERT_TRUE(ck.ok()) << ck.error().to_string();
  EXPECT_TRUE(ck.value().has_checksum);
  EXPECT_FALSE(d.value().has_checksum);
  EXPECT_EQ(ck.value().msg_id, data.msg_id);
  EXPECT_EQ(ck.value().frag_index, data.frag_index);
  EXPECT_EQ(ck.value().frag_count, data.frag_count);
  EXPECT_EQ(ck.value().total_len, data.total_len);
  EXPECT_EQ(ck.value().payload, data.payload);

  StatusPacket status;
  status.msg_id = rng.next_below(1ull << 40);
  status.frag_count = static_cast<std::uint32_t>(rng.next_below(500)) + 1;
  status.bitmap = make_bitmap(status.frag_count);
  for (std::uint32_t i = 0; i < status.frag_count; ++i)
    if (rng.chance(0.3)) bitmap_set(status.bitmap, i);
  auto s = decode_packet<StatusPacket>(encode_packet(PacketType::status, status));
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value().msg_id, status.msg_id);
  EXPECT_EQ(s.value().frag_count, status.frag_count);
  EXPECT_EQ(s.value().bitmap, status.bitmap);

  MsgIdPacket mid{rng.next_below(1ull << 40)};
  EXPECT_EQ(decode_packet<MsgIdPacket>(encode_packet(PacketType::msg_ack, mid)).value().msg_id,
            mid.msg_id);
  EXPECT_EQ(decode_packet<MsgIdPacket>(encode_packet(PacketType::probe, mid)).value().msg_id,
            mid.msg_id);

  StreamPacket seg;
  seg.conn_id = static_cast<std::uint32_t>(rng.next_below(1ull << 32));
  seg.seq = rng.next_below(1ull << 40);
  seg.ack = rng.next_below(1ull << 40);
  seg.window = static_cast<std::uint32_t>(rng.next_below(1ull << 32));
  seg.payload = some_bytes(1400);
  auto t = decode_packet<StreamPacket>(encode_packet(PacketType::seg, seg));
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value().conn_id, seg.conn_id);
  EXPECT_EQ(t.value().seq, seg.seq);
  EXPECT_EQ(t.value().ack, seg.ack);
  EXPECT_EQ(t.value().window, seg.window);
  EXPECT_EQ(t.value().payload, seg.payload);

  McastDataPacket md;
  md.group = "multicast-group-" + std::to_string(GetParam());
  md.msg_id = rng.next_below(1ull << 40);
  md.frag_count = static_cast<std::uint32_t>(rng.next_below(50)) + 1;
  md.frag_index = static_cast<std::uint32_t>(rng.next_below(md.frag_count));
  md.total_len = static_cast<std::uint32_t>(rng.next_below(1u << 20)) + 1;
  md.payload = some_bytes(1000);
  auto m = decode_packet<McastDataPacket>(encode_packet(PacketType::mdata, md));
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m.value().group, md.group);
  EXPECT_EQ(m.value().msg_id, md.msg_id);
  EXPECT_EQ(m.value().frag_index, md.frag_index);
  EXPECT_EQ(m.value().frag_count, md.frag_count);
  EXPECT_EQ(m.value().total_len, md.total_len);
  EXPECT_EQ(m.value().payload, md.payload);

  McastNackPacket nack;
  nack.group = "g";
  nack.msg_id = rng.next_below(1ull << 40);
  for (std::uint64_t i = 0, n = rng.next_below(40); i < n; ++i)
    nack.missing.push_back(static_cast<std::uint32_t>(rng.next_below(1u << 20)));
  auto nk = decode_packet<McastNackPacket>(encode_packet(PacketType::mnack, nack));
  ASSERT_TRUE(nk.ok());
  EXPECT_EQ(nk.value().group, nack.group);
  EXPECT_EQ(nk.value().msg_id, nack.msg_id);
  EXPECT_EQ(nk.value().missing, nack.missing);
}

TEST_P(WireFuzz, EveryStrictPrefixFailsWithCorrupt) {
  for (const Bytes& wire : valid_encodings(static_cast<std::uint32_t>(GetParam()))) {
    ASSERT_TRUE(decode_by_head(wire));  // the full encoding must parse
    for (std::size_t len = 0; len < wire.size(); ++len) {
      Bytes prefix(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(len));
      auto head = decode_head(prefix);
      if (!head) {
        EXPECT_EQ(head.error().code, Errc::corrupt) << "prefix " << len;
        continue;
      }
      // Head intact; the type-specific decoder must reject the remainder.
      EXPECT_FALSE(decode_by_head(prefix)) << "prefix " << len << " of " << wire.size();
      switch (head.value().type) {
        case PacketType::data:
        case PacketType::data_ck:
          EXPECT_EQ(decode_packet<DataPacket>(prefix).error().code, Errc::corrupt);
          break;
        case PacketType::status:
        case PacketType::status_ck:
          EXPECT_EQ(decode_packet<StatusPacket>(prefix).error().code, Errc::corrupt);
          break;
        case PacketType::msg_ack:
        case PacketType::probe:
        case PacketType::msg_ack_ck:
        case PacketType::probe_ck:
          EXPECT_EQ(decode_packet<MsgIdPacket>(prefix).error().code, Errc::corrupt);
          break;
        case PacketType::mdata:
          EXPECT_EQ(decode_packet<McastDataPacket>(prefix).error().code, Errc::corrupt);
          break;
        case PacketType::mnack:
          EXPECT_EQ(decode_packet<McastNackPacket>(prefix).error().code, Errc::corrupt);
          break;
        default:
          EXPECT_EQ(decode_packet<StreamPacket>(prefix).error().code, Errc::corrupt);
          break;
      }
    }
  }
}

TEST_P(WireFuzz, AppendedGarbageFailsWithCorrupt) {
  // A bit flip that shrinks a blob length field manifests as leftover
  // bytes after the last field; decoders must reject them rather than
  // silently accept a shortened payload.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 3);
  for (const Bytes& wire : valid_encodings(static_cast<std::uint32_t>(GetParam()))) {
    for (std::size_t extra : {std::size_t{1}, std::size_t{4}}) {
      Bytes padded = wire;
      for (std::size_t i = 0; i < extra; ++i)
        padded.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
      EXPECT_FALSE(decode_by_head(padded)) << extra << " trailing bytes accepted";
    }
  }
}

TEST_P(WireFuzz, BitFlippedPacketsNeverCrashEveryDecoder) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2477 + 13);
  simnet::FaultProfile profile;
  profile.corrupt_max_bytes = 8;
  simnet::FaultInjector injector(profile, Rng(GetParam()));
  for (const Bytes& wire : valid_encodings(static_cast<std::uint32_t>(GetParam()))) {
    for (int trial = 0; trial < 200; ++trial) {
      Bytes mangled = wire;
      if (trial % 2 == 0) {
        // The chaos layer's own mangler.
        Payload wrapped(std::move(mangled));
        injector.corrupt_payload(wrapped, "");
        mangled = wrapped.to_bytes();
      } else {
        for (std::uint64_t f = 0, n = rng.next_below(8) + 1; f < n; ++f)
          mangled[rng.next_below(mangled.size())] ^=
              static_cast<std::uint8_t>(1u << rng.next_below(8));
      }
      // Feed the mangled bytes to every decoder, not just the claimed one:
      // a flipped type byte routes packets to the "wrong" parser in real
      // runs, and none of them may crash or accept impossible structure.
      decode_by_head(mangled);
      (void)decode_packet<DataPacket>(mangled);
      (void)decode_packet<StatusPacket>(mangled);
      (void)decode_packet<MsgIdPacket>(mangled);
      (void)decode_packet<StreamPacket>(mangled);
      (void)decode_packet<McastDataPacket>(mangled);
      (void)decode_packet<McastNackPacket>(mangled);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzz, ::testing::Range(1, 9));

// ---- Records and packets: one field list, both directions ----

std::uint64_t fnv64(const Bytes& b) {
  std::uint64_t h = 14695981039346656037ull;
  for (std::uint8_t c : b) h = (h ^ c) * 1099511628211ull;
  return h;
}

// One row per record type: a sample's encoding, and the same sample
// through the other back end (PayloadWriter for a record, ByteWriter for a
// packet); decoders from flat bytes and from a payload that re-encode what
// they read; the FNV-1a 64 of the bytes the hand-written encoders sent for
// the same sample; and, where the record has a top-level vector, the offset
// of its count.
struct RecordRow {
  std::string name;
  Bytes wire;
  Bytes wire_other;
  std::function<Result<Bytes>(const Bytes&)> reencode;
  std::function<Result<Bytes>(const Payload&)> reencode_payload;
  std::uint64_t golden = 0;
  std::optional<std::size_t> count_at;
};

template <class R>
RecordRow row(std::string name, const R& sample, std::uint64_t golden,
              std::optional<std::size_t> count_at = std::nullopt) {
  auto again = [](Result<R> decoded) -> Result<Bytes> {
    if (!decoded) return decoded.error();
    return encode(decoded.value());
  };
  return {std::move(name), encode(sample), encode_payload(sample).to_bytes(),
          [again](const Bytes& b) { return again(decode<R>(b)); },
          [again](const Payload& p) { return again(decode<R>(p)); }, golden, count_at};
}

/// A transport packet's row: `sample` under `type`, or under its
/// checksummed twin when `ck`, read back by decode_packet.
template <class P>
RecordRow packet_row(std::string name, transport::PacketType type, const P& sample, bool ck,
                     std::uint64_t golden) {
  auto again = [type, ck](Result<P> decoded) -> Result<Bytes> {
    if (!decoded) return decoded.error();
    return transport::encode_packet(type, decoded.value(), ck).to_bytes();
  };
  Bytes wire = transport::encode_packet(type, sample, ck).to_bytes();
  Bytes flat = encode(wire[0], sample);  // the type byte it sent, then the fields
  if (ck) {
    const Bytes sum = encode(transport::payload_checksum(flat));
    flat.insert(flat.end(), sum.begin(), sum.end());
  }
  return {std::move(name), std::move(wire), std::move(flat),
          [again](const Bytes& b) { return again(transport::decode_packet<P>(b)); },
          [again](const Payload& p) { return again(transport::decode_packet<P>(p)); }, golden,
          std::nullopt};
}

const std::vector<RecordRow>& record_rows() {
  static const std::vector<RecordRow> rows = [] {
    Rng rng(7);
    auto signer = crypto::Principal::create("urn:snipe:signer", rng);
    auto user = crypto::Principal::create("urn:snipe:user", rng);
    auto cert = crypto::Certificate::issue(
        signer, user.uri, user.keys.pub,
        {crypto::TrustPurpose::identify_user, crypto::TrustPurpose::sign_mobile_code});
    auto stmt = crypto::SignedStatement::make(user, to_bytes("payload"));

    rcds::Assertion a1{"proc:address", "snipe://x:1/y", 123456789, "srv:7100", true};
    rcds::Assertion a2{"n", "v", -5, "o", false};
    rcds::Op op{rcds::Op::Kind::set, "name", "value"};
    const std::string uri = "urn:u";

    daemon::SpawnRequest spawn;
    spawn.program = "lifn://p";
    spawn.name = "n";
    spawn.args = {1, -2, 3};
    spawn.require_arch = "x86";
    spawn.require_cpus = 2;
    spawn.restore_lifn = "lifn://r";
    spawn.authorization = {1, 2, 3};

    auto program =
        playground::assemble(".globals 2\npush 4\nemit\npush 5\nstoreg 1\npush 7\nckpt\nhalt")
            .take();
    playground::Vm vm(program, playground::VmQuota{});
    vm.push_input(3);
    vm.run(1000);

    obs::TelemetryBeacon beacon;
    beacon.host = "h1";
    beacon.seq = 2;
    beacon.ts = 3;
    beacon.period_ns = 4;
    beacon.full = true;
    beacon.counters = {{"c", 1.5}};
    beacon.gauges = {{"g", 2}};
    obs::HistogramSketch sketch;
    sketch.buckets[0] = 1;
    sketch.buckets[5] = 2;
    sketch.count = 3;
    sketch.sum = 4.5;
    beacon.sketches = {{"s", sketch}};
    beacon.flight = {{10, "h1", "cat", "what", "detail"}};
    beacon.series = {{"m", {{1, 2.0}, {3, 4.0}}}};

    using daemon::TaskState;
    std::vector<RecordRow> r;
    r.push_back(row("Assertion", a1, 0x6bff3b6f628a4bceull));
    r.push_back(row("Op", op, 0x834958f80e9e4877ull));
    r.push_back(row("Update", rcds::Update{uri, {a1, a2}}, 0x45561646ca45c663ull,
                    encode(uri).size()));
    r.push_back(row("ApplyRequest", rcds::ApplyRequest{uri, {op, rcds::op_add("a", "b")}},
                    0x46a9185af021275aull, encode(uri).size()));
    r.push_back(row("SyncDigest",
                    std::vector<std::pair<std::string, SimTime>>{{"urn:a", 5}, {"urn:b", -1}},
                    0x66bde5a339eed00dull, 0));
    auto subset = rcds::SignedSubset::sign(signer, "lifn://x", {{"k2", "v2"}, {"k1", "v1"}});
    r.push_back(row("SignedSubset", subset, 0x3a794dbc56734725ull, encode(subset.uri).size()));
    r.push_back(row("PublicKey", user.keys.pub, 0x25716ccb1573a3bdull));
    r.push_back(row("Certificate", cert, 0xc44e0476c5edbab0ull));
    r.push_back(row("SignedStatement", stmt, 0xd85cc8c6d530bde2ull));
    r.push_back(row("SealedFrame",
                    crypto::SealedFrame{3, to_bytes("abc"), crypto::sha256(to_bytes("mac"))},
                    0x643128c507b3023dull));
    r.push_back(row("SpawnRequest", spawn, 0x42d2be2176b86560ull,
                    encode(spawn.program, spawn.name).size()));
    r.push_back(row("SpawnReply", daemon::SpawnReply{"urn:r", "hostA", 7001},
                    0xf6a9a4caf48d1db3ull));
    r.push_back(row("SignalRequest", daemon::SignalRequest{"urn:r", daemon::TaskSignal::suspend},
                    0xb264a23e84b2c705ull));
    r.push_back(row("CheckpointRequest", daemon::CheckpointRequest{"urn:r", "lifn://ck", {"fs", 7400}},
                    0xfb5c18fd1220c0e4ull));
    r.push_back(row("TaskInfo", daemon::TaskInfo{TaskState::running, 7005, -3},
                    0x29f62b5808a6f5d6ull));
    r.push_back(row("TaskEvent", daemon::TaskEvent{"urn:r", TaskState::exited, 42},
                    0xffe14de833a2f764ull));
    r.push_back(row("LoadReport", daemon::LoadReport{0.75, 3}, 0xb8933349e74b29cfull));
    r.push_back(row("TaskList",
                    std::vector<std::pair<std::string, TaskState>>{{"urn:a", TaskState::running},
                                                                   {"urn:b", TaskState::killed}},
                    0x075b8c2c80b25630ull, 0));
    r.push_back(row("Reservation", rm::Reservation{"hostA", {"hostA", 7201}, {9, 9}},
                    0x3c8edc98ae6a6ab6ull));
    r.push_back(row("AuthorizeRequest", rm::AuthorizeRequest{cert, stmt, cert, stmt, "prog", "hostB"},
                    0x7efed3cd82e3f34aull));
    r.push_back(row("UserMessage", core::UserMessage{"urn:src", 17, {1, 2, 3}},
                    0x0733e729da4e2a1bull));
    r.push_back(row("McastPayload", core::McastPayload{"urn:g", "urn:o", 99, {4, 5}},
                    0xaa4e092d1cc2d833ull));
    r.push_back(row("JoinRequest", core::JoinRequest{"urn:g", "urn:m", {"h", 9}},
                    0x0165797bee795e3dull));
    r.push_back(row("HttpRequest", core::HttpRequest{"POST", "/x", {1}}, 0xe402b850bfe83518ull));
    r.push_back(row("HttpResponse", core::HttpResponse{404, {2}}, 0xc2f43689f2f79dd3ull));
    r.push_back(row("MigrationNotice", core::MigrationNotice{"urn:p", {"h2", 77}},
                    0xca732e1a18819730ull));
    r.push_back(row("PvmEnvelope", pvm::PvmEnvelope{65537, 2, 3, {7}}, 0xabbd3d337ee4e66eull));
    r.push_back(row("InterMessage", mpi::InterMessage{"app", 1, 2, {8}}, 0x277962bc4960bb47ull));
    r.push_back(row("MpiMessage", mpi::MpiMessage{1, 2, {9}}, 0xaac78b3603aa0e52ull));
    r.push_back(row("Program", program, 0x25fd7d0ac270f323ull, encode(program.globals).size()));
    // The snapshot's stack count follows the program blob, the quota and pc.
    r.push_back(row("VmSnapshot", vm, 0x1494593c21edbf47ull,
                    encode(codec::in_blob(program), playground::VmQuota{}, std::int64_t{0}).size()));
    r.push_back(row("OpenSink", files::OpenSink{"lifn://f", 1000, 4}, 0xb75241372c52d7d7ull));
    r.push_back(row("SinkChunk", files::SinkChunk{5, 64, Payload(to_bytes("chunk"))},
                    0x14d9aa6bd8f9d822ull));
    r.push_back(row("OpenSource", files::OpenSource{"lifn://f", {"c", 9}, 6, 1, 4, 65536},
                    0xa5e4f595c6a99d71ull));
    r.push_back(row("SourceChunk", files::SourceChunk{6, 1000, 128, Payload(to_bytes("data"))},
                    0x8450f48bf9d9f4d4ull));
    r.push_back(row("ReplicaPush", files::ReplicaPush{"lifn://f", Payload(to_bytes("content"))},
                    0x53611bd1589bd72aull));
    r.push_back(row("TelemetryBeacon", beacon, 0x5a3e6cfdb3c66420ull,
                    encode(beacon.version, beacon.host, beacon.seq, beacon.ts, beacon.period_ns,
                           beacon.full)
                        .size()));

    // Transport packets, plain and checksummed where SRUDP has a twin.
    using transport::PacketType;
    const transport::DataPacket data{0x0102030405060708ull, 2, 5, 4000, to_bytes("fragment")};
    const transport::StatusPacket status{9, 12, Bytes{0xa5, 0x0f}};
    const transport::MsgIdPacket mid{77};
    const transport::StreamPacket syn{3, 0, 0, 65536, {}};
    const transport::StreamPacket seg{3, 1000, 200, 65536, Payload(to_bytes("segment"))};
    const transport::McastDataPacket mdata{"grp", 4, 1, 3, 2500, 123456789,
                                           Payload(to_bytes("mcast"))};
    const transport::McastNackPacket mnack{"grp", 4, {0, 2}};
    r.push_back(packet_row("DATA", PacketType::data, data, false, 0x44c5f15e74c4081eull));
    r.push_back(packet_row("DATA_CK", PacketType::data, data, true, 0x2e32824ff304c2afull));
    r.push_back(packet_row("STATUS", PacketType::status, status, false, 0xac9c2f51381f2c37ull));
    r.push_back(packet_row("STATUS_CK", PacketType::status, status, true, 0x05d3776d5eec4c26ull));
    r.push_back(packet_row("MSG_ACK", PacketType::msg_ack, mid, false, 0x0cd96ff54dc687beull));
    r.push_back(packet_row("MSG_ACK_CK", PacketType::msg_ack, mid, true, 0x49c4132457d1aa29ull));
    r.push_back(packet_row("PROBE", PacketType::probe, mid, false, 0x985af7c3d223f764ull));
    r.push_back(packet_row("PROBE_CK", PacketType::probe, mid, true, 0x154d18b084d86ac3ull));
    r.push_back(packet_row("SYN", PacketType::syn, syn, false, 0xea192075f59cae6full));
    r.push_back(packet_row("SEG", PacketType::seg, seg, false, 0x44b6c73a20421b91ull));
    r.push_back(packet_row("MDATA", PacketType::mdata, mdata, false, 0x240c55082ad631dbull));
    r.push_back(packet_row("MNACK", PacketType::mnack, mnack, false, 0x80913fb9aaa28794ull));
    const Payload body(to_bytes("body"));
    using transport::RpcKind;
    r.push_back(row("RpcRequest",
                    transport::RpcFrame{RpcKind::request, 11, 42, body,
                                        Payload(to_bytes("authenticator!!!"))},
                    0xf40a4fac3670a7e3ull));
    r.push_back(row("RpcResponse", transport::RpcFrame{RpcKind::response, 11, 42, body, {}},
                    0xf2e67e0ca124989aull));
    r.push_back(row("RpcOneway", transport::RpcFrame{RpcKind::oneway, 0, 43, body, {}},
                    0xcb218a52edd29a7eull));
    // A stream message rides the byte stream as one blob.
    r.push_back(row("StreamFrame", Payload(to_bytes("message")), 0xfcd6806e98167607ull));
    return r;
  }();
  return rows;
}

TEST(RecordCodec, EncodesTheHandWrittenBytesAndRoundTrips) {
  for (const RecordRow& r : record_rows()) {
    SCOPED_TRACE(r.name);
    EXPECT_EQ(fnv64(r.wire), r.golden) << hex_encode(r.wire);
    EXPECT_EQ(r.wire_other, r.wire);
    auto again = r.reencode(r.wire);
    ASSERT_TRUE(again.ok()) << again.error().to_string();
    EXPECT_EQ(again.value(), r.wire);
    // The same bytes split across two segments decode through PayloadCursor.
    const std::size_t half = r.wire.size() / 2;
    Payload split(Bytes(r.wire.begin(), r.wire.begin() + static_cast<std::ptrdiff_t>(half)));
    split.append(Payload(Bytes(r.wire.begin() + static_cast<std::ptrdiff_t>(half), r.wire.end())));
    auto from_payload = r.reencode_payload(split);
    ASSERT_TRUE(from_payload.ok()) << from_payload.error().to_string();
    EXPECT_EQ(from_payload.value(), r.wire);
  }
}

TEST(RecordCodec, EveryStrictPrefixAndATrailingByteFailWithCorrupt) {
  for (const RecordRow& r : record_rows()) {
    SCOPED_TRACE(r.name);
    for (std::size_t len = 0; len < r.wire.size(); ++len) {
      auto prefix = r.reencode(Bytes(r.wire.begin(), r.wire.begin() + static_cast<std::ptrdiff_t>(len)));
      ASSERT_FALSE(prefix.ok()) << "prefix " << len;
      EXPECT_EQ(prefix.code(), Errc::corrupt) << "prefix " << len;
    }
    Bytes padded = r.wire;
    padded.push_back(0);
    EXPECT_EQ(r.reencode(padded).code(), Errc::corrupt);
  }
}

TEST(RecordCodec, CountAboveTheBytesLeftFailsBeforeAnyAllocation) {
  int rows_with_counts = 0;
  for (const RecordRow& r : record_rows()) {
    if (!r.count_at) continue;
    SCOPED_TRACE(r.name);
    ++rows_with_counts;
    const std::size_t at = *r.count_at;
    const std::size_t left = r.wire.size() - at - 4;
    Bytes poisoned = r.wire;
    ByteReader real(poisoned.data() + at, 4);
    ASSERT_LE(real.u32().value(), left);  // the row names a real count
    const std::uint32_t claim = static_cast<std::uint32_t>(left + 1);
    for (int i = 0; i < 4; ++i)
      poisoned[at + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(claim >> (24 - 8 * i));
    // Cut just before the count, the same decode reaches the count and stops.
    const Bytes cut(r.wire.begin(), r.wire.begin() + static_cast<std::ptrdiff_t>(at));
    auto allocs_of = [&r](const Bytes& b) {
      const std::uint64_t before = heap_allocs();
      EXPECT_EQ(r.reencode(b).code(), Errc::corrupt);
      return heap_allocs() - before;
    };
    const std::uint64_t cut_allocs = allocs_of(cut);
    EXPECT_LE(allocs_of(poisoned), cut_allocs);
  }
  EXPECT_EQ(rows_with_counts, 9);
}

}  // namespace
}  // namespace snipe
