// Scenario bodies shared by the benches and by tests/claims_test.cpp.
//
// A bench reports what a scenario measures; claims_test asserts the
// paper's claims on the same numbers.  Both read virtual time only, which
// is deterministic on every machine, so a claim checked here holds for
// every bench run.  Nothing in this header depends on google-benchmark.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>

#include "simnet/world.hpp"
#include "transport/srudp.hpp"
#include "transport/stream.hpp"

namespace snipe::bench {

/// Two hosts joined by one network of the given media.
struct PairWorld {
  explicit PairWorld(simnet::MediaModel media, std::uint64_t seed = 1) : world(seed) {
    auto& net = world.create_network("net", std::move(media));
    world.attach(world.create_host("a"), net);
    world.attach(world.create_host("b"), net);
  }
  simnet::Host& a() { return *world.host("a"); }
  simnet::Host& b() { return *world.host("b"); }
  simnet::World world;
};

// ---- Fig. 1: SRUDP against TCP on each medium ----

/// Bench arguments select the protocol by value.
enum class Protocol { srudp = 0, tcp = 1 };

/// Each Fig. 1 bandwidth point moves about this many bytes.
constexpr std::int64_t kFig1TransferBytes = 16 << 20;

/// Sends `count` messages of `size` bytes from a to b; returns the virtual
/// seconds until the last delivery, or -1 if any went missing.  The stream
/// pays its handshake, as a real TCP connection per transfer would.
inline double transfer_seconds(Protocol protocol, simnet::MediaModel media, std::size_t size,
                               int count, double loss) {
  PairWorld pair(media, 42);
  pair.world.network("net")->set_extra_loss(loss);
  int delivered = 0;
  if (protocol == Protocol::srudp) {
    transport::SrudpEndpoint tx(pair.a(), 7001), rx(pair.b(), 7002);
    rx.set_handler([&](const simnet::Address&, Payload) { ++delivered; });
    for (int i = 0; i < count; ++i) tx.send(rx.address(), Bytes(size, 0x5a));
    pair.world.engine().run();
  } else {
    transport::StreamEndpoint client(pair.a(), 8001), server(pair.b(), 8002);
    server.listen([&](std::shared_ptr<transport::StreamConnection> conn) {
      conn->set_message_handler([&delivered](Payload) { ++delivered; });
    });
    auto conn = client.connect(server.address());
    for (int i = 0; i < count; ++i) conn->send_message(Bytes(size, 0x5a));
    pair.world.engine().run();
  }
  if (delivered != count) return -1;
  return to_seconds(pair.world.now());
}

/// Fig. 1's y-axis: MB/s of a kFig1TransferBytes transfer in `size`-byte
/// messages on a clean link, or a negative value if it did not complete.
inline double fig1_MBps(Protocol protocol, simnet::MediaModel media, std::size_t size) {
  const int count = static_cast<int>(
      std::max<std::int64_t>(1, kFig1TransferBytes / static_cast<std::int64_t>(size)));
  const double secs = transfer_seconds(protocol, std::move(media), size, count, 0.0);
  return secs <= 0 ? -1 : static_cast<double>(size) * count / secs / 1e6;
}

/// The left edge of Fig. 1: a one-byte ping-pong of `rounds` round trips;
/// returns the mean round-trip time in virtual seconds, or -1 if a round
/// went missing.
inline double fig1_rtt_seconds(Protocol protocol, simnet::MediaModel media, int rounds = 200) {
  PairWorld pair(media, 7);
  int pongs = 0;
  if (protocol == Protocol::srudp) {
    transport::SrudpEndpoint a(pair.a(), 7001), b(pair.b(), 7002);
    b.set_handler([&](const simnet::Address& src, Payload m) { b.send(src, std::move(m)); });
    a.set_handler([&](const simnet::Address&, Payload) {
      if (++pongs < rounds) a.send(b.address(), Bytes{1});
    });
    a.send(b.address(), Bytes{1});
    pair.world.engine().run();
  } else {
    transport::StreamEndpoint client(pair.a(), 8001), server(pair.b(), 8002);
    std::shared_ptr<transport::StreamConnection> sconn;
    server.listen([&](std::shared_ptr<transport::StreamConnection> conn) {
      sconn = conn;
      conn->set_message_handler([&](Payload m) { sconn->send_message(std::move(m)); });
    });
    auto conn = client.connect(server.address());
    conn->set_message_handler([&](Payload m) {
      if (++pongs < rounds) conn->send_message(std::move(m));
    });
    conn->send_message(Bytes{1});
    pair.world.engine().run();
  }
  if (pongs != rounds) return -1;
  return to_seconds(pair.world.now()) / rounds;
}

}  // namespace snipe::bench
