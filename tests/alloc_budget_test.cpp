// Allocation budgets of the transport data plane: heap allocations per
// delivered message on a clean myrinet pair and over a routed 3-hop path,
// counted by the operator new of counting_alloc.cpp.  Unlike bench_datapath's
// wall-clock numbers, an allocation count is deterministic, so a budget
// here catches a regression on the per-message path (a copied segment
// list, a string key, a closure that spills out of EventFn) that the noisy
// micro-benches would hide.
//
// Each message is a fresh Bytes handed over as a Payload, the way an
// application sends one, so the count includes that vector and its shared
// buffer (2 allocations) — the same accounting as bench_datapath's
// allocs_per_msg.
//
// Every budget is the case's measured steady-state count, with no slack:
// the counts are exact and read the same under ctest (one case per
// process) and in a full-binary run in any order.
#include <gtest/gtest.h>

#include "counting_alloc.hpp"
#include "simnet/media.hpp"
#include "transport/srudp.hpp"
#include "transport/stream.hpp"

namespace snipe::transport {
namespace {

struct MyrinetPair {
  MyrinetPair() : world(42) {
    auto& net = world.create_network("myri", simnet::myrinet());
    world.attach(world.create_host("a"), net);
    world.attach(world.create_host("b"), net);
  }
  simnet::Host& a() { return *world.host("a"); }
  simnet::Host& b() { return *world.host("b"); }
  simnet::World world;
};

/// a -n1- r1 -n2- r2 -n3- b on myrinet: every datagram takes three hops,
/// two of them forwarded by routers.
struct RoutedPair {
  RoutedPair() : world(42) {
    auto& n1 = world.create_network("n1", simnet::myrinet());
    auto& n2 = world.create_network("n2", simnet::myrinet());
    auto& n3 = world.create_network("n3", simnet::myrinet());
    auto& r1 = world.create_router("r1");
    auto& r2 = world.create_router("r2");
    world.attach(world.create_host("a"), n1);
    world.attach(r1, n1);
    world.attach(r1, n2);
    world.attach(r2, n2);
    world.attach(r2, n3);
    world.attach(world.create_host("b"), n3);
  }
  simnet::Host& a() { return *world.host("a"); }
  simnet::Host& b() { return *world.host("b"); }
  simnet::World world;
};

/// Leaves the process-wide PayloadWriter header-chunk pool full and every
/// chunk in it free, whatever ran before: the state a steady stream of
/// traffic converges to, and the same for every case and every run order.
void fill_header_pool() {
  std::vector<Payload> held;  // more headers alive at once than the pool keeps
  for (int i = 0; i < 1024; ++i) {
    PayloadWriter w;
    w.u8(0);
    held.push_back(std::move(w).take());
  }
}

/// Allocations per message over `count` messages of `size` bytes, counted
/// at steady state: a warm-up batch of the same size first creates the
/// per-peer state (and, routed, the cached route) and fills the
/// process-wide PayloadWriter header-chunk pool, so a case reads the same
/// count run alone or after other cases.
template <typename Pair = MyrinetPair>
double srudp_allocs_per_msg(std::size_t size, int count) {
  Pair pair;
  SrudpEndpoint tx(pair.a(), 7001), rx(pair.b(), 7002);
  int delivered = 0;
  rx.set_handler([&](const simnet::Address&, Payload) { ++delivered; });
  const Bytes message(size, 0x5a);
  auto batch = [&] {
    for (int i = 0; i < count; ++i) tx.send(rx.address(), Bytes(message));
    pair.world.engine().run();
  };
  batch();
  fill_header_pool();
  const std::uint64_t start = heap_allocs();
  batch();
  const std::uint64_t allocs = heap_allocs() - start;
  EXPECT_EQ(delivered, 2 * count);
  return static_cast<double>(allocs) / count;
}

double stream_allocs_per_msg(std::size_t size, int count) {
  MyrinetPair pair;
  StreamEndpoint client(pair.a(), 8001), server(pair.b(), 8002);
  int delivered = 0;
  std::shared_ptr<StreamConnection> accepted;
  server.listen([&](std::shared_ptr<StreamConnection> conn) {
    accepted = conn;
    conn->set_message_handler([&](Payload) { ++delivered; });
  });
  const Bytes message(size, 0x5a);
  auto conn = client.connect(server.address());
  auto batch = [&] {
    for (int i = 0; i < count; ++i) conn->send_message(Bytes(message));
    pair.world.engine().run();
  };
  batch();  // warm-up, as in srudp_allocs_per_msg
  fill_header_pool();
  const std::uint64_t start = heap_allocs();
  batch();
  const std::uint64_t allocs = heap_allocs() - start;
  EXPECT_EQ(delivered, 2 * count);
  EXPECT_EQ(conn->unacked_bytes(), 0u);
  return static_cast<double>(allocs) / count;
}

TEST(AllocBudget, Srudp4KiB) {
  // Gates the measured 2.5 per message, 2 of them the application's Bytes.
  const double per_msg = srudp_allocs_per_msg(4096, 1024);
  RecordProperty("allocs_per_msg", std::to_string(per_msg));
  EXPECT_LE(per_msg, 2.5);
}

TEST(AllocBudget, Srudp4KiBOverThreeHops) {
  // The per-hop path: each fragment and status is forwarded twice.  A
  // forward allocates nothing, so this gates the same 2.5 per message as
  // the one-hop case.
  const double per_msg = srudp_allocs_per_msg<RoutedPair>(4096, 1024);
  RecordProperty("allocs_per_msg", std::to_string(per_msg));
  EXPECT_LE(per_msg, 2.5);
}

TEST(AllocBudget, Stream64KiB) {
  // Gates the measured 8.9375 per message (572 over 64 messages).
  const double per_msg = stream_allocs_per_msg(64 << 10, 64);
  RecordProperty("allocs_per_msg", std::to_string(per_msg));
  EXPECT_LE(per_msg, 8.9375);
}

TEST(AllocBudget, Stream1MiB) {
  // Gates the measured 8.875 per message (142 over 16 messages).
  const double per_msg = stream_allocs_per_msg(1 << 20, 16);
  RecordProperty("allocs_per_msg", std::to_string(per_msg));
  EXPECT_LE(per_msg, 8.875);
}

}  // namespace
}  // namespace snipe::transport
