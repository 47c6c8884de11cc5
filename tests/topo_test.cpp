// Routing zones: media edge cases, multi-hop route resolution, cache
// invalidation under faults, shard-by-zone placement (ISSUE 9 /
// DESIGN.md §routing-zones).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "simnet/fault.hpp"
#include "simnet/media.hpp"
#include "simnet/topo.hpp"
#include "simnet/world.hpp"

using namespace snipe;
using namespace snipe::simnet;

// ---- MediaModel::serialize_time edges -------------------------------------

TEST(Media, SerializeTimeZeroBytePayloadStillPaysFramingOverhead) {
  // A zero-byte datagram still serializes its 66 framing bytes:
  // 66 * 8 bits / 100 Mb/s = 5.28 us exactly.
  EXPECT_EQ(ethernet100().serialize_time(0), 5280);
  // And overhead-free media serialize nothing in zero time.
  MediaModel bare;
  bare.bandwidth_bps = 1e9;
  EXPECT_EQ(bare.serialize_time(0), 0);
}

TEST(Media, SerializeTimeIsMonotonicAndDefinedAboveMtu) {
  // serialize_time is a pure wire-clock function: the MTU check lives in
  // Host::send, so oversized payloads (rejected there) still have a
  // well-defined, monotonically growing serialization cost here.
  MediaModel eth = ethernet100();
  EXPECT_GT(eth.serialize_time(eth.mtu + 1), eth.serialize_time(eth.mtu));
  EXPECT_GT(eth.serialize_time(10 * eth.mtu), eth.serialize_time(eth.mtu));
}

TEST(Media, AtmCellTaxRoundsUpAgainstTaxedBandwidth) {
  MediaModel atm = atm155();
  double eff_bps = atm.bandwidth_bps * (1.0 - atm.cell_tax);  // 48/53 of line
  for (std::size_t payload : {std::size_t{0}, std::size_t{1}, std::size_t{48},
                              std::size_t{1500}, std::size_t{9180}}) {
    double bits = static_cast<double>(payload + atm.overhead) * 8.0;
    SimDuration t = atm.serialize_time(payload);
    // Ceil semantics: t is the smallest whole nanosecond covering the bits.
    EXPECT_GE(static_cast<double>(t) * eff_bps, bits * 1e9 - 1e-3) << payload;
    EXPECT_LT(static_cast<double>(t - 1) * eff_bps, bits * 1e9) << payload;
  }
  // The 5-in-53 cell tax costs 53/48 of the untaxed time.
  MediaModel untaxed = atm;
  untaxed.cell_tax = 0.0;
  double ratio = static_cast<double>(atm.serialize_time(9000)) /
                 static_cast<double>(untaxed.serialize_time(9000));
  EXPECT_NEAR(ratio, 53.0 / 48.0, 1e-3);
}

// ---- zone construction & shard placement ----------------------------------

TEST(Topo, ZonesDefaultShardRoundRobinAndChildrenInherit) {
  World world(5, 2);
  Zone& z0 = world.create_zone("z0");
  Zone& z1 = world.create_zone("z1");
  Zone& z1a = world.create_zone("z1/a", &z1);
  EXPECT_EQ(z0.shard(), 0u);
  EXPECT_EQ(z1.shard(), 1u);
  EXPECT_EQ(z1a.shard(), 1u);
  EXPECT_EQ(world.zone("z1/a"), &z1a);
  ASSERT_EQ(world.top_zones().size(), 2u);

  Host& h = z1a.create_host("h");
  EXPECT_EQ(h.shard(), 1u);
  EXPECT_EQ(h.zone(), &z1a);
  Router& r = z0.create_router("r");
  EXPECT_EQ(r.shard(), 0u);
  EXPECT_TRUE(r.is_router());
}

TEST(Topo, ZonePlacementCutsCrossShardTrafficVersusNaive) {
  // Two sites, intra-site traffic only.  Shard-by-zone keeps every send on
  // its own shard; naive alternating placement pushes half of them through
  // the cross-shard mailboxes.
  auto run = [](bool zoned) -> std::uint64_t {
    World world(11, 2);
    Zone& z0 = world.create_zone("site0");  // shard 0
    Zone& z1 = world.create_zone("site1");  // shard 1
    Network& lan0 = z0.create_network("site0/lan", ethernet100());
    Network& lan1 = z1.create_network("site1/lan", ethernet100());
    std::vector<Host*> a, b;
    for (int i = 0; i < 4; ++i) {
      Host& ha = zoned ? z0.create_host("a" + std::to_string(i))
                       : world.create_host("a" + std::to_string(i), i % 2);
      world.attach(ha, lan0);
      a.push_back(&ha);
      Host& hb = zoned ? z1.create_host("b" + std::to_string(i))
                       : world.create_host("b" + std::to_string(i), (i + 1) % 2);
      world.attach(hb, lan1);
      b.push_back(&hb);
    }
    std::atomic<int> delivered{0};  // handlers run on both shard threads
    for (auto* hosts : {&a, &b})
      for (Host* h : *hosts)
        EXPECT_TRUE(h->bind(9, [&delivered](const Packet&) { ++delivered; }).ok());
    // 10 staggered rounds of neighbor-to-neighbor sends within each site.
    for (int round = 0; round < 10; ++round)
      for (int i = 0; i < 4; ++i) {
        SimTime at = duration::milliseconds(1 + round) + i * 1000;
        a[i]->engine().schedule_at(at, [h = a[i], to = a[(i + 1) % 4]->name()] {
          (void)h->send(Address{to, 9}, Payload(Bytes(64, 0x5a)));
        });
        b[i]->engine().schedule_at(at, [h = b[i], to = b[(i + 1) % 4]->name()] {
          (void)h->send(Address{to, 9}, Payload(Bytes(64, 0xa5)));
        });
      }
    world.run_until(duration::seconds(1));
    EXPECT_EQ(delivered.load(), 80);
    return world.run_stats().cross_shard_packets;
  };
  std::uint64_t zoned = run(true);
  std::uint64_t naive = run(false);
  EXPECT_EQ(zoned, 0u);
  EXPECT_GT(naive, 0u);
}

// ---- route resolution -----------------------------------------------------

TEST(Topo, FatTreeRouteGoesUpAndDown) {
  World world(7);
  FatTreeOptions opt;
  opt.racks = 2;
  opt.hosts_per_rack = 2;
  opt.spines = 2;
  Zone& dc = build_fat_tree(world, "dc", opt);
  EXPECT_NE(dc.gateway(), nullptr);

  Host& src = *world.host("dc/h0_0");
  // Same rack: adjacent, no route needed (direct-send candidate exists).
  EXPECT_EQ(world.net_distance("dc/h0_0", "dc/h0_1"),
            opt.rack_media.latency);
  // Cross rack: up through tor0 to a spine, down through tor1.
  auto route = world.resolve_route(src, "dc/h1_1");
  ASSERT_NE(route, nullptr);
  ASSERT_EQ(route->hops.size(), 4u);
  EXPECT_EQ(route->hops[0].net->name(), "dc/rack0");
  EXPECT_EQ(route->hops[1].net->name().rfind("dc/up0_", 0), 0u);
  EXPECT_EQ(route->hops[2].net->name().rfind("dc/up1_", 0), 0u);
  EXPECT_EQ(route->hops[3].net->name(), "dc/rack1");
  // Hop 1 and 2 traverse the same spine plane.
  EXPECT_EQ(route->hops[1].net->name().back(), route->hops[2].net->name().back());
  EXPECT_EQ(route->latency, 2 * opt.rack_media.latency + 2 * opt.uplink_media.latency);
  EXPECT_EQ(route->mtu, opt.rack_media.mtu);
  EXPECT_EQ(world.net_distance("dc/h0_0", "dc/h1_1"), route->latency);

  // Distinct host pairs spread across both spine planes (deterministic
  // ECMP: the tie-break hashes the pair, not the clock or the heap).
  std::set<std::string> planes;
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 2; ++j) {
      Host& s = *world.host("dc/h0_" + std::to_string(i));
      auto r = world.resolve_route(s, "dc/h1_" + std::to_string(j));
      ASSERT_NE(r, nullptr);
      planes.insert(r->hops[1].net->name());
    }
  EXPECT_EQ(planes.size(), 2u) << "expected both spine planes in use";
}

TEST(Topo, ResolveRouteByHostOrNameSharesOneCacheEntry) {
  World world(7);
  FatTreeOptions opt;
  opt.racks = 2;
  opt.hosts_per_rack = 1;
  opt.spines = 1;
  build_fat_tree(world, "dc", opt);
  Host& src = *world.host("dc/h0_0");
  Host* dst = world.host("dc/h1_0");

  auto by_host = world.resolve_route(src, dst);
  ASSERT_NE(by_host, nullptr);
  EXPECT_EQ(by_host->dst, dst);
  // Both forms hit the one cache entry keyed by the destination Host*.
  EXPECT_EQ(world.resolve_route(src, "dc/h1_0"), by_host);
  EXPECT_EQ(world.resolve_route(src, dst), by_host);
  // Unknown names, a null host and the source itself have no route.
  EXPECT_EQ(world.resolve_route(src, "dc/nowhere"), nullptr);
  EXPECT_EQ(world.resolve_route(src, static_cast<Host*>(nullptr)), nullptr);
  EXPECT_EQ(world.resolve_route(src, &src), nullptr);
}

TEST(Topo, RoutedDeliveryAccumulatesPerHopSerializeAndPropagate) {
  World world(3);
  FatTreeOptions opt;
  opt.racks = 2;
  opt.hosts_per_rack = 1;
  opt.spines = 1;
  build_fat_tree(world, "dc", opt);
  Host& src = *world.host("dc/h0_0");
  Host& dst = *world.host("dc/h1_0");

  const std::size_t kBytes = 512;
  SimTime delivered_at = -1;
  ASSERT_TRUE(dst.bind(9, [&](const Packet& p) {
                     delivered_at = dst.engine().now();
                     EXPECT_EQ(p.src->name(), "dc/h0_0");
                     EXPECT_EQ(p.payload.size(), kBytes);
                     EXPECT_EQ(p.network->name(), "dc/rack1");  // last hop
                   })
                  .ok());
  auto sent = src.send(Address{"dc/h1_0", 9}, Payload(Bytes(kBytes, 0x11)));
  ASSERT_TRUE(sent.ok());
  EXPECT_EQ(sent.value(), "dc/rack0");  // first-hop network
  world.run_all();

  SimDuration ser_rack = opt.rack_media.serialize_time(kBytes);
  SimDuration ser_up = opt.uplink_media.serialize_time(kBytes);
  EXPECT_EQ(delivered_at, 2 * (ser_rack + opt.rack_media.latency) +
                              2 * (ser_up + opt.uplink_media.latency));
}

TEST(Topo, NoRouteIsAnErrorNotACrash) {
  World world(9);
  build_lan(world, "island_a", 1, ethernet100());
  build_lan(world, "island_b", 1, ethernet100());  // never connected
  Host& a = *world.host("island_a/h0");
  auto r = a.send(Address{"island_b/h0", 9}, Payload(Bytes(8, 1)));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::unreachable);
  EXPECT_EQ(world.net_distance("island_a/h0", "island_b/h0"), World::kUnreachable);
  EXPECT_EQ(world.resolve_route(a, "island_b/h0"), nullptr);
  // Unknown destination host: same error class.
  EXPECT_FALSE(a.send(Address{"nowhere", 9}, Payload(Bytes(8, 1))).ok());
}

TEST(Topo, RoutedSendRejectsPayloadAboveRouteBottleneckMtu) {
  World world(13);
  Zone& a = build_lan(world, "a", 1, atm155());      // MTU 9180 inside
  Zone& b = build_lan(world, "b", 1, atm155());
  connect_zones(a, b, wan_t3(), "wan");              // MTU 1500 bottleneck
  Host& src = *world.host("a/h0");
  auto route = world.resolve_route(src, "b/h0");
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->mtu, 1500u);
  auto r = src.send(Address{"b/h0", 9}, Payload(Bytes(2000, 2)));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::invalid_argument);
  // Under the bottleneck it flies.
  EXPECT_TRUE(src.send(Address{"b/h0", 9}, Payload(Bytes(1400, 2))).ok());
}

TEST(Topo, GatewayLinkFaultInvalidatesCachedRoutesAndFailsOver) {
  World world(17);
  Zone& a = build_lan(world, "a", 1, ethernet100());
  Zone& b = build_lan(world, "b", 1, ethernet100());
  MediaModel slow = wan_t3();
  slow.latency = duration::milliseconds(40);
  Network& fast = connect_zones(a, b, wan_t3(), "wan_fast");  // 18 ms
  connect_zones(a, b, slow, "wan_slow");
  Host& src = *world.host("a/h0");

  auto r1 = world.resolve_route(src, "b/h0");
  ASSERT_NE(r1, nullptr);
  EXPECT_EQ(r1->hops[1].net->name(), "wan_fast");
  // Cache hit: same shared route object while the epoch is unchanged.
  EXPECT_EQ(world.resolve_route(src, "b/h0"), r1);

  // A scheduled gateway-link fault bumps the route epoch; the next resolve
  // re-routes over the slow link without any explicit invalidation call.
  FaultPlan plan(world, 99);
  plan.link_down("wan_fast", duration::milliseconds(5), duration::seconds(2));
  world.run_until(duration::milliseconds(10));
  auto r2 = world.resolve_route(src, "b/h0");
  ASSERT_NE(r2, nullptr);
  EXPECT_NE(r2, r1);
  EXPECT_EQ(r2->hops[1].net->name(), "wan_slow");

  // Both links dead: negative result is cached...
  world.network("wan_slow")->set_up(false);
  EXPECT_EQ(world.resolve_route(src, "b/h0"), nullptr);
  // ...and un-cached the moment the topology heals.
  world.run_until(duration::seconds(3));  // wan_fast comes back at t=2s
  auto r3 = world.resolve_route(src, "b/h0");
  ASSERT_NE(r3, nullptr);
  EXPECT_EQ(r3->hops[1].net->name(), "wan_fast");
  (void)fast;
}

TEST(Topo, PartitionDropsRoutedPacketsEndToEnd) {
  // The partition boundary applies to the packet's (src, dst) pair even
  // though interior hops are judged under the forwarding router's lane.
  World world(19);
  Zone& a = build_lan(world, "a", 1, ethernet100());
  Zone& b = build_lan(world, "b", 1, ethernet100());
  Network& wan = connect_zones(a, b, wan_t3(), "wan");
  auto injector = std::make_shared<FaultInjector>(FaultProfile{}, Rng(4));
  injector->set_partition({{"a/h0"}, {"b/h0"}});
  wan.set_fault(injector);

  Host& src = *world.host("a/h0");
  // The wan is an interior hop: a router transmits onto it, so the drop is
  // judged in the router's lane on the end-to-end host names.
  auto route = world.resolve_route(src, "b/h0");
  ASSERT_NE(route, nullptr);
  ASSERT_EQ(route->hops.size(), 3u);
  EXPECT_EQ(route->hops[1].net, &wan);
  EXPECT_TRUE(route->hops[1].tx->node()->is_router());
  int delivered = 0;
  ASSERT_TRUE(world.host("b/h0")->bind(9, [&](const Packet&) { ++delivered; }).ok());
  ASSERT_TRUE(src.send(Address{"b/h0", 9}, Payload(Bytes(32, 3))).ok());
  world.run_all();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(injector->stats().drops_partition.load(), 1u);
  EXPECT_EQ(wan.stats().drops_fault.load(), 1u);

  injector->heal_partition();
  ASSERT_TRUE(src.send(Address{"b/h0", 9}, Payload(Bytes(32, 3))).ok());
  world.run_all();
  EXPECT_EQ(delivered, 1);
}

TEST(Topo, StarLanContendsPerPortAndDescribeTopologyShowsState) {
  World world(23);
  Zone& lan = build_star_lan(world, "office", 3, ethernet100());
  EXPECT_EQ(lan.routers().size(), 1u);  // the hub
  EXPECT_EQ(lan.networks().size(), 3u);

  // Hosts on a star reach each other through the hub: two hops.
  Host& h0 = *world.host("office/h0");
  auto route = world.resolve_route(h0, "office/h2");
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->hops.size(), 2u);

  int got = 0;
  ASSERT_TRUE(world.host("office/h2")->bind(7, [&](const Packet&) { ++got; }).ok());
  ASSERT_TRUE(h0.send(Address{"office/h2", 7}, Payload(Bytes(100, 9))).ok());
  world.run_all();
  EXPECT_EQ(got, 1);

  std::string dump = world.describe_topology();
  EXPECT_NE(dump.find("zone office"), std::string::npos);
  EXPECT_NE(dump.find("office/hub"), std::string::npos);
  EXPECT_NE(dump.find("router"), std::string::npos);
  EXPECT_NE(dump.find("up"), std::string::npos);
  world.network("office/l1")->set_up(false);
  EXPECT_NE(world.describe_topology().find("DOWN"), std::string::npos);
}
