// Unit tests for snipe_simnet: event engine determinism, media timing,
// route selection (§5.3), failure injection, loss, and broadcast.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "simnet/engine.hpp"
#include "simnet/fault.hpp"
#include "simnet/media.hpp"
#include "simnet/world.hpp"
#include "util/log.hpp"

namespace snipe::simnet {
namespace {

TEST(Engine, RunsEventsInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule(duration::milliseconds(30), [&] { order.push_back(3); });
  engine.schedule(duration::milliseconds(10), [&] { order.push_back(1); });
  engine.schedule(duration::milliseconds(20), [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), duration::milliseconds(30));
}

TEST(Engine, EqualTimesFireInScheduleOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    engine.schedule(duration::seconds(1), [&order, i] { order.push_back(i); });
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, CancelPreventsExecution) {
  Engine engine;
  bool fired = false;
  auto id = engine.schedule(duration::seconds(1), [&] { fired = true; });
  engine.cancel(id);
  engine.run();
  EXPECT_FALSE(fired);
  engine.cancel(id);       // double-cancel is a no-op
  engine.cancel(TimerId{});  // null cancel is a no-op
}

TEST(Engine, EventsCanScheduleEvents) {
  Engine engine;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) engine.schedule(duration::seconds(1), tick);
  };
  engine.schedule(0, tick);
  engine.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(engine.now(), duration::seconds(4));
}

TEST(Engine, RunUntilAdvancesClockExactly) {
  Engine engine;
  bool fired = false;
  engine.schedule(duration::seconds(10), [&] { fired = true; });
  engine.run_until(duration::seconds(5));
  EXPECT_FALSE(fired);
  EXPECT_EQ(engine.now(), duration::seconds(5));
  engine.run_until(duration::seconds(10));
  EXPECT_TRUE(fired);
}

TEST(Engine, WeakEventsDoNotKeepRunAlive) {
  Engine engine;
  int weak_fires = 0;
  // A self-rescheduling housekeeping tick, like anti-entropy or polling.
  std::function<void()> tick = [&] {
    ++weak_fires;
    engine.schedule_weak(duration::seconds(1), tick);
  };
  engine.schedule_weak(duration::seconds(1), tick);
  bool strong_fired = false;
  engine.schedule(duration::milliseconds(2500), [&] { strong_fired = true; });

  engine.run();
  EXPECT_TRUE(strong_fired);
  // The weak ticks at 1 s and 2 s ran (they precede the strong event); the
  // one at 3 s did not — run() stopped when only housekeeping remained.
  EXPECT_EQ(weak_fires, 2);
  EXPECT_EQ(engine.now(), duration::milliseconds(2500));
}

TEST(Engine, RunUntilExecutesWeakEvents) {
  Engine engine;
  int weak_fires = 0;
  std::function<void()> tick = [&] {
    ++weak_fires;
    engine.schedule_weak(duration::seconds(1), tick);
  };
  engine.schedule_weak(duration::seconds(1), tick);
  engine.run_until(duration::milliseconds(3500));
  EXPECT_EQ(weak_fires, 3);
}

TEST(Engine, WeakEventCanSpawnStrongWork) {
  Engine engine;
  bool strong_done = false;
  engine.schedule_weak(duration::seconds(1), [&] {
    engine.schedule(duration::milliseconds(100), [&] { strong_done = true; });
  });
  // Nothing strong pending yet: run() stops immediately...
  engine.run();
  EXPECT_FALSE(strong_done);
  // ...but run_until executes the tick, whose strong child then also runs.
  engine.run_until(duration::seconds(1));
  engine.run();
  EXPECT_TRUE(strong_done);
}

TEST(Engine, CancelWeakTimer) {
  Engine engine;
  bool fired = false;
  auto id = engine.schedule_weak(duration::seconds(1), [&] { fired = true; });
  engine.cancel(id);
  engine.run_until(duration::seconds(2));
  EXPECT_FALSE(fired);
}

TEST(Engine, RunHonoursEventBudget) {
  Engine engine;
  int count = 0;
  for (int i = 0; i < 10; ++i) engine.schedule(i, [&] { ++count; });
  EXPECT_EQ(engine.run(3), 3u);
  EXPECT_EQ(count, 3);
}

TEST(Engine, CancelFromInsideARunningEvent) {
  // The retransmit-ack pattern: the event that fires cancels a sibling
  // scheduled for the same tick and its own (already-fired) id.
  Engine engine;
  bool sibling_fired = false;
  TimerId self, sibling;
  self = engine.schedule(duration::seconds(1), [&] {
    engine.cancel(sibling);  // pending sibling: destroyed, never fires
    engine.cancel(self);     // own id already fired: no-op
  });
  sibling = engine.schedule(duration::seconds(1), [&] { sibling_fired = true; });
  engine.run();
  EXPECT_FALSE(sibling_fired);
  EXPECT_EQ(engine.events_run(), 1u);
}

TEST(Engine, CancelAfterFireIsANoOpEvenWhenSlotIsReused) {
  Engine engine;
  bool first = false, second = false;
  TimerId id = engine.schedule(duration::seconds(1), [&] { first = true; });
  engine.run();
  EXPECT_TRUE(first);
  // The new event recycles the fired event's slot; the stale id carries the
  // old generation and must not be able to cancel the newcomer.
  TimerId fresh = engine.schedule(duration::seconds(1), [&] { second = true; });
  EXPECT_EQ(fresh.slot, id.slot);
  engine.cancel(id);
  engine.run();
  EXPECT_TRUE(second);
}

TEST(Engine, TenThousandEqualTimeEventsFireInScheduleOrder) {
  Engine engine;
  const int kEvents = 10'000;
  std::vector<int> order;
  order.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i)
    engine.schedule(duration::seconds(1), [&order, i] { order.push_back(i); });
  engine.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kEvents));
  for (int i = 0; i < kEvents; ++i) ASSERT_EQ(order[i], i);
  EXPECT_EQ(engine.now(), duration::seconds(1));
}

TEST(Engine, RunTerminatesWhenOnlyWeakEventsRemain) {
  // A self-rescheduling weak tick (the housekeeping pattern) must not keep
  // run() spinning once the last strong event has fired.
  Engine engine;
  int ticks = 0, strong = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    engine.schedule_weak(duration::seconds(1), tick);
  };
  engine.schedule_weak(duration::seconds(1), tick);
  engine.schedule(duration::milliseconds(1500), [&] { ++strong; });
  engine.run();
  EXPECT_EQ(strong, 1);
  // The weak tick at t=1s ran (it preceded the strong event); the one it
  // re-armed for t=2s must not.
  EXPECT_EQ(ticks, 1);
  EXPECT_EQ(engine.now(), duration::milliseconds(1500));
}

TEST(Engine, ClearReleasesEventOwnedResources) {
  Engine engine;
  auto resource = std::make_shared<int>(7);
  std::weak_ptr<int> watch = resource;
  engine.schedule(duration::seconds(5), [keep = std::move(resource)] { (void)*keep; });
  EXPECT_FALSE(watch.expired());
  engine.clear();
  EXPECT_TRUE(watch.expired());  // destroyed without running
  EXPECT_EQ(engine.run(), 0u);
}

TEST(Engine, CancelWithPreClearTimerIdIsSafeAfterClear) {
  Engine engine;
  TimerId stale = engine.schedule(duration::seconds(1), [] {});
  engine.clear();
  bool fired = false;
  // Post-clear event may land in the same slot; the stale id must not hit it.
  engine.schedule(duration::seconds(1), [&] { fired = true; });
  engine.cancel(stale);
  engine.run();
  EXPECT_TRUE(fired);
}

TEST(Media, SerializeTimeScalesWithSize) {
  auto eth = ethernet100();
  // 1500 bytes + 66 overhead at 100 Mb/s = 125.28 us
  EXPECT_NEAR(to_seconds(eth.serialize_time(1500)), 125.28e-6, 1e-7);
  // ATM pays the cell tax.
  auto atm = atm155();
  double atm_goodput = 149.76e6 * (1.0 - 5.0 / 53.0);
  EXPECT_NEAR(to_seconds(atm.serialize_time(9000)),
              (9000 + 36) * 8.0 / atm_goodput, 1e-7);
}

TEST(Media, ModelsAreOrderedAsExpected) {
  // Effective point-to-point large-message rate: myrinet > atm155 > eth100 > wan.
  auto rate = [](const MediaModel& m) {
    return 8192.0 / to_seconds(m.serialize_time(8192));
  };
  EXPECT_GT(rate(myrinet()), rate(atm155()));
  EXPECT_GT(rate(atm155()), rate(ethernet100()));
  EXPECT_GT(rate(ethernet100()), rate(wan_t3()));
}

class WorldTest : public ::testing::Test {
 protected:
  WorldTest() : world(42) {
    world.create_network("lan", ethernet100());
    auto& a = world.create_host("a");
    auto& b = world.create_host("b");
    world.attach(a, *world.network("lan"));
    world.attach(b, *world.network("lan"));
  }
  World world;
};

TEST_F(WorldTest, DatagramDelivery) {
  std::vector<Packet> received;
  world.host("b")->bind(5000, [&](const Packet& p) { received.push_back(p); }).value();
  world.host("a")->send({"b", 5000}, to_bytes("hello")).value();
  world.engine().run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(to_string(received[0].payload), "hello");
  EXPECT_EQ(received[0].src->name(), "a");
  EXPECT_EQ(received[0].network->name(), "lan");
}

TEST_F(WorldTest, DeliveryTimeMatchesMediaModel) {
  SimTime arrival = -1;
  world.host("b")->bind(5000, [&](const Packet&) { arrival = world.now(); }).value();
  world.host("a")->send({"b", 5000}, Bytes(1000, 0)).value();
  world.engine().run();
  auto eth = ethernet100();
  EXPECT_EQ(arrival, eth.serialize_time(1000) + eth.latency);
}

TEST_F(WorldTest, BackToBackSendsQueueOnTheNic) {
  std::vector<SimTime> arrivals;
  world.host("b")->bind(5000, [&](const Packet&) { arrivals.push_back(world.now()); }).value();
  world.host("a")->send({"b", 5000}, Bytes(1000, 0)).value();
  world.host("a")->send({"b", 5000}, Bytes(1000, 0)).value();
  world.engine().run();
  ASSERT_EQ(arrivals.size(), 2u);
  auto eth = ethernet100();
  // Second packet waits for the first to finish serializing.
  EXPECT_EQ(arrivals[1] - arrivals[0], eth.serialize_time(1000));
}

TEST_F(WorldTest, OversizeDatagramRejected) {
  auto r = world.host("a")->send({"b", 5000}, Bytes(2000, 0));
  EXPECT_EQ(r.code(), Errc::invalid_argument);
}

TEST_F(WorldTest, UnknownHostAndNoSharedNetwork) {
  EXPECT_EQ(world.host("a")->send({"ghost", 1}, Bytes{1}).code(), Errc::not_found);
  world.create_host("island");
  EXPECT_EQ(world.host("a")->send({"island", 1}, Bytes{1}).code(), Errc::unreachable);
}

TEST_F(WorldTest, UnboundPortCountsAsDrop) {
  world.host("a")->send({"b", 9999}, Bytes{1}).value();
  world.engine().run();
  EXPECT_EQ(world.network("lan")->stats().drops_unbound, 1u);
}

TEST_F(WorldTest, BindConflictAndUnbind) {
  auto h = [](const Packet&) {};
  world.host("b")->bind(5000, h).value();
  EXPECT_EQ(world.host("b")->bind(5000, h).code(), Errc::already_exists);
  world.host("b")->unbind(5000);
  EXPECT_TRUE(world.host("b")->bind(5000, h).ok());
}

TEST_F(WorldTest, EphemeralPortsDistinct) {
  auto* a = world.host("a");
  auto p1 = a->ephemeral_port();
  a->bind(p1, [](const Packet&) {}).value();
  auto p2 = a->ephemeral_port();
  EXPECT_NE(p1, p2);
  EXPECT_GE(p1, 49152);
}

TEST_F(WorldTest, DownHostDropsAtDelivery) {
  int received = 0;
  world.host("b")->bind(5000, [&](const Packet&) { ++received; }).value();
  world.host("a")->send({"b", 5000}, Bytes{1}).value();
  world.host("b")->set_up(false);  // dies while the packet is in flight
  world.engine().run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(world.network("lan")->stats().drops_down, 1u);

  // Host comes back: bindings survived the reboot.
  world.host("b")->set_up(true);
  world.host("a")->send({"b", 5000}, Bytes{1}).value();
  world.engine().run();
  EXPECT_EQ(received, 1);
}

TEST_F(WorldTest, DownSenderCannotSend) {
  world.host("a")->set_up(false);
  EXPECT_EQ(world.host("a")->send({"b", 5000}, Bytes{1}).code(), Errc::unreachable);
}

TEST_F(WorldTest, NetworkDownMakesUnreachable) {
  world.network("lan")->set_up(false);
  EXPECT_EQ(world.host("a")->send({"b", 5000}, Bytes{1}).code(), Errc::unreachable);
}

TEST(World, FastestSharedNetworkChosen) {
  // §5.3: dual-homed hosts use the fastest common network.
  World world(1);
  world.create_network("eth", ethernet100());
  world.create_network("atm", atm155());
  auto& a = world.create_host("a");
  auto& b = world.create_host("b");
  world.attach(a, *world.network("eth"));
  world.attach(a, *world.network("atm"));
  world.attach(b, *world.network("eth"));
  world.attach(b, *world.network("atm"));

  EXPECT_EQ(a.send({"b", 1}, Bytes(100, 0)).value(), "atm");

  // Preferred network overrides the speed ranking.
  SendOptions opts;
  opts.preferred_network = world.network("eth");
  EXPECT_EQ(a.send({"b", 1}, Bytes(100, 0), opts).value(), "eth");

  // ATM NIC failure falls back to Ethernet (§6 route switching).
  a.nic_on("atm")->set_up(false);
  EXPECT_EQ(a.send({"b", 1}, Bytes(100, 0)).value(), "eth");
}

TEST(World, LossRateIsRespected) {
  World world(7);
  auto& net = world.create_network("lossy", internet_lossy());
  net.set_extra_loss(0.19);  // total 20%
  auto& a = world.create_host("a");
  auto& b = world.create_host("b");
  world.attach(a, net);
  world.attach(b, net);
  int received = 0;
  b.bind(1, [&](const Packet&) { ++received; }).value();
  const int n = 5000;
  for (int i = 0; i < n; ++i) a.send({"b", 1}, Bytes{1}).value();
  world.engine().run();
  EXPECT_NEAR(static_cast<double>(received) / n, 0.80, 0.03);
  EXPECT_EQ(net.stats().drops_loss + net.stats().packets_delivered,
            static_cast<std::uint64_t>(n));
}

TEST(World, BroadcastReachesAllOthers) {
  World world(3);
  auto& net = world.create_network("seg", ethernet100());
  for (const char* name : {"a", "b", "c", "d"})
    world.attach(world.create_host(name), net);
  int got_b = 0, got_c = 0, got_d = 0, got_a = 0;
  world.host("a")->bind(9, [&](const Packet&) { ++got_a; }).value();
  world.host("b")->bind(9, [&](const Packet&) { ++got_b; }).value();
  world.host("c")->bind(9, [&](const Packet&) { ++got_c; }).value();
  world.host("d")->bind(9, [&](const Packet&) { ++got_d; }).value();
  world.host("a")->broadcast("seg", 9, to_bytes("all")).value();
  world.engine().run();
  EXPECT_EQ(got_a, 0);  // sender does not hear itself
  EXPECT_EQ(got_b, 1);
  EXPECT_EQ(got_c, 1);
  EXPECT_EQ(got_d, 1);
}

TEST(World, PacketNamesSenderPortsAndArrivalNetwork) {
  // Direct, routed and broadcast deliveries all stamp the sending Host*,
  // both ports, and the network the datagram arrived on (the last hop when
  // routed: a -lan- r1 -wan- r2 -far- c).
  World world(5);
  Network& lan = world.create_network("lan", ethernet100());
  Network& wan = world.create_network("wan", wan_t3());
  Network& far = world.create_network("far", ethernet100());
  Host& a = world.create_host("a");
  Host& b = world.create_host("b");
  Host& c = world.create_host("c");
  Router& r1 = world.create_router("r1");
  Router& r2 = world.create_router("r2");
  world.attach(a, lan);
  world.attach(b, lan);
  world.attach(r1, lan);
  world.attach(r1, wan);
  world.attach(r2, wan);
  world.attach(r2, far);
  world.attach(c, far);
  std::vector<Packet> at_b, at_c;
  b.bind(7, [&](const Packet& p) { at_b.push_back(p); }).value();
  c.bind(8, [&](const Packet& p) { at_c.push_back(p); }).value();

  SendOptions direct;
  direct.src_port = 4000;
  EXPECT_EQ(a.send({"b", 7}, to_bytes("direct"), direct).value(), "lan");
  SendOptions routed;
  routed.src_port = 4001;
  EXPECT_EQ(a.send({"c", 8}, to_bytes("routed"), routed).value(), "lan");
  ASSERT_EQ(world.resolve_route(a, "c")->hops.size(), 3u);
  world.run_all();
  a.broadcast("lan", 7, to_bytes("bcast"), 4002).value();
  world.run_all();

  ASSERT_EQ(at_b.size(), 2u);
  EXPECT_EQ(to_string(at_b[0].payload), "direct");
  EXPECT_EQ(at_b[0].src, &a);
  EXPECT_EQ(at_b[0].src_port, 4000);
  EXPECT_EQ(at_b[0].dst_port, 7);
  EXPECT_EQ(at_b[0].network, world.network("lan"));
  EXPECT_EQ(to_string(at_b[1].payload), "bcast");
  EXPECT_EQ(at_b[1].src, &a);
  EXPECT_EQ(at_b[1].src_port, 4002);
  EXPECT_EQ(at_b[1].dst_port, 7);
  EXPECT_EQ(at_b[1].network, world.network("lan"));

  ASSERT_EQ(at_c.size(), 1u);
  EXPECT_EQ(to_string(at_c[0].payload), "routed");
  EXPECT_EQ(at_c[0].src, &a);
  EXPECT_EQ(at_c[0].src_port, 4001);
  EXPECT_EQ(at_c[0].dst_port, 8);
  EXPECT_EQ(at_c[0].network, world.network("far"));
  EXPECT_EQ(wan.stats().packets_sent.load(), 1u);  // it really crossed the routers
}

TEST(World, DeterministicAcrossRuns) {
  auto run_once = [] {
    World world(1234);
    auto& net = world.create_network("n", internet_lossy());
    auto& a = world.create_host("a");
    auto& b = world.create_host("b");
    world.attach(a, net);
    world.attach(b, net);
    std::vector<SimTime> arrivals;
    b.bind(1, [&](const Packet&) { arrivals.push_back(world.now()); }).value();
    for (int i = 0; i < 200; ++i) a.send({"b", 1}, Bytes(100, 0)).value();
    world.engine().run();
    return std::make_pair(arrivals, world.replay_digest());
  };
  auto first = run_once();
  EXPECT_EQ(first, run_once());
  EXPECT_NE(first.second, 0u);
}

TEST(World, SendByPointerAndByNameMeetTheSameFates) {
  // Host::send(Address) resolves the name and hands over to the pointer
  // overload: over loss, duplication, an unbound port and a dead host the
  // two must draw the same randomness and reach the same datagram fates.
  struct Outcome {
    std::vector<std::pair<SimTime, std::size_t>> arrivals;
    std::vector<std::string> first_hops;
    std::uint64_t digest = 0, delivered = 0, lost = 0, unbound = 0, down = 0, dups = 0;
    bool operator==(const Outcome&) const = default;
  };
  auto run_once = [](bool by_pointer) {
    World world(99);
    auto& lossy = world.create_network("lossy", internet_lossy());
    auto& eth = world.create_network("eth", ethernet100());
    auto& a = world.create_host("a");
    auto& b = world.create_host("b");
    auto& c = world.create_host("c");
    for (Host* h : {&a, &b, &c}) world.attach(*h, lossy);
    world.attach(a, eth);
    world.attach(b, eth);
    FaultPlan plan(world, 5);
    FaultProfile prof;
    prof.duplicate = 0.2;
    plan.inject("lossy", prof);
    Outcome out;
    b.bind(1, [&](const Packet& p) { out.arrivals.emplace_back(world.now(), p.payload.size()); })
        .value();
    c.set_up(false);
    SendOptions slow;
    slow.preferred_network = &lossy;
    for (int i = 0; i < 300; ++i) {
      Host* to = i % 7 == 0 ? &c : &b;
      std::uint16_t port = i % 11 == 0 ? 2 : 1;  // port 2 is unbound
      const SendOptions& opts = i % 2 == 0 ? slow : SendOptions{};
      Payload m(Bytes(64 + i, 0));
      if (by_pointer) {
        out.first_hops.push_back(a.send(to, port, std::move(m), opts).value()->name());
      } else {
        out.first_hops.push_back(a.send({to->name(), port}, std::move(m), opts).value());
      }
    }
    world.engine().run();
    for (Network* n : {&lossy, &eth}) {
      out.delivered += n->stats().packets_delivered;
      out.lost += n->stats().drops_loss;
      out.unbound += n->stats().drops_unbound;
      out.down += n->stats().drops_down;
      out.dups += n->stats().fault_duplicates;
    }
    out.digest = world.replay_digest();
    return out;
  };
  const Outcome by_name = run_once(false);
  EXPECT_EQ(by_name, run_once(true));
  // Every fate really occurred, on both networks.
  EXPECT_GT(by_name.lost, 0u);
  EXPECT_GT(by_name.unbound, 0u);
  EXPECT_GT(by_name.down, 0u);
  EXPECT_GT(by_name.dups, 0u);
  EXPECT_EQ(by_name.first_hops[0], "lossy");
  EXPECT_EQ(by_name.first_hops[1], "eth");
}

TEST(World, DestroyingASecondWorldKeepsTheFirstWorldsClock) {
  std::vector<std::optional<std::int64_t>> stamps;
  LogSink old_sink = set_log_sink([&](LogLevel, std::optional<std::int64_t> stamp,
                                      const std::string&, const std::string&) {
    stamps.push_back(stamp);
  });

  World first(1);
  obs::Tracer& tracer = first.tracer();
  tracer.set_enabled(true);
  Host& a = first.create_host("a");
  FaultPlan plan(first, 3);
  plan.crash_host("a", duration::seconds(5), duration::seconds(7));
  a.engine().schedule_at(duration::seconds(5),
                         [&a] { Logger("probe@a", a.clock()).error("at 5 s"); });
  first.run_until(duration::seconds(2));
  {
    World second(2);
    second.run_until(duration::seconds(1));
  }
  first.run_until(duration::seconds(6));
  set_log_sink(old_sink);

  // The crash's trace instant and flight entry and the host's log record
  // all carry the first World's clock.
  auto events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "host.crash");
  EXPECT_EQ(events[0].ts, duration::seconds(5));
  ASSERT_EQ(first.flight().events().size(), 1u);
  EXPECT_EQ(first.flight().events()[0].ts, duration::seconds(5));
  ASSERT_EQ(stamps.size(), 1u);
  EXPECT_EQ(stamps[0], std::optional<std::int64_t>(duration::seconds(5)));
  EXPECT_EQ(first.now(), duration::seconds(6));
}

// ---- The replay oracle: one hash per datagram fate, summed per network ----
//
// Each run moves one datagram from a, so the digests hold exactly the
// fates it met.  Every fate site must fold: a run whose only fate is a
// loss or a drop leaves a nonzero digest, and a fault that also delivers
// leaves a digest other than the plain delivery's.

struct OneDatagram {
  const char* to = "b";  ///< b shares n with a; e is routed a -n- r -m- e
  std::uint16_t port = 1;  ///< b and e listen on port 1 only
  std::size_t len = 100;
  SimTime at = 0;
  bool broadcast = false;  ///< on n, instead of the unicast
  double loss_n = 0, loss_m = 0;  ///< extra media loss
  bool b_down = false, r_dies = false;
  std::optional<FaultProfile> fault;  ///< injected on n
};
using Tweak = std::function<void(OneDatagram&)>;

/// Runs one datagram as `tweak` sets it up; returns the digests of n and m.
std::pair<std::uint64_t, std::uint64_t> one_datagram(const Tweak& tweak = {}) {
  OneDatagram o;
  if (tweak) tweak(o);
  World world(21);
  auto& n = world.create_network("n", ethernet100());
  auto& m = world.create_network("m", ethernet100());
  auto& a = world.create_host("a");
  auto& b = world.create_host("b");
  auto& e = world.create_host("e");
  auto& r = world.create_router("r");
  for (Node* node : std::initializer_list<Node*>{&a, &b, &r}) world.attach(*node, n);
  world.attach(r, m);
  world.attach(e, m);
  b.bind(1, [](const Packet&) {}).value();
  e.bind(1, [](const Packet&) {}).value();
  n.set_extra_loss(o.loss_n);
  m.set_extra_loss(o.loss_m);
  b.set_up(!o.b_down);
  FaultPlan plan(world, 5);
  if (o.fault) plan.inject("n", *o.fault);
  world.engine().schedule_at(o.at, [&] {
    if (o.broadcast)
      a.broadcast("n", o.port, Bytes(o.len, 7)).value();
    else
      a.send({o.to, o.port}, Bytes(o.len, 7)).value();
  });
  if (o.r_dies) world.engine().schedule_at(o.at + 1, [&r] { r.set_up(false); });
  world.run_all();
  return {n.stats().digest.load(), m.stats().digest.load()};
}

TEST(ReplayDigest, EveryFateSiteFoldsAndEachFieldMovesTheDigest) {
  const std::uint64_t delivered = one_datagram().first;
  EXPECT_NE(delivered, 0u);
  EXPECT_EQ(one_datagram().first, delivered);
  EXPECT_NE(one_datagram([](OneDatagram& o) { o.len = 101; }).first, delivered);
  EXPECT_NE(one_datagram([](OneDatagram& o) { o.at = 1; }).first, delivered);

  // Fates that end the datagram: each alone leaves a digest of its own.
  std::set<std::uint64_t> fates{delivered};
  for (const Tweak& ends_it : {Tweak([](OneDatagram& o) { o.port = 2; }),
                               Tweak([](OneDatagram& o) { o.loss_n = 1; }),
                               Tweak([](OneDatagram& o) { o.b_down = true; }),
                               Tweak([](OneDatagram& o) {
                                 o.fault.emplace().burst.loss_good = 1;
                               })})
    fates.insert(one_datagram(ends_it).first);
  EXPECT_EQ(fates.size(), 5u) << "two fates hashed alike";
  EXPECT_EQ(fates.count(0), 0u);

  // Corruption and duplication still deliver, with no jitter: their own
  // fate terms must show on top of the deliveries.
  EXPECT_NE(one_datagram([](OneDatagram& o) {
              o.fault.emplace().reorder_jitter = 0;
              o.fault->corrupt = 1;
            }).first,
            delivered);
  EXPECT_NE(one_datagram([](OneDatagram& o) {
              o.fault.emplace().reorder_jitter = 0;
              o.fault->duplicate = 1;
            }).first,
            2 * delivered);

  // A broadcast heard by b is the unicast's fate; a lost one still folds.
  EXPECT_EQ(one_datagram([](OneDatagram& o) { o.broadcast = true; }).first, delivered);
  EXPECT_NE(one_datagram([](OneDatagram& o) {
              o.broadcast = true;
              o.loss_n = 1;
            }).first,
            0u);

  // Routed to e: the transit hop on n is no fate; the first hop's loss
  // folds on n, the router's loss and down drop on m.
  const auto routed = one_datagram([](OneDatagram& o) { o.to = "e"; });
  EXPECT_EQ(routed.first, 0u);
  EXPECT_NE(routed.second, 0u);
  EXPECT_NE(one_datagram([](OneDatagram& o) {
              o.to = "e";
              o.loss_n = 1;
            }).first,
            0u);
  for (const Tweak& ends_it : {Tweak([](OneDatagram& o) { o.loss_m = 1; }),
                               Tweak([](OneDatagram& o) { o.r_dies = true; })}) {
    auto d = one_datagram([&](OneDatagram& o) {
      o.to = "e";
      ends_it(o);
    });
    EXPECT_EQ(d.first, 0u);
    EXPECT_NE(d.second, 0u);
    EXPECT_NE(d.second, routed.second);
  }
}

TEST(ReplayDigest, EqualTimeDeliveriesSumInEitherOrder) {
  // a -> b and c -> d leave at the same instant on idle NICs, so both land
  // at one virtual time; posting them the other way round swaps the
  // delivery order but not the digest.
  auto run = [](bool flip, std::vector<std::string>& order) {
    World world(8);
    auto& n = world.create_network("n", ethernet100());
    for (const char* name : {"a", "b", "c", "d"}) world.attach(world.create_host(name), n);
    for (const char* name : {"b", "d"})
      world.host(name)->bind(1, [&order, name](const Packet&) { order.push_back(name); })
          .value();
    auto ab = [&world] { world.host("a")->send({"b", 1}, Bytes(100, 1)).value(); };
    auto cd = [&world] { world.host("c")->send({"d", 1}, Bytes(100, 2)).value(); };
    world.engine().schedule_at(0, flip ? EventFn(cd) : EventFn(ab));
    world.engine().schedule_at(0, flip ? EventFn(ab) : EventFn(cd));
    world.run_all();
    return world.replay_digest();
  };
  std::vector<std::string> forward, reversed;
  EXPECT_EQ(run(false, forward), run(true, reversed));
  EXPECT_EQ(forward, (std::vector<std::string>{"b", "d"}));
  EXPECT_EQ(reversed, (std::vector<std::string>{"d", "b"}));
}

// ---- Fault injection: FaultInjector unit behaviour ----

TEST(Fault, GilbertElliottEmpiricalLossNearStationaryMean) {
  FaultProfile profile;
  profile.burst = {0.05, 0.25, 0.01, 0.9};
  FaultInjector inj(profile, Rng(99));
  const int n = 20000;
  int dropped = 0;
  for (int i = 0; i < n; ++i)
    if (inj.judge("a", "a", "b").drop) ++dropped;
  EXPECT_NEAR(static_cast<double>(dropped) / n, profile.burst.mean_loss(), 0.03);
  EXPECT_EQ(inj.stats().packets_judged, static_cast<std::uint64_t>(n));
  EXPECT_EQ(inj.stats().drops_burst, static_cast<std::uint64_t>(dropped));
}

TEST(Fault, PartitionBlocksAcrossGroupsOnly) {
  FaultInjector inj(FaultProfile{}, Rng(1));
  inj.set_partition({{"a", "b"}, {"c"}});
  EXPECT_TRUE(inj.partition_active());
  EXPECT_FALSE(inj.partitioned("a", "b"));  // same group
  EXPECT_TRUE(inj.partitioned("a", "c"));   // across groups
  EXPECT_TRUE(inj.judge("a", "a", "c").drop);
  EXPECT_EQ(inj.stats().drops_partition, 1u);
  // Unnamed hosts share an implicit group: together, but cut off from all
  // named groups.
  EXPECT_FALSE(inj.partitioned("x", "y"));
  EXPECT_TRUE(inj.partitioned("x", "a"));
  EXPECT_TRUE(inj.partitioned("c", "y"));
  inj.heal_partition();
  EXPECT_FALSE(inj.partition_active());
  EXPECT_FALSE(inj.partitioned("a", "c"));
  EXPECT_FALSE(inj.judge("a", "a", "c").drop);
}

TEST(Fault, CorruptPayloadFlipsBoundedBytesAndSkipsEmpty) {
  FaultProfile profile;
  profile.corrupt_max_bytes = 3;
  FaultInjector inj(profile, Rng(5));
  Payload empty;
  inj.corrupt_payload(empty, "");  // must not crash or grow
  EXPECT_TRUE(empty.empty());
  for (int trial = 0; trial < 50; ++trial) {
    Payload wire(Bytes(64, 0xAB));
    inj.corrupt_payload(wire, "");
    ASSERT_EQ(wire.size(), 64u);
    int flipped = 0;
    for (auto b : wire.to_bytes())
      if (b != 0xAB) ++flipped;
    EXPECT_GE(flipped, 1) << trial;
    EXPECT_LE(flipped, 3) << trial;
  }
}

TEST(Fault, DuplicationAlwaysYieldsTwoCopiesAtProbabilityOne) {
  FaultProfile profile;
  profile.duplicate = 1.0;
  FaultInjector inj(profile, Rng(7));
  for (int i = 0; i < 20; ++i) {
    auto v = inj.judge("a", "a", "b");
    EXPECT_FALSE(v.drop);
    EXPECT_EQ(v.copies, 2);
  }
  EXPECT_EQ(inj.stats().duplicated, 20u);
}

TEST(Fault, SameSeedSameVerdictSequence) {
  FaultProfile profile;
  profile.burst = {0.1, 0.3, 0.02, 0.8};
  profile.duplicate = 0.2;
  profile.reorder = 0.3;
  profile.corrupt = 0.1;
  FaultInjector x(profile, Rng(4242)), y(profile, Rng(4242));
  for (int i = 0; i < 500; ++i) {
    auto a = x.judge("a", "a", "b");
    auto b = y.judge("a", "a", "b");
    EXPECT_EQ(a.drop, b.drop) << i;
    EXPECT_EQ(a.corrupt, b.corrupt) << i;
    EXPECT_EQ(a.copies, b.copies) << i;
    EXPECT_EQ(a.extra_delay, b.extra_delay) << i;
    EXPECT_EQ(a.dup_delay, b.dup_delay) << i;
  }
}

// ---- Fault injection: World-level integration ----

TEST(Fault, CertainLossDropsEverySentPacket) {
  World world(11);
  auto& net = world.create_network("n", ethernet100());
  auto& a = world.create_host("a");
  auto& b = world.create_host("b");
  world.attach(a, net);
  world.attach(b, net);
  FaultPlan plan(world, 77);
  FaultProfile profile;
  profile.burst.loss_good = 1.0;
  plan.inject("n", profile);
  int received = 0;
  b.bind(1, [&](const Packet&) { ++received; }).value();
  for (int i = 0; i < 50; ++i) a.send({"b", 1}, Bytes{1}).value();
  world.engine().run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.stats().drops_fault, 50u);
}

TEST(Fault, CertainDuplicationDeliversTwice) {
  World world(12);
  auto& net = world.create_network("n", ethernet100());
  auto& a = world.create_host("a");
  auto& b = world.create_host("b");
  world.attach(a, net);
  world.attach(b, net);
  FaultPlan plan(world, 78);
  FaultProfile profile;
  profile.duplicate = 1.0;
  plan.inject("n", profile);
  int received = 0;
  b.bind(1, [&](const Packet&) { ++received; }).value();
  for (int i = 0; i < 25; ++i) a.send({"b", 1}, Bytes{1}).value();
  world.engine().run();
  EXPECT_EQ(received, 50);
  EXPECT_EQ(net.stats().fault_duplicates, 25u);
}

TEST(Fault, PlanWindowsFireAtScheduledVirtualTimes) {
  using duration::milliseconds;
  World world(13);
  auto& net = world.create_network("n", ethernet100());
  auto& a = world.create_host("a");
  auto& b = world.create_host("b");
  world.attach(a, net);
  world.attach(b, net);

  FaultPlan plan(world, 79);
  plan.crash_host("b", milliseconds(10), milliseconds(30));
  plan.partition("n", {{"a"}, {"b"}}, milliseconds(50), milliseconds(70));

  auto up_at = [&](SimTime t) {
    world.engine().run_until(t);
    return world.host("b")->up();
  };
  EXPECT_TRUE(up_at(milliseconds(5)));
  EXPECT_FALSE(up_at(milliseconds(20)));
  EXPECT_TRUE(up_at(milliseconds(40)));
  world.engine().run_until(milliseconds(60));
  ASSERT_NE(plan.injector("n"), nullptr);
  EXPECT_TRUE(plan.injector("n")->partition_active());
  world.engine().run_until(milliseconds(80));
  EXPECT_FALSE(plan.injector("n")->partition_active());

  // Each action emitted a "fault" instant at its virtual time, in order.
  std::vector<std::pair<std::int64_t, std::string>> faults;
  for (const auto& e : world.tracer().events())
    if (e.cat == "fault") faults.emplace_back(e.ts, e.name);
  ASSERT_EQ(faults.size(), 4u);
  EXPECT_EQ(faults[0], (std::pair<std::int64_t, std::string>{milliseconds(10), "host.crash"}));
  EXPECT_EQ(faults[1], (std::pair<std::int64_t, std::string>{milliseconds(30), "host.restart"}));
  EXPECT_EQ(faults[2], (std::pair<std::int64_t, std::string>{milliseconds(50), "partition.start"}));
  EXPECT_EQ(faults[3], (std::pair<std::int64_t, std::string>{milliseconds(70), "partition.heal"}));
}

// ---- Sharded engine: conservative-window primitives and the World driver ----

TEST(Engine, RunBeforeIsExclusiveAndKeepsClockAtLastEvent) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(50, [&] { order.push_back(0); });
  engine.schedule_at(100, [&] { order.push_back(1); });
  // Window [0, 100): the t=100 event is the horizon and must not run.
  EXPECT_EQ(engine.run_before(100), 1u);
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_EQ(engine.now(), 50);  // not advanced to the horizon
  EXPECT_EQ(engine.next_event_time(), 100);
  engine.run_before(101);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(engine.next_event_time(), Engine::kNever);
  engine.advance_to(500);
  EXPECT_EQ(engine.now(), 500);
}

TEST(Engine, EqualTimeFifoHoldsAcrossWindowBarrier) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(100, [&] { order.push_back(1); });
  engine.schedule_at(100, [&] { order.push_back(2); });
  engine.run_before(100);  // barrier: nothing at t < 100 to run
  // A cross-shard arrival at exactly t=100, inserted at the barrier, was
  // scheduled after the two local events and must fire after them.
  engine.schedule_at(100, [&] { order.push_back(3); });
  engine.run_before(101);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, RunBeforeCanStopAtStrongExhaustion) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_weak(10, [&] { order.push_back(0); });
  engine.schedule(20, [&] { order.push_back(1); });
  engine.schedule_weak(30, [&] { order.push_back(2); });
  // Engine::run semantics per window: weak events run while a strong event
  // is still pending, and the run stops once none are.
  EXPECT_EQ(engine.run_before(100, /*weak_too=*/false), 2u);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(engine.strong_pending(), 0u);
  EXPECT_EQ(engine.run_before(100, /*weak_too=*/true), 1u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(World, ShardedCrossShardDeliveryArrives) {
  World world(7, /*shards=*/2);
  auto& net = world.create_network("wan", wan_t3());
  auto& a = world.create_host("a", 0);
  auto& b = world.create_host("b", 1);
  world.attach(a, net);
  world.attach(b, net);
  int received = 0;
  b.bind(5, [&](const Packet&) { ++received; }).value();
  a.engine().schedule_at(duration::milliseconds(1),
                         [&] { a.send({"b", 5}, Bytes(64, 0x5A)).value(); });
  world.run_until(duration::seconds(1));
  EXPECT_EQ(received, 1);
  EXPECT_EQ(world.lookahead(), wan_t3().latency);
  EXPECT_GE(world.run_stats().cross_shard_packets, 1u);
  EXPECT_GE(world.run_stats().windows, 1u);
  EXPECT_EQ(world.now(), duration::seconds(1));
}

TEST(World, MailboxDrainOrdersEqualArrivalsBySourceShard) {
  // Two senders on different shards whose packets reach the same
  // destination at the identical virtual time: the barrier drain must
  // order them by source shard, not by which worker thread got there
  // first.  Swapping the placement must swap the delivery order.
  for (int flip = 0; flip < 2; ++flip) {
    World world(9, /*shards=*/3);
    auto& net = world.create_network("wan", wan_t3());
    auto& d = world.create_host("d", 0);
    auto& a = world.create_host("a", flip != 0 ? 2 : 1);
    auto& b = world.create_host("b", flip != 0 ? 1 : 2);
    world.attach(d, net);
    world.attach(a, net);
    world.attach(b, net);
    std::vector<std::string> order;
    d.bind(5, [&](const Packet& p) { order.push_back(p.src->name()); }).value();
    a.engine().schedule_at(duration::milliseconds(1),
                           [&] { a.send({"d", 5}, Bytes(100, 1)).value(); });
    b.engine().schedule_at(duration::milliseconds(1),
                           [&] { b.send({"d", 5}, Bytes(100, 2)).value(); });
    world.run_until(duration::seconds(1));
    ASSERT_EQ(order.size(), 2u) << "flip " << flip;
    EXPECT_EQ(order[0], flip != 0 ? "b" : "a") << "lower source shard delivers first";
  }
}

TEST(World, SingleShardRunUntilMatchesEngineRunUntil) {
  auto run = [](bool via_world) {
    World world(1234);
    auto& net = world.create_network("n", internet_lossy());
    auto& a = world.create_host("a");
    auto& b = world.create_host("b");
    world.attach(a, net);
    world.attach(b, net);
    std::vector<SimTime> arrivals;
    b.bind(1, [&](const Packet&) { arrivals.push_back(world.now()); }).value();
    for (int i = 0; i < 100; ++i) a.send({"b", 1}, Bytes(100, 0)).value();
    if (via_world)
      world.run_until(duration::seconds(2));
    else
      world.engine().run_until(duration::seconds(2));
    return arrivals;
  };
  EXPECT_EQ(run(true), run(false));
}

// ---- Flight slab: every datagram's flight is released exactly once ----

/// What a slab-hygiene run saw: every NetStats counter per network, the
/// replay digest, the flights left aboard and the sender buffer's owners.
struct SlabRun {
  std::vector<std::uint64_t> counters;
  std::uint64_t digest = 0;
  std::size_t in_flight = 0;
  long buffer_owners = 0;
  std::uint64_t cross_shard = 0;
};

/// a -n- r1 -mid- r2, and behind r2: -m- e, -lossy- f, -drop- g and
/// -x- r3 -y- h.  b shares n with a.  The injector on mid duplicates every
/// datagram r1 forwards, the one on m corrupts every datagram r2 forwards
/// (into a clone: the only flights that drop the sender's buffer early),
/// lossy loses every datagram, the injector on drop drops every one, and
/// r3 goes down once the sends have left.  With two shards a and r1 sit on
/// shard 0 and everything past mid on shard 1, so every flight, duplicates
/// included, crosses the mailbox.
SlabRun run_slab_gauntlet(std::size_t shards, int k) {
  World world(31, shards);
  const std::size_t far = shards - 1;
  auto net = [&](const char* name) -> Network& {
    return world.create_network(name, ethernet100());
  };
  Network& n = net("n");
  Network& mid = net("mid");
  Network& m = net("m");
  Network& lossy = net("lossy");
  Network& drop = net("drop");
  Network& x = net("x");
  Network& y = net("y");
  Host& a = world.create_host("a", 0);
  Host& b = world.create_host("b", 0);
  Router& r1 = world.create_router("r1", 0);
  Router& r2 = world.create_router("r2", far);
  Router& r3 = world.create_router("r3", far);
  Host& e = world.create_host("e", far);
  Host& f = world.create_host("f", far);
  Host& g = world.create_host("g", far);
  Host& h = world.create_host("h", far);
  for (auto [node, nw] : std::initializer_list<std::pair<Node*, Network*>>{
           {&a, &n}, {&b, &n}, {&r1, &n}, {&r1, &mid}, {&r2, &mid}, {&r2, &m}, {&e, &m},
           {&r2, &lossy}, {&f, &lossy}, {&r2, &drop}, {&g, &drop}, {&r2, &x}, {&r3, &x},
           {&r3, &y}, {&h, &y}})
    world.attach(*node, *nw);
  for (Host* host : {&b, &e, &f, &g, &h}) host->bind(1, [](const Packet&) {}).value();
  lossy.set_extra_loss(1.0);
  FaultPlan plan(world, 3);
  FaultProfile twin;
  twin.duplicate = 1;
  twin.reorder_jitter = 0;
  plan.inject("mid", twin);
  FaultProfile mangle;
  mangle.corrupt = 1;
  mangle.reorder_jitter = 0;
  plan.inject("m", mangle);
  FaultProfile kill_all;
  kill_all.burst.loss_good = 1;
  plan.inject("drop", kill_all);

  auto buf = std::make_shared<const Bytes>(Bytes(200, 7));
  a.engine().schedule_at(0, [&] {
    for (int i = 0; i < k; ++i) {
      a.send(&b, 1, Payload(buf)).value();
      a.broadcast("n", 1, Payload(buf)).value();
      a.send(&e, 1, Payload(buf)).value();
      a.send(&e, 2, Payload(buf)).value();  // nothing bound on e:2
      a.send(&f, 1, Payload(buf)).value();
      a.send(&g, 1, Payload(buf)).value();
      a.send(&h, 1, Payload(buf)).value();
    }
  });
  world.control_engine().schedule_at(1, [&r3] { r3.set_up(false); });
  world.run_all();

  SlabRun out;
  for (Network* nw : {&n, &mid, &m, &lossy, &drop, &x, &y}) {
    const NetStats& st = nw->stats();
    for (const auto* c : {&st.packets_sent, &st.packets_delivered, &st.drops_loss,
                          &st.drops_down, &st.drops_unbound, &st.drops_fault,
                          &st.fault_duplicates, &st.fault_corruptions})
      out.counters.push_back(c->load());
  }
  out.digest = world.replay_digest();
  out.in_flight = world.in_flight();
  out.buffer_owners = buf.use_count();
  out.cross_shard = world.run_stats().cross_shard_packets;
  return out;
}

TEST(FlightSlab, EveryFateReleasesItsFlightOnceAtOneAndTwoShards) {
  constexpr std::uint64_t k = 16;
  // Per network: sent, delivered, loss, down, unbound, fault drop,
  // duplicates, corruptions.  Past mid every datagram flies twice.
  const std::vector<std::uint64_t> expected = {
      7 * k, 2 * k, 0,     0,     0,     0,     0,     0,      // n: b direct + broadcast
      5 * k, 0,     0,     0,     0,     0,     5 * k, 0,      // mid: twinned
      4 * k, 2 * k, 0,     0,     2 * k, 0,     0,     4 * k,  // m: e:1, e:2, mangled
      2 * k, 0,     2 * k, 0,     0,     0,     0,     0,      // lossy: media loss
      2 * k, 0,     0,     0,     0,     2 * k, 0,     0,      // drop: fault drop
      2 * k, 0,     0,     0,     0,     0,     0,     0,      // x: on to r3
      0,     0,     0,     2 * k, 0,     0,     0,     0,      // y: r3 is down
  };
  const SlabRun one = run_slab_gauntlet(1, static_cast<int>(k));
  EXPECT_EQ(one.counters, expected);
  EXPECT_EQ(one.in_flight, 0u);
  EXPECT_EQ(one.buffer_owners, 1) << "a flight still holds (or over-released) the payload";

  const SlabRun two = run_slab_gauntlet(2, static_cast<int>(k));
  EXPECT_EQ(two.counters, expected);
  EXPECT_EQ(two.in_flight, 0u);
  EXPECT_EQ(two.buffer_owners, 1) << "a flight still holds (or over-released) the payload";
  EXPECT_EQ(two.cross_shard, 10 * k) << "every twin crosses mid into shard 1";
  EXPECT_EQ(two.digest, one.digest);
}

}  // namespace
}  // namespace snipe::simnet
