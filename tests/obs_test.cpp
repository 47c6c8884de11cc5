// Tests for the observability subsystem (src/obs/): metrics registry
// semantics (counters, gauges, histograms, stats visitors with retained
// totals, child registries rolled up by their root), the virtual-time tracer (ring buffer, spans, clock sources) and
// the Chrome trace_event JSON export — including parsing the export back
// with a small JSON parser to prove it is valid JSON, and a simulated
// multi-component run that produces a trace with transport, rcds and
// daemon categories.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>

#include "daemon/daemon.hpp"
#include "obs/fleet.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rcds/server.hpp"
#include "simnet/world.hpp"
#include "transport/srudp.hpp"

namespace snipe::obs {
namespace {

// ---------- minimal JSON parser (validation + cat extraction) ----------

/// Recursive-descent JSON syntax checker.  While walking, it collects every
/// string value keyed "cat" so tests can verify the exported categories.
struct JsonParser {
  const std::string& s;
  std::size_t i = 0;
  std::set<std::string> cats;

  explicit JsonParser(const std::string& text) : s(text) {}

  void ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r'))
      ++i;
  }
  bool lit(const char* word) {
    std::size_t n = std::string(word).size();
    if (s.compare(i, n, word) != 0) return false;
    i += n;
    return true;
  }
  bool string_lit(std::string* out = nullptr) {
    if (i >= s.size() || s[i] != '"') return false;
    ++i;
    std::string value;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') {
        ++i;
        if (i >= s.size()) return false;
        switch (s[i]) {
          case '"': value += '"'; break;
          case '\\': value += '\\'; break;
          case '/': value += '/'; break;
          case 'b': case 'f': case 'n': case 'r': case 't': value += '?'; break;
          case 'u': {
            for (int k = 0; k < 4; ++k) {
              ++i;
              if (i >= s.size() || !std::isxdigit(static_cast<unsigned char>(s[i])))
                return false;
            }
            value += '?';
            break;
          }
          default: return false;
        }
        ++i;
      } else {
        if (static_cast<unsigned char>(s[i]) < 0x20) return false;  // raw control char
        value += s[i++];
      }
    }
    if (i >= s.size()) return false;
    ++i;  // closing quote
    if (out != nullptr) *out = std::move(value);
    return true;
  }
  bool number() {
    std::size_t start = i;
    if (i < s.size() && s[i] == '-') ++i;
    if (i >= s.size() || !std::isdigit(static_cast<unsigned char>(s[i]))) return false;
    while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) ++i;
    if (i < s.size() && s[i] == '.') {
      ++i;
      if (i >= s.size() || !std::isdigit(static_cast<unsigned char>(s[i]))) return false;
      while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) ++i;
    }
    if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
      ++i;
      if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
      if (i >= s.size() || !std::isdigit(static_cast<unsigned char>(s[i]))) return false;
      while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) ++i;
    }
    return i > start;
  }
  bool object() {
    if (s[i] != '{') return false;
    ++i;
    ws();
    if (i < s.size() && s[i] == '}') {
      ++i;
      return true;
    }
    while (true) {
      ws();
      std::string key;
      if (!string_lit(&key)) return false;
      ws();
      if (i >= s.size() || s[i] != ':') return false;
      ++i;
      ws();
      if (key == "cat") {
        std::string cat;
        if (!string_lit(&cat)) return false;
        cats.insert(cat);
      } else if (!value()) {
        return false;
      }
      ws();
      if (i < s.size() && s[i] == ',') {
        ++i;
        continue;
      }
      break;
    }
    if (i >= s.size() || s[i] != '}') return false;
    ++i;
    return true;
  }
  bool array() {
    if (s[i] != '[') return false;
    ++i;
    ws();
    if (i < s.size() && s[i] == ']') {
      ++i;
      return true;
    }
    while (true) {
      ws();
      if (!value()) return false;
      ws();
      if (i < s.size() && s[i] == ',') {
        ++i;
        continue;
      }
      break;
    }
    if (i >= s.size() || s[i] != ']') return false;
    ++i;
    return true;
  }
  bool value() {
    ws();
    if (i >= s.size()) return false;
    switch (s[i]) {
      case '{': return object();
      case '[': return array();
      case '"': return string_lit();
      case 't': return lit("true");
      case 'f': return lit("false");
      case 'n': return lit("null");
      default: return number();
    }
  }
  /// Parses the whole document (no trailing garbage allowed).
  bool parse() {
    if (!value()) return false;
    ws();
    return i == s.size();
  }
};

TEST(JsonParserSelfTest, AcceptsAndRejects) {
  std::string good = R"({"a": [1, -2.5, 3e4, "x\n", true, null], "cat": "t"})";
  JsonParser p(good);
  EXPECT_TRUE(p.parse());
  EXPECT_EQ(p.cats, std::set<std::string>{"t"});
  for (const char* bad : {"{", "[1,]", "{\"a\":}", "12garbage", "\"unterminated"}) {
    std::string owned(bad);  // JsonParser holds a reference, not a copy
    JsonParser q{owned};
    EXPECT_FALSE(q.parse()) << bad;
  }
}

// ---------- metrics registry ----------

TEST(Metrics, CellBehavesLikePlainCounter) {
  Cell c;
  EXPECT_EQ(c, 0u);
  ++c;
  c += 4;
  EXPECT_EQ(c, 5u);
  Cell copy = c;  // copyable value type (stats() returns struct copies)
  EXPECT_EQ(copy, 5u);
  EXPECT_EQ(std::uint64_t{c} + 1, 6u);
}

TEST(Metrics, CounterAndGaugeBasics) {
  MetricsRegistry reg;
  auto& c = reg.counter("x.count");
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(&reg.counter("x.count"), &c);  // same name, same instrument

  auto& g = reg.gauge("x.level");
  g.set(2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(Metrics, DisabledRegistryIsANoOp) {
  MetricsRegistry reg;
  auto& c = reg.counter("x");
  auto& h = reg.histogram("h");
  reg.set_enabled(false);
  c.inc(100);
  h.observe(1.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  reg.set_enabled(true);
  c.inc();
  EXPECT_EQ(c.value(), 1u);
}

TEST(Metrics, HistogramCountsSumsAndQuantiles) {
  MetricsRegistry reg;
  auto& h = reg.histogram("lat");
  double sum = 0;
  for (int v = 1; v <= 100; ++v) {
    h.observe(v);
    sum += v;
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), sum);
  // Uniform 1..100 over the fixed layout: 1, 2, 3-5, 6-10 and 11-20 fill
  // the buckets up to 20, 21-50 (30 samples) the (20, 50] bucket and 51-100
  // (50 samples) the (50, 100] bucket.  Rank 50 closes the (20, 50] bucket,
  // so p50 is its upper edge; rank 95 lies 45/50 into (50, 100].
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 50.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 95.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 99.0);
}

TEST(Metrics, HistogramOverflowBucketCatchesTail) {
  MetricsRegistry reg;
  auto& h = reg.histogram("big");
  h.observe(100000.0);  // beyond every bound -> +inf bucket
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sketch().buckets.back(), 1u);
  // The +inf bucket has no upper edge: it reports the last finite bound.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), Histogram::kBounds.back());
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 60000.0);
}

TEST(Metrics, SourcesAggregateAcrossInstancesAndRetainOnDeath) {
  MetricsRegistry reg;
  Cell a, b;
  a += 7;
  b += 5;
  auto source_a = std::make_unique<SourceHandle>(
      reg.add_stats([&a](StatsSink& s) { s.add("comp.events", a); }));
  SourceHandle source_b = reg.add_stats([&b](StatsSink& s) { s.add("comp.events", b); });

  auto find = [](const Snapshot& snap, const std::string& name) -> const MetricValue* {
    for (const auto& m : snap)
      if (m.name == name) return &m;
    return nullptr;
  };
  Snapshot snap = reg.snapshot();  // keep alive while `find` results are read
  auto* live = find(snap, "comp.events");
  ASSERT_NE(live, nullptr);
  EXPECT_DOUBLE_EQ(live->value, 12.0);  // both instances summed

  // Killing one instance folds its final value into the retained total.
  source_a.reset();
  b += 1;
  snap = reg.snapshot();
  auto* after = find(snap, "comp.events");
  ASSERT_NE(after, nullptr);
  EXPECT_DOUBLE_EQ(after->value, 13.0);  // 7 retained + 6 live

  // reset() clears the retained totals but not live sources.
  reg.reset();
  snap = reg.snapshot();
  auto* cleared = find(snap, "comp.events");
  ASSERT_NE(cleared, nullptr);
  EXPECT_DOUBLE_EQ(cleared->value, 6.0);
}

TEST(Metrics, RootRollsUpChildrenAndKeepsDeadChildTotals) {
  MetricsRegistry root;
  auto value_of = [&root](const std::string& name) -> std::optional<MetricValue> {
    for (const auto& m : root.snapshot())
      if (m.name == name) return m;
    return std::nullopt;
  };
  Cell sent;
  sent += 4;
  {
    MetricsRegistry a(root), b(root);
    a.counter("x.events").inc(2);
    b.counter("x.events").inc(3);
    a.gauge("x.load").set(1.5);
    SourceHandle visitor = a.add_stats([&sent](StatsSink& s) { s.add("x.sent", sent); });
    a.histogram("x.ms").observe(1.0);
    b.histogram("x.ms").observe(100.0);

    // Children keep their own values; the root reads the sum, its
    // counters' value() included.
    EXPECT_EQ(a.counter("x.events").value(), 2u);
    EXPECT_EQ(root.counter("x.events").value(), 5u);
    ASSERT_TRUE(value_of("x.sent").has_value());
    EXPECT_DOUBLE_EQ(value_of("x.sent")->value, 4.0);
    ASSERT_TRUE(value_of("x.ms").has_value());
    EXPECT_EQ(value_of("x.ms")->count, 2u);
    ASSERT_TRUE(value_of("x.load").has_value());
    EXPECT_DOUBLE_EQ(value_of("x.load")->value, 1.5);

    // One flag: disabling the root silences its children.
    root.set_enabled(false);
    a.counter("x.events").inc(100);
    EXPECT_EQ(a.counter("x.events").value(), 2u);
    root.set_enabled(true);
  }
  // Dead children leave their counters and histograms behind, not gauges.
  EXPECT_EQ(root.counter("x.events").value(), 5u);
  ASSERT_TRUE(value_of("x.sent").has_value());
  EXPECT_DOUBLE_EQ(value_of("x.sent")->value, 4.0);
  ASSERT_TRUE(value_of("x.ms").has_value());
  EXPECT_EQ(value_of("x.ms")->count, 2u);
  EXPECT_FALSE(value_of("x.load").has_value());
}

TEST(Metrics, ResetZeroesInstruments) {
  MetricsRegistry reg;
  reg.counter("c").inc(9);
  reg.gauge("g").set(3);
  reg.histogram("h").observe(1.0);
  reg.reset();
  EXPECT_EQ(reg.counter("c").value(), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge("g").value(), 0.0);
  EXPECT_EQ(reg.histogram("h").count(), 0u);
}

TEST(Metrics, FormatTextListsEveryInstrument) {
  MetricsRegistry reg;
  reg.counter("srudp.retransmits").inc(3);
  reg.gauge("rm.live_hosts").set(4);
  reg.histogram("srudp.rtt_ms").observe(2.5);
  std::string text = reg.format_text();
  EXPECT_NE(text.find("srudp.retransmits"), std::string::npos);
  EXPECT_NE(text.find("rm.live_hosts"), std::string::npos);
  EXPECT_NE(text.find("srudp.rtt_ms"), std::string::npos);
  EXPECT_NE(text.find("p95"), std::string::npos);
}

// ---------- tracer ----------

TEST(Trace, RingBufferWrapsAndCountsDrops) {
  Tracer t(8);
  for (int n = 0; n < 20; ++n)
    t.instant(n, "test", "e" + std::to_string(n));
  auto events = t.events();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(t.dropped(), 12u);
  // Oldest surviving event is #12; order is preserved.
  for (int n = 0; n < 8; ++n)
    EXPECT_EQ(events[n].name, "e" + std::to_string(12 + n));
  t.clear();
  EXPECT_TRUE(t.events().empty());
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(Trace, SpansRecordStartAndDuration) {
  Tracer t;
  SpanId span = t.begin_span(100, "transport", "srudp.failover");
  ASSERT_NE(span, 0u);
  t.end_span(350, span, {{"route", "eth"}});
  auto events = t.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, TraceEvent::Phase::complete);
  EXPECT_EQ(events[0].ts, 100);
  EXPECT_EQ(events[0].dur, 250);
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_EQ(events[0].args[0].first, "route");

  // Ending an unknown/null span is harmless.
  t.end_span(400, 0);
  t.end_span(400, 9999);
  EXPECT_EQ(t.events().size(), 1u);
}

TEST(Trace, DisabledTracerRecordsNothing) {
  Tracer t;
  t.set_enabled(false);
  t.instant(0, "c", "n");
  EXPECT_EQ(t.begin_span(0, "c", "s"), 0u);
  EXPECT_TRUE(t.events().empty());
  t.set_enabled(true);
  t.instant(0, "c", "n");
  EXPECT_EQ(t.events().size(), 1u);
}

TEST(Trace, ChromeJsonIsValidAndCarriesEvents) {
  Tracer t;
  std::int64_t now = 1'000'000;  // 1 ms
  t.instant(now, "transport", "srudp.route_switch",
            {{"peer", "b:7002"}, {"q", "a\"b\\c\n"}});
  SpanId s = t.begin_span(now, "rm", "rm.spawn");
  now += 2'500'000;
  t.end_span(now, s);
  std::string json = t.chrome_json();

  JsonParser parser(json);
  ASSERT_TRUE(parser.parse()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("srudp.route_switch"), std::string::npos);
  EXPECT_TRUE(parser.cats.count("transport"));
  EXPECT_TRUE(parser.cats.count("rm"));
  // Instants carry the Chrome scope field; spans a duration in µs.
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2500"), std::string::npos);
}

// ---------- end-to-end: a simulated run exports a multi-category trace ----------

TEST(Trace, SimulatedRunExportsMultiCategoryChromeTrace) {
  MetricsRegistry::global().set_enabled(true);
  MetricsRegistry::global().reset();

  simnet::World world(991);
  Tracer& tracer = world.tracer();
  tracer.set_enabled(true);
  world.create_network("lan", simnet::ethernet100());
  world.create_network("atm", simnet::atm155());
  for (const char* n : {"rc", "node", "a", "b"})
    world.attach(world.create_host(n), *world.network("lan"));
  world.attach(*world.host("a"), *world.network("atm"));
  world.attach(*world.host("b"), *world.network("atm"));

  // rcds: a registry (its metadata applies emit "rcds" instants).
  rcds::RcServer rc(*world.host("rc"));
  // daemon: a spawned task's lifecycle emits "daemon" task.* instants.
  daemon::SnipeDaemon d(*world.host("node"), {rc.address()});
  d.register_program("noop", [](const daemon::SpawnRequest&, daemon::TaskHandle&)
                                 -> Result<std::unique_ptr<daemon::ManagedTask>> {
    class Noop final : public daemon::ManagedTask {
     public:
      void start() override {}
      void kill() override {}
    };
    return std::unique_ptr<daemon::ManagedTask>(new Noop());
  });
  world.engine().run_for(duration::seconds(1));
  transport::RpcEndpoint spawner(*world.host("rc"), 9100);
  daemon::SpawnRequest req;
  req.program = "noop";
  req.name = "traced-task";
  bool spawned = false;
  spawner.call(d.address(), daemon::tags::kSpawn, encode(req),
               [&](Result<Bytes> r) { spawned = r.ok(); });
  world.engine().run();
  ASSERT_TRUE(spawned);

  // transport: SRUDP stream over ATM, then a silent NIC failure forces a
  // route switch to the LAN ("transport" instants + a failover span).
  transport::SrudpEndpoint tx(*world.host("a"), 7001), rx(*world.host("b"), 7002);
  int delivered = 0;
  rx.set_handler([&](const simnet::Address&, Payload) { ++delivered; });
  for (int n = 0; n < 50; ++n) tx.send(rx.address(), Bytes(32'768, 0x5a));
  world.engine().run_for(duration::milliseconds(10));
  world.host("b")->nic_on("atm")->set_up(false);
  world.engine().run();
  ASSERT_EQ(delivered, 50);
  EXPECT_GE(tx.stats().route_switches, 1u);

  // The trace covers at least three component categories.
  std::set<std::string> cats;
  for (const auto& e : tracer.events()) cats.insert(e.cat);
  EXPECT_TRUE(cats.count("transport"));
  EXPECT_TRUE(cats.count("rcds"));
  EXPECT_TRUE(cats.count("daemon"));

  // Export, read back, parse: valid JSON with the same categories.
  std::string path = ::testing::TempDir() + "/snipe_obs_trace.json";
  ASSERT_TRUE(tracer.write_chrome_json(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string json = buffer.str();
  JsonParser parser(json);
  ASSERT_TRUE(parser.parse());
  EXPECT_GE(parser.cats.size(), 3u);
  EXPECT_TRUE(parser.cats.count("transport"));
  EXPECT_TRUE(parser.cats.count("rcds"));
  EXPECT_TRUE(parser.cats.count("daemon"));

  // The registry saw the same run: fleet totals from pull sources.
  auto snapshot = MetricsRegistry::global().snapshot();
  bool saw_sent = false, saw_rtt = false;
  for (const auto& m : snapshot) {
    if (m.name == "srudp.messages_sent" && m.value >= 50) saw_sent = true;
    if (m.name == "srudp.rtt_ms" && m.count > 0) saw_rtt = true;
  }
  EXPECT_TRUE(saw_sent);
  EXPECT_TRUE(saw_rtt);
}

// ---------- flow events ----------

TEST(Trace, FlowEventsCarryPhaseAndIdIntoChromeJson) {
  Tracer t;
  // Flow recording is off by default: the hot-path guard callers check.
  EXPECT_FALSE(t.flow_enabled());
  t.flow(1'000, TraceEvent::Phase::flow_start, "flow", "srudp.send", 0xabc);
  EXPECT_TRUE(t.events().empty());

  t.set_flow_enabled(true);
  t.flow(1'000, TraceEvent::Phase::flow_start, "flow", "srudp.send", 0xabc, {{"msg", "1"}});
  t.flow(1'000, TraceEvent::Phase::flow_step, "flow", "srudp.tx", 0xabc);
  t.flow(1'000, TraceEvent::Phase::flow_end, "flow", "srudp.deliver", 0xabc);
  t.set_flow_enabled(false);

  auto events = t.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].phase, TraceEvent::Phase::flow_start);
  EXPECT_EQ(events[0].id, 0xabcu);
  EXPECT_EQ(events[2].phase, TraceEvent::Phase::flow_end);

  std::string json = t.chrome_json();
  JsonParser parser(json);
  ASSERT_TRUE(parser.parse()) << json;
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"0xabc\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);  // flow_end binding
}

TEST(Trace, RingFollowsItsRootsSwitchesButKeepsItsOwnEvents) {
  Tracer root;
  Tracer ring(root);
  ring.instant(1, "c", "mine");
  EXPECT_TRUE(root.events().empty());
  ASSERT_EQ(ring.events().size(), 1u);

  // Either side flips the root's switches, and the ring obeys them.
  root.set_enabled(false);
  EXPECT_FALSE(ring.enabled());
  ring.instant(2, "c", "muted");
  EXPECT_EQ(ring.events().size(), 1u);
  ring.set_enabled(true);
  EXPECT_TRUE(root.enabled());
  root.set_flow_enabled(true);
  ring.flow(3, TraceEvent::Phase::flow_step, "flow", "x", 7);
  ring.set_flow_enabled(false);
  EXPECT_FALSE(root.flow_enabled());
  EXPECT_EQ(ring.events().size(), 2u);
  EXPECT_TRUE(root.events().empty());
}

TEST(Trace, FlowRespectsMasterEnableToo) {
  Tracer t;
  t.set_flow_enabled(true);
  t.set_enabled(false);
  t.flow(0, TraceEvent::Phase::flow_step, "flow", "x", 7);
  EXPECT_TRUE(t.events().empty());
}

// ---------- flight recorder ----------

TEST(Flight, RingWrapsOldestFirstAndCountsDrops) {
  FlightRecorder f("a", [] { return std::int64_t{0}; });
  const std::size_t n = FlightRecorder::kCapacity + 6;
  for (std::size_t i = 0; i < n; ++i) f.record("test", std::to_string(i));
  auto events = f.events();
  ASSERT_EQ(events.size(), FlightRecorder::kCapacity);
  EXPECT_EQ(f.dropped(), 6u);
  EXPECT_EQ(events.front().what, "6");
  EXPECT_EQ(events.back().what, std::to_string(n - 1));
  EXPECT_EQ(events.front().host, "a");

  // A cursor sees only what is new, at most the newest `max`; entries that
  // rotated out unseen are gone.
  std::uint64_t cursor = 0;
  auto newest = f.events_since(cursor, 2);
  ASSERT_EQ(newest.size(), 2u);
  EXPECT_EQ(newest[0].what, std::to_string(n - 2));
  EXPECT_EQ(cursor, n);
  EXPECT_TRUE(f.events_since(cursor, 2).empty());
  f.record("test", "late");
  auto late = f.events_since(cursor, 64);
  ASSERT_EQ(late.size(), 1u);
  EXPECT_EQ(late[0].what, "late");
}

// A host's ring holds only its own entries; a world-level event lands
// once, in the World's ring, and the World timeline merges them by time.
TEST(Flight, HostFilterKeepsWorldLevelEvents) {
  simnet::World world(1);
  simnet::Host& a = world.create_host("a");
  simnet::Host& b = world.create_host("b");
  world.engine().schedule(10, [&a] { a.flight().record("srudp", "rto", "peer=b"); });
  world.engine().schedule(20, [&world] {
    world.flight().record("fault", "partition.start", "groups=[a][b]");
  });
  world.engine().schedule(30, [&b] { b.flight().record("srudp", "rto", "peer=a"); });
  world.engine().run();

  auto a_events = a.flight().events();
  ASSERT_EQ(a_events.size(), 1u);
  EXPECT_EQ(a_events[0].host, "a");
  EXPECT_EQ(a_events[0].ts, 10);
  EXPECT_EQ(b.flight().dump().find("peer=b"), std::string::npos);

  auto timeline = world.flight_timeline();
  ASSERT_EQ(timeline.size(), 3u);
  EXPECT_EQ(timeline[0].host, "a");
  EXPECT_EQ(timeline[1].host, "");
  EXPECT_EQ(timeline[1].cat, "fault");
  EXPECT_EQ(timeline[2].host, "b");
  EXPECT_NE(format_flight_lines(timeline).find("[*] fault/partition.start groups=[a][b]"),
            std::string::npos);
}

// There is no off switch: a builder bound to no recorder ships no flight
// entries (nothing falls back to a process-wide ring).
TEST(Flight, DumpSaysSoWhenEmptyAndWhenDisabled) {
  simnet::World world(1);
  simnet::Host& a = world.create_host("a");
  EXPECT_EQ(a.flight().dump(), "(no flight events for host a)");
  EXPECT_EQ(world.flight().dump(), "(flight recorder empty)");
  a.flight().record("c", "w", "x=1");
  EXPECT_NE(a.flight().dump().find("flight recorder (1 events):\n"), std::string::npos);
  EXPECT_NE(a.flight().dump().find("[a] c/w x=1"), std::string::npos);

  MetricsRegistry registry;
  BeaconBuilder::Options opt;
  opt.host = "a";
  opt.registry = &registry;
  EXPECT_TRUE(BeaconBuilder(opt).build(1).flight.empty());
  opt.flight = &a.flight();
  EXPECT_EQ(BeaconBuilder(opt).build(1).flight.size(), 1u);
}

TEST(Flight, TimestampsComeFromOwnerEngineClock) {
  // Host rings read their host's engine and the World ring its control
  // engine.
  simnet::World world(1, 2);
  simnet::Host& a = world.create_host("a", 1);
  world.shard_engine(1).schedule(duration::seconds(2), [&a] { a.flight().record("c", "w"); });
  world.control_engine().schedule(duration::seconds(3),
                                  [&world] { world.flight().record("fault", "x"); });
  world.run_until(duration::seconds(4));
  ASSERT_EQ(a.flight().events().size(), 1u);
  EXPECT_EQ(a.flight().events()[0].ts, duration::seconds(2));
  ASSERT_EQ(world.flight().events().size(), 1u);
  EXPECT_EQ(world.flight().events()[0].ts, duration::seconds(3));
}

TEST(Flight, QuietHostEntrySurvivesBusyNeighbour) {
  simnet::World world(1);
  simnet::Host& quiet = world.create_host("quiet");
  simnet::Host& busy = world.create_host("busy");
  quiet.flight().record("rm", "host_dead", "host=x");
  for (int i = 0; i < 10'000; ++i) busy.flight().record("srudp", "rto");
  auto kept = quiet.flight().events();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].what, "host_dead");
  EXPECT_EQ(busy.flight().dropped(), 10'000 - FlightRecorder::kCapacity);
}

}  // namespace
}  // namespace snipe::obs
