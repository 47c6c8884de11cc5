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
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rcds/server.hpp"
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
  std::vector<double> bounds;
  for (int b = 10; b <= 100; b += 10) bounds.push_back(b);
  auto& h = reg.histogram("lat", bounds);
  double sum = 0;
  for (int v = 1; v <= 100; ++v) {
    h.observe(v);
    sum += v;
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), sum);
  // Uniform 1..100 against decade buckets: quantiles land within one
  // bucket's width of the exact value.
  EXPECT_NEAR(h.quantile(0.50), 50.0, 10.0);
  EXPECT_NEAR(h.quantile(0.95), 95.0, 10.0);
  EXPECT_LE(h.quantile(0.50), h.quantile(0.95));
  EXPECT_LE(h.quantile(0.95), h.quantile(0.99));
}

TEST(Metrics, HistogramOverflowBucketCatchesTail) {
  MetricsRegistry reg;
  auto& h = reg.histogram("big", {1.0, 2.0});
  h.observe(1000.0);  // beyond every bound -> +inf bucket
  EXPECT_EQ(h.count(), 1u);
  // The quantile can only report the last finite bound as a floor.
  EXPECT_GE(h.quantile(0.5), 2.0);
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
    t.instant("test", "e" + std::to_string(n));
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
  std::int64_t now = 0;
  t.set_clock([&now] { return now; });
  now = 100;
  SpanId span = t.begin_span("transport", "srudp.failover");
  ASSERT_NE(span, 0u);
  now = 350;
  t.end_span(span, {{"route", "eth"}});
  auto events = t.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, TraceEvent::Phase::complete);
  EXPECT_EQ(events[0].ts, 100);
  EXPECT_EQ(events[0].dur, 250);
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_EQ(events[0].args[0].first, "route");

  // Ending an unknown/null span is harmless.
  t.end_span(0);
  t.end_span(9999);
  EXPECT_EQ(t.events().size(), 1u);
}

TEST(Trace, DisabledTracerRecordsNothing) {
  Tracer t;
  t.set_enabled(false);
  t.instant("c", "n");
  EXPECT_EQ(t.begin_span("c", "s"), 0u);
  EXPECT_TRUE(t.events().empty());
  t.set_enabled(true);
  t.instant("c", "n");
  EXPECT_EQ(t.events().size(), 1u);
}

TEST(Trace, VirtualClockVsWallClockStamping) {
  Tracer t;
  t.set_clock([] { return std::int64_t{42}; });
  t.instant("c", "virtual");
  EXPECT_EQ(t.events().back().ts, 42);

  t.set_clock(nullptr);  // falls back to wall time since process start
  t.instant("c", "wall1");
  std::int64_t w1 = t.events().back().ts;
  t.instant("c", "wall2");
  std::int64_t w2 = t.events().back().ts;
  EXPECT_GE(w1, 0);
  EXPECT_GE(w2, w1);  // monotonic
}

TEST(Trace, ChromeJsonIsValidAndCarriesEvents) {
  Tracer t;
  std::int64_t now = 1'000'000;  // 1 ms
  t.set_clock([&now] { return now; });
  t.instant("transport", "srudp.route_switch", {{"peer", "b:7002"}, {"q", "a\"b\\c\n"}});
  SpanId s = t.begin_span("rm", "rm.spawn");
  now += 2'500'000;
  t.end_span(s);
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
  auto& tracer = Tracer::global();
  tracer.set_enabled(true);
  tracer.clear();
  MetricsRegistry::global().set_enabled(true);
  MetricsRegistry::global().reset();

  simnet::World world(991);
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
  spawner.call(d.address(), daemon::tags::kSpawn, req.encode(),
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
  t.set_clock([] { return std::int64_t{1'000}; });
  // Flow recording is off by default: the hot-path guard callers check.
  EXPECT_FALSE(t.flow_enabled());
  t.flow(TraceEvent::Phase::flow_start, "flow", "srudp.send", 0xabc);
  EXPECT_TRUE(t.events().empty());

  t.set_flow_enabled(true);
  t.flow(TraceEvent::Phase::flow_start, "flow", "srudp.send", 0xabc, {{"msg", "1"}});
  t.flow(TraceEvent::Phase::flow_step, "flow", "srudp.tx", 0xabc);
  t.flow(TraceEvent::Phase::flow_end, "flow", "srudp.deliver", 0xabc);
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

TEST(Trace, FlowRespectsMasterEnableToo) {
  Tracer t;
  t.set_flow_enabled(true);
  t.set_enabled(false);
  t.flow(TraceEvent::Phase::flow_step, "flow", "x", 7);
  EXPECT_TRUE(t.events().empty());
}

// ---------- flight recorder ----------

TEST(Flight, RingWrapsOldestFirstAndCountsDrops) {
  FlightRecorder f(4);
  for (int n = 0; n < 10; ++n)
    f.record("a", "test", "e" + std::to_string(n));
  auto events = f.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(f.dropped(), 6u);
  for (int n = 0; n < 4; ++n) EXPECT_EQ(events[n].what, "e" + std::to_string(6 + n));
  f.clear();
  EXPECT_EQ(f.size(), 0u);
  EXPECT_EQ(f.dropped(), 0u);
}

TEST(Flight, HostFilterKeepsWorldLevelEvents) {
  FlightRecorder f(16);
  f.record("a", "srudp", "rto", "peer=b");
  f.record("b", "srudp", "rto", "peer=a");
  f.record("", "fault", "partition.start", "groups=[a][b]");
  EXPECT_EQ(f.events().size(), 3u);
  auto a_events = f.events("a");
  ASSERT_EQ(a_events.size(), 2u);  // a's own + the world-level fault
  EXPECT_EQ(a_events[0].host, "a");
  EXPECT_EQ(a_events[1].cat, "fault");

  std::string dump = f.dump("b");
  EXPECT_NE(dump.find("srudp/rto"), std::string::npos);
  EXPECT_NE(dump.find("fault/partition.start"), std::string::npos);
  EXPECT_EQ(dump.find("peer=b"), std::string::npos);  // a's event filtered out
}

TEST(Flight, DumpSaysSoWhenEmptyAndWhenDisabled) {
  FlightRecorder f(8);
  EXPECT_NE(f.dump().find("empty"), std::string::npos);
  f.record("a", "c", "w");
  EXPECT_NE(f.dump("ghost").find("no flight events"), std::string::npos);
  f.set_enabled(false);
  f.record("a", "c", "ignored");
  EXPECT_EQ(f.size(), 1u);
  f.set_enabled(true);
}

TEST(Flight, TimestampsComeFromTraceClock) {
  auto& tracer = Tracer::global();
  tracer.set_clock([] { return std::int64_t{123'456'789}; });
  FlightRecorder f(8);
  f.record("a", "c", "w");
  tracer.set_clock(nullptr);
  ASSERT_EQ(f.events().size(), 1u);
  EXPECT_EQ(f.events()[0].ts, 123'456'789);
}

TEST(Flight, CapacityIsConfigurableAndResizeClears) {
  FlightRecorder f(3);
  EXPECT_EQ(f.capacity(), 3u);
  for (int n = 0; n < 5; ++n) f.record("a", "test", "e" + std::to_string(n));
  EXPECT_EQ(f.size(), 3u);
  EXPECT_EQ(f.dropped(), 2u);
  EXPECT_EQ(f.total_recorded(), 5u);
  auto events = f.events();
  ASSERT_EQ(events.size(), 3u);  // oldest-first survivors: e2 e3 e4
  for (int n = 0; n < 3; ++n) EXPECT_EQ(events[n].what, "e" + std::to_string(2 + n));

  // Growing (or shrinking) the ring restarts it: no stale tail, no carried
  // dropped count — the telemetry cursor (total_recorded) restarts too.
  f.set_capacity(8);
  EXPECT_EQ(f.capacity(), 8u);
  EXPECT_EQ(f.size(), 0u);
  EXPECT_EQ(f.dropped(), 0u);
  EXPECT_EQ(f.total_recorded(), 0u);
  for (int n = 0; n < 10; ++n) f.record("a", "test", "f" + std::to_string(n));
  events = f.events();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(events.front().what, "f2");
  EXPECT_EQ(events.back().what, "f9");
  EXPECT_EQ(f.total_recorded(), 10u);

  // Degenerate capacities clamp to 1 rather than dividing by zero.
  f.set_capacity(0);
  EXPECT_EQ(f.capacity(), 1u);
  f.record("a", "test", "only");
  f.record("a", "test", "newest");
  ASSERT_EQ(f.events().size(), 1u);
  EXPECT_EQ(f.events()[0].what, "newest");
  FlightRecorder zero(0);
  EXPECT_EQ(zero.capacity(), 1u);
}

TEST(Flight, CapacityEnvParsing) {
  // The exact contract global() applies to SNIPE_FLIGHT_CAPACITY, testable
  // without racing the singleton's one-shot env read.
  EXPECT_EQ(FlightRecorder::capacity_from_env(nullptr), FlightRecorder::kDefaultCapacity);
  EXPECT_EQ(FlightRecorder::capacity_from_env(""), FlightRecorder::kDefaultCapacity);
  EXPECT_EQ(FlightRecorder::capacity_from_env("bogus"), FlightRecorder::kDefaultCapacity);
  EXPECT_EQ(FlightRecorder::capacity_from_env("0"), FlightRecorder::kDefaultCapacity);
  EXPECT_EQ(FlightRecorder::capacity_from_env("512"), 512u);
  EXPECT_EQ(FlightRecorder::capacity_from_env("0x40"), 64u);  // any strtoull base
}

TEST(FlightDeathTest, AbortHandlerDumpsRecorder) {
  // The sanitizer/assert path: SIGABRT triggers a stderr dump of the
  // global recorder before the process dies.
  FlightRecorder::install_abort_handler();
  FlightRecorder::install_abort_handler();  // idempotent
  EXPECT_DEATH(
      {
        FlightRecorder::global().record("a", "test", "before_abort", "detail");
        std::abort();
      },
      "test/before_abort");
}

}  // namespace
}  // namespace snipe::obs
