#include "core/console.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <map>
#include <optional>
#include <sstream>
#include <string_view>

#include "util/strings.hpp"
#include "util/time.hpp"

namespace snipe::core {

namespace {

/// Keeps only the lines of `text` starting with `prefix` (the "metrics
/// srudp." filter, shared by the console verb and the /metrics endpoint).
std::string filter_lines(const std::string& text, const std::string& prefix) {
  if (prefix.empty()) return text;
  std::istringstream lines(text);
  std::string filtered, l;
  while (std::getline(lines, l))
    if (l.rfind(prefix, 0) == 0) filtered += l + "\n";
  return filtered;
}

std::string format_ms(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

/// Ratio of two counters by name, or -1 when the denominator is absent or
/// zero (nothing sent means no meaningful ratio, not a perfect one).
double counter_ratio(const obs::Snapshot& snapshot, const std::string& num,
                     const std::string& den) {
  double n = 0, d = 0;
  for (const auto& m : snapshot) {
    if (m.name == num) n = m.value;
    if (m.name == den) d = m.value;
  }
  return d > 0 ? n / d : -1;
}

}  // namespace

std::string health_report(const obs::Snapshot& snapshot) {
  std::string out;
  // Delivery latency: every transport publishes a "<transport>.delivery_ms"
  // histogram, so the rollup discovers transports instead of listing them.
  for (const auto& m : snapshot) {
    if (m.kind != obs::MetricValue::Kind::histogram) continue;
    constexpr std::string_view suffix = ".delivery_ms";
    if (m.name.size() <= suffix.size() ||
        m.name.compare(m.name.size() - suffix.size(), suffix.size(), suffix) != 0)
      continue;
    std::string transport = m.name.substr(0, m.name.size() - suffix.size());
    out += transport + " delivery_ms p50=" + format_ms(m.p50) +
           " p95=" + format_ms(m.p95) + " p99=" + format_ms(m.p99) +
           " n=" + std::to_string(m.count) + "\n";
  }
  double srudp_retx = counter_ratio(snapshot, "srudp.retransmits",
                                    "srudp.fragments_sent");
  if (srudp_retx >= 0)
    out += "srudp retransmit_ratio " + format_ms(srudp_retx) + "\n";
  double stream_retx = counter_ratio(snapshot, "stream.segments_retransmitted",
                                     "stream.segments_sent");
  if (stream_retx >= 0)
    out += "stream retransmit_ratio " + format_ms(stream_retx) + "\n";
  for (const auto& m : snapshot)
    if (m.name == "srudp.route_switches")
      out += "route_failovers " + std::to_string(static_cast<std::uint64_t>(m.value)) +
             "\n";
  return out.empty() ? "(no health data)" : out;
}

std::string trace_report(const std::vector<obs::TraceEvent>& events,
                         const std::string& query) {
  // The operator may paste a flow id ("0x9f3...", decimal) or a message id
  // from a log line; a message id resolves through any event carrying a
  // matching "msg" argument.
  std::uint64_t id = 0;
  try {
    id = std::stoull(query, nullptr, query.rfind("0x", 0) == 0 ? 16 : 10);
  } catch (...) {
    id = 0;
  }
  bool direct = false;
  for (const auto& e : events)
    if (e.id != 0 && e.id == id) {
      direct = true;
      break;
    }
  if (!direct) {
    id = 0;
    for (const auto& e : events) {
      if (e.id == 0) continue;
      for (const auto& [k, v] : e.args)
        if (k == "msg" && v == query) {
          id = e.id;
          break;
        }
      if (id != 0) break;
    }
  }
  if (id == 0) return "(no flow events for " + query + ")";

  char idbuf[32];
  std::snprintf(idbuf, sizeof(idbuf), "0x%llx", static_cast<unsigned long long>(id));
  std::string out = "flow " + std::string(idbuf) + ":\n";
  for (const auto& e : events) {
    if (e.id != id) continue;
    out += "  " + format_time(e.ts) + " " + e.name;
    for (const auto& [k, v] : e.args) out += " " + k + "=" + v;
    out += "\n";
  }
  return out;
}

std::string fleet_health_report(const obs::FleetStore& store, std::int64_t now_ns) {
  auto hosts = store.health(now_ns);
  if (hosts.empty()) return "(no fleet telemetry)";
  std::size_t stale_count = 0;
  for (const auto& h : hosts) stale_count += h.stale ? 1 : 0;
  std::string out = "fleet hosts: " + std::to_string(hosts.size()) + " (" +
                    std::to_string(stale_count) + " stale)\n";
  char line[192];
  for (const auto& h : hosts) {
    std::snprintf(line, sizeof(line),
                  "  %-16s beacons=%llu resyncs=%llu last=%s missed=%.1f%s\n",
                  h.host.c_str(), static_cast<unsigned long long>(h.beacons),
                  static_cast<unsigned long long>(h.resyncs),
                  format_time(h.last_arrival).c_str(), h.missed,
                  h.stale ? " STALE" : "");
    out += line;
  }
  // The rollup reuses the local health report over the fleet-merged
  // snapshot: merged sketches make the percentiles exact for the union.
  out += "fleet rollup:\n";
  out += health_report(store.merged_snapshot());
  return out;
}

namespace {

constexpr std::uint64_t kMaxCount = 1'000'000;

/// A count parameter (`n`, `window_s`) is its leading decimal digits.  Text
/// without any (absent, "bogus") means `fallback`; a number outside
/// [1, kMaxCount] is an error rather than a wrap-around or an overflow.
std::optional<std::uint64_t> parse_count(const std::string& text, std::uint64_t fallback) {
  std::uint64_t v = 0;
  auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec == std::errc::invalid_argument) return fallback;
  if (ec != std::errc() || v < 1 || v > kMaxCount) return std::nullopt;
  return v;
}

using Kind = OpsParam::Kind;
using Needs = OpsCommand::Needs;

const std::vector<OpsCommand> kCommands = {
    {"metrics", {{"prefix"}}, Needs::nothing,
     [](const OpsCall& c) {
       std::string out = filter_lines(c.process.host().metrics().format_text(), c.args[0]);
       return out.empty() ? std::string("(no metrics recorded)") : out;
     }},
    {"health", {}, Needs::nothing,
     [](const OpsCall& c) { return health_report(c.process.host().metrics().snapshot()); }},
    // The named host's ring in this process's World; no name is our own.
    {"flight", {{"host"}}, Needs::nothing,
     [](const OpsCall& c) {
       simnet::Host& self = c.process.host();
       simnet::Host* host = c.args[0].empty() ? &self : self.world()->host(c.args[0]);
       return host != nullptr ? host->flight().dump()
                              : "(no flight events for host " + c.args[0] + ")";
     }},
    {"trace", {{"id", Kind::required}}, Needs::nothing,
     [](const OpsCall& c) { return trace_report(c.process.host().tracer().events(), c.args[0]); }},
    // With a watchtower attached, this host's own NICs read utilization
    // over the trailing window; every other link is cumulative-since-boot.
    {"topo", {{"window_s", Kind::count, 10}}, Needs::nothing,
     [](const OpsCall& c) {
       return c.process.host().world()->describe_topology(
           c.surfaces.series, duration::seconds(static_cast<std::int64_t>(c.counts[0])));
     }},
    {"series", {{"prefix"}}, Needs::series,
     [](const OpsCall& c) { return c.surfaces.series->format_text(c.args[0]); }},
    {"alerts", {}, Needs::alerts,
     [](const OpsCall& c) { return c.surfaces.alerts->format_text(); }},
    {"fleet/metrics", {{"prefix"}}, Needs::fleet,
     [](const OpsCall& c) {
       std::string out = c.surfaces.fleet->format_metrics(c.args[0]);
       return out.empty() ? std::string("(no fleet metrics)") : out;
     }},
    {"fleet/health", {}, Needs::fleet,
     [](const OpsCall& c) {
       return fleet_health_report(*c.surfaces.fleet, c.process.host().engine().now());
     }},
    {"fleet/flight", {{"host"}}, Needs::fleet,
     [](const OpsCall& c) { return c.surfaces.fleet->format_flight(c.args[0]); }},
    {"fleet/top", {{"n", Kind::count, 5}}, Needs::fleet,
     [](const OpsCall& c) {
       return c.surfaces.fleet->format_top(static_cast<std::size_t>(c.counts[0]));
     }},
    {"fleet/series", {{"host"}, {"prefix"}}, Needs::fleet,
     [](const OpsCall& c) { return c.surfaces.fleet->format_series(c.args[0], c.args[1]); }},
    {"fleet/alerts", {}, Needs::fleet_watch,
     [](const OpsCall& c) { return c.surfaces.fleet_watch->format_text(); }},
};

/// The one message per unattached surface, or nullptr when it is attached.
const char* missing(Needs needs, const OpsSurfaces& s) {
  if ((needs == Needs::series && !s.series) || (needs == Needs::alerts && !s.alerts))
    return "no watchtower attached";
  if (needs == Needs::fleet && !s.fleet) return "no fleet collector attached";
  if (needs == Needs::fleet_watch && !s.fleet_watch) return "no fleet watch attached";
  return nullptr;
}

/// Binds one row's arguments and runs it, answering an HTTP-style status
/// and text: 404 when its surface is not attached, 400 when a parameter is
/// missing or out of range.
std::pair<int, std::string> run(const OpsCommand& cmd, SnipeProcess& process,
                                const OpsSurfaces& surfaces, std::vector<std::string> args) {
  if (const char* why = missing(cmd.needs, surfaces)) return {404, why};
  args.resize(cmd.params.size());
  OpsCall call{process, surfaces, std::move(args), std::vector<std::uint64_t>(cmd.params.size())};
  for (std::size_t i = 0; i < cmd.params.size(); ++i) {
    const OpsParam& p = cmd.params[i];
    auto count = p.kind == Kind::count ? parse_count(call.args[i], p.fallback) : 0;
    if ((p.kind == Kind::required && call.args[i].empty()) || !count)
      return {400, std::string(p.name) + " is missing or out of range"};
    call.counts[i] = *count;
  }
  return {200, cmd.run(call)};
}

/// "/fleet/series?host=&prefix=": a row as a gateway endpoint.
std::string endpoint_form(const OpsCommand& cmd) {
  std::string out = "/" + std::string(cmd.path);
  for (const auto& p : cmd.params)
    out += (&p == &cmd.params.front() ? "?" : "&") + std::string(p.name) + "=";
  return out;
}

/// The console usage line: the RC verbs, then every table row as a verb
/// ("fleet series [host] [prefix]"), each group of rows ("fleet/...") on
/// its own line.
std::string console_usage() {
  std::string out =
      "usage: ps <host-url> | state <urn> | meta <uri> | where <urn> | routers <group>";
  std::string_view group;
  for (const auto& cmd : kCommands) {
    auto slash = cmd.path.find('/');
    std::string_view g = slash == std::string_view::npos ? "" : cmd.path.substr(0, slash);
    out += g == group ? " | " : "\n" + std::string(g) + " <sub>: ";
    group = g;
    std::string verb(cmd.path);
    std::replace(verb.begin(), verb.end(), '/', ' ');
    out += verb;
    for (const auto& p : cmd.params)
      out += p.kind == Kind::required ? " <" + std::string(p.name) + ">"
                                      : " [" + std::string(p.name) + "]";
  }
  return out;
}

}  // namespace

std::span<const OpsCommand> ops_commands() { return kCommands; }

void Console::interpret(const std::string& line, std::function<void(std::string)> reply) {
  std::vector<std::string> words;
  std::istringstream parts(trim(line));
  for (std::string w; parts >> w;) words.push_back(std::move(w));
  std::string verb = words.empty() ? "" : words[0];
  std::string arg = words.size() > 1 ? words[1] : "";
  if (verb == "ps" && !arg.empty()) {
    processes_on_host(arg, [reply = std::move(reply), arg](
                               Result<std::vector<std::string>> r) {
      if (!r) {
        reply("ps: " + r.error().to_string());
        return;
      }
      if (r.value().empty()) {
        reply("ps: no tasks recorded for " + arg);
        return;
      }
      reply(join(r.value(), "\n"));
    });
    return;
  }
  if (verb == "state" && !arg.empty()) {
    process_state(arg, [reply = std::move(reply), arg](Result<std::string> r) {
      reply(arg + ": " + (r.ok() ? r.value() : r.error().to_string()));
    });
    return;
  }
  if ((verb == "meta" || verb == "routers") && !arg.empty()) {
    bool routers_only = verb == "routers";
    query(arg, [reply = std::move(reply), routers_only](
                   Result<std::vector<rcds::Assertion>> r) {
      if (!r) {
        reply(r.error().to_string());
        return;
      }
      std::string out;
      for (const auto& a : r.value()) {
        if (routers_only && a.name != rcds::names::kGroupRouter) continue;
        out += a.name + " = " + a.value + "\n";
      }
      reply(out.empty() ? "(no matching metadata)" : out);
    });
    return;
  }
  if (verb == "where" && !arg.empty()) {
    process_.rc().lookup(arg, rcds::names::kProcHost,
                         [reply = std::move(reply), arg](Result<std::vector<std::string>> r) {
                           if (!r || r.value().empty())
                             reply("where: unknown process " + arg);
                           else
                             reply(arg + " is on " + r.value().front());
                         });
    return;
  }
  // Observability verbs: the row whose path the leading words spell
  // ("fleet top 3" is fleet/top); the words after it are its parameters in
  // table order.
  for (const auto& cmd : kCommands) {
    auto names = split(std::string(cmd.path), '/');
    if (words.size() < names.size() || !std::equal(names.begin(), names.end(), words.begin()))
      continue;
    auto [status, text] = run(cmd, process_, *this, {words.begin() + names.size(), words.end()});
    reply(status == 400 ? console_usage() : text);
    return;
  }
  reply(console_usage());
}

HttpServer::HttpServer(SnipeProcess& process, std::string service_uri, Handler handler)
    : process_(process), service_uri_(std::move(service_uri)), handler_(std::move(handler)) {
  // "register a binding between a URN or URL and its current location":
  // the service URI points at the process URN; the URN's address metadata
  // is maintained by SnipeProcess (including across migration).
  process_.rc().set(service_uri_, rcds::names::kServiceLocation, process_.urn(),
                    [](Result<void>) {});
  process_.rpc().serve(tags::kHttpRequest,
                       [this](const simnet::Address&, const Payload& body) -> Result<Bytes> {
                         auto request = decode<HttpRequest>(body);
                         if (!request) return request.error();
                         ++served_;
                         return encode(handler_(request.value()));
                       });
}

void HttpGateway::request(const std::string& service_uri, HttpRequest request,
                          std::function<void(Result<HttpResponse>)> done) {
  process_.rc().lookup(
      service_uri, rcds::names::kServiceLocation,
      [this, wire = encode(request), done = std::move(done)](
          Result<std::vector<std::string>> r) mutable {
        if (!r) {
          done(r.error());
          return;
        }
        if (r.value().empty()) {
          done(Error{Errc::not_found, "service not registered"});
          return;
        }
        // §5.7: a service may list several locations; try them in order.
        try_location(std::move(r).take(), 0, std::move(wire), std::move(done));
      });
}

void HttpGateway::try_location(std::vector<std::string> locations, std::size_t index,
                               Bytes wire, std::function<void(Result<HttpResponse>)> done) {
  if (index >= locations.size()) {
    done(Error{Errc::unreachable, "all service locations failed"});
    return;
  }
  std::string urn = locations[index];
  forward(urn, wire,
          2, [this, locations = std::move(locations), index, wire,
              done = std::move(done)](Result<HttpResponse> r) mutable {
            if (r.ok() || index + 1 >= locations.size()) {
              done(std::move(r));
              return;
            }
            try_location(std::move(locations), index + 1, std::move(wire), std::move(done));
          });
}

void HttpGateway::forward(const std::string& urn, const Bytes& wire, int attempts_left,
                          std::function<void(Result<HttpResponse>)> done) {
  process_.resolve(urn, [this, urn, wire, attempts_left,
                         done = std::move(done)](Result<simnet::Address> addr) mutable {
    if (!addr) {
      done(addr.error());
      return;
    }
    process_.rpc().call(
        addr.value(), tags::kHttpRequest, wire,
        [this, urn, wire, attempts_left, done = std::move(done)](Result<Payload> r) mutable {
          if (r.ok()) {
            done(decode<HttpResponse>(r.value()));
            return;
          }
          if (attempts_left > 1) {
            // The server may have migrated: drop the cached address and
            // re-resolve through RC (§3.7: the browser finds it "even
            // though it may migrate from one host to another").
            process_.invalidate_resolution(urn);
            forward(urn, wire, attempts_left - 1, std::move(done));
            return;
          }
          done(r.error());
        },
        duration::seconds(2));
  });
}

std::string to_http_text(const HttpResponse& response) {
  const char* reason = response.status == 200   ? "OK"
                       : response.status == 400 ? "Bad Request"
                       : response.status == 404 ? "Not Found"
                                                : "Error";
  std::string out = "HTTP/1.0 " + std::to_string(response.status) + " " + reason +
                    "\r\nContent-Type: text/plain\r\nContent-Length: " +
                    std::to_string(response.body.size()) + "\r\n\r\n";
  out.append(response.body.begin(), response.body.end());
  return out;
}

namespace {

/// Splits "/metrics?prefix=srudp." into the path and its query parameters.
/// No percent-decoding: every value the endpoints accept (metric prefixes,
/// host names, flow ids) is plain text already.
std::pair<std::string, std::map<std::string, std::string>> parse_target(
    const std::string& target) {
  auto qpos = target.find('?');
  std::string path = target.substr(0, qpos);
  std::map<std::string, std::string> params;
  if (qpos != std::string::npos) {
    std::istringstream query(target.substr(qpos + 1));
    std::string pair;
    while (std::getline(query, pair, '&')) {
      auto eq = pair.find('=');
      if (eq == std::string::npos)
        params[pair] = "";
      else
        params[pair.substr(0, eq)] = pair.substr(eq + 1);
    }
  }
  return {std::move(path), std::move(params)};
}

HttpResponse text_response(int status, const std::string& text) {
  HttpResponse res;
  res.status = status;
  res.body = to_bytes(text);
  return res;
}

}  // namespace

OpsGateway::OpsGateway(SnipeProcess& process, std::string service_uri)
    : process_(process),
      server_(process, std::move(service_uri),
              [this](const HttpRequest& request) { return handle(request); }) {}

HttpResponse OpsGateway::handle(const HttpRequest& request) const {
  if (request.method != "GET")
    return text_response(400, "only GET is supported\n");
  auto [path, params] = parse_target(request.path);
  for (const auto& cmd : kCommands) {
    if (path != "/" + std::string(cmd.path)) continue;
    std::vector<std::string> args;
    for (const auto& p : cmd.params) args.push_back(params[std::string(p.name)]);
    auto [status, text] = run(cmd, process_, *this, std::move(args));
    if (status == 400) text += "\nusage: " + endpoint_form(cmd);
    if (text.empty() || text.back() != '\n') text += "\n";
    return text_response(status, text);
  }
  std::string endpoints;
  for (const auto& cmd : kCommands) endpoints += " " + endpoint_form(cmd);
  return text_response(404, "not found: " + path + "\nendpoints:" + endpoints + "\n");
}

}  // namespace snipe::core
