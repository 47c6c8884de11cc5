// Consoles and the HTTP gateway (§3.7).
//
// "A SNIPE console is any SNIPE process which communicates with humans."
// There is deliberately no global process list — "there is no SNIPE
// virtual machine apart from the entire Internet" — so a console works by
// querying metadata: the processes a host's daemon started, any process's
// state, and group membership are all RC records.
//
// "A SNIPE process can also function as an HTTP server ... A SNIPE-based
// HTTP server can register a binding between a URN or URL and its current
// location, allowing a web browser to find it even though it may migrate."
// HttpServer + HttpGateway reproduce that: the gateway (the paper's "proxy
// server ... which allows any web browser to resolve the URI of any
// RCDS-registered resource") resolves the service URI through RC on every
// miss, so requests follow the server across migrations.
#pragma once

#include <span>
#include <string_view>

#include "core/process.hpp"
#include "obs/alert.hpp"
#include "obs/fleet.hpp"
#include "obs/metrics.hpp"
#include "obs/series.hpp"
#include "obs/trace.hpp"

namespace snipe::core {

/// Health/SLO rollup computed from a metrics snapshot: per-transport
/// delivery latency quantiles (every "*.delivery_ms" histogram), retransmit
/// ratios, and the route-failover count.  A free function over the snapshot
/// so tests can feed it synthetic registries, including an empty one.
std::string health_report(const obs::Snapshot& snapshot);

/// The flow-event trail for one causal trace.  `query` is a flow id (hex
/// "0x..." or decimal) or a message id: when no flow matches the id
/// directly, events whose "msg" argument equals `query` donate their flow
/// id.  A free function over the event list for the same testability
/// reason as health_report.
std::string trace_report(const std::vector<obs::TraceEvent>& events,
                         const std::string& query);

/// Fleet health rollup: one liveness line per known host (beacon counts,
/// beacon age in periods, STALE flag once stale_after_beacons periods pass
/// with nothing received) followed by health_report() over the fleet-merged
/// snapshot — so the fleet rollup's percentiles are exact with respect to
/// the union of every host's histogram buckets.  `now_ns` is the clock the
/// staleness math runs against (the asking host's engine clock).
std::string fleet_health_report(const obs::FleetStore& store, std::int64_t now_ns);

/// The observability surfaces a console or ops gateway answers from beyond
/// its own host, null until attached.  Console and OpsGateway both inherit
/// it, so the attach calls and the pointers exist once.
struct OpsSurfaces {
  const obs::FleetStore* fleet = nullptr;        ///< a collector's store
  const obs::SeriesStore* series = nullptr;      ///< this host's watchtower history
  const obs::AlertEngine* alerts = nullptr;      ///< this host's alert engine
  const obs::FleetWatch* fleet_watch = nullptr;  ///< a collector's fleet alerts

  /// Attaches a collector's fleet store; the `fleet` rows answer from it.
  void set_fleet(const obs::FleetStore* store) { fleet = store; }

  /// Attaches this host's watchtower: the series store feeds `series` and
  /// windows the `topo` utilization column; the alert engine answers
  /// `alerts`.
  void set_watch(const obs::SeriesStore* store, const obs::AlertEngine* engine) {
    series = store;
    alerts = engine;
  }

  /// Attaches a collector's fleet alert engine (`fleet alerts`).
  void set_fleet_watch(const obs::FleetWatch* watch) { fleet_watch = watch; }
};

/// One named parameter of an ops command: a positional word on the console,
/// a `?name=value` query parameter on the gateway.  A count is a number in
/// [1, 1000000], `fallback` when absent or not a number.
struct OpsParam {
  enum class Kind { text, required, count };
  std::string_view name;
  Kind kind = Kind::text;
  std::uint64_t fallback = 0;
};

/// One bound call of an ops command.  `args` holds one entry per parameter
/// ("" when absent); `counts[i]` is the parsed value of a count parameter.
struct OpsCall {
  SnipeProcess& process;
  const OpsSurfaces& surfaces;
  std::vector<std::string> args;
  std::vector<std::uint64_t> counts;
};

/// One row of the ops command table: an observability command reached as
/// the console verb "fleet top 3" and as the gateway endpoint
/// "/fleet/top?n=3".  Both adapters bind parameters onto the same row and
/// answer with its text, so the two surfaces cannot drift apart.
struct OpsCommand {
  /// The surface a row cannot answer without; unattached, it replies 404
  /// with one message per surface.
  enum class Needs { nothing, series, alerts, fleet, fleet_watch };
  std::string_view path;  ///< "metrics", "fleet/top"
  std::vector<OpsParam> params;
  Needs needs = Needs::nothing;
  std::string (*run)(const OpsCall&);
};

/// The ops command table: metrics, health, flight, trace, topo, series,
/// alerts and fleet metrics/health/flight/top/series/alerts.  The console
/// usage line and the gateway's 404 body are generated from it.
std::span<const OpsCommand> ops_commands();

/// A human-facing SNIPE process: metadata queries + commands.
///
/// `interpret` implements the character-based interface: a PVM-console-like
/// command line evaluated against the live registry.  Because "there is no
/// way to list all SNIPE processes" (§3.7), every command starts from a
/// name the operator already has — a URI, URN or host.  The RC-backed verbs
/// `ps <host-url>`, `state <urn>`, `meta <uri>`, `where <urn>` and
/// `routers <group-urn>` are console-only; every other verb is a row of
/// ops_commands(), its parameters given as positional words.
class Console : public OpsSurfaces {
 public:
  explicit Console(SnipeProcess& process) : process_(process) {}

  /// Evaluates one command line; the reply is human-readable text.
  void interpret(const std::string& line, std::function<void(std::string)> reply);

  /// Full metadata of any URI (host, process, group, LIFN...).
  void query(const std::string& uri,
             std::function<void(Result<std::vector<rcds::Assertion>>)> done) {
    process_.rc().get(uri, std::move(done));
  }

  /// URNs of the processes the daemon on `host_url` has started (§3.7).
  void processes_on_host(const std::string& host_url,
                         std::function<void(Result<std::vector<std::string>>)> done) {
    process_.rc().lookup(host_url, rcds::names::kHostTask, std::move(done));
  }

  /// Current state of a process, from its RC metadata.
  void process_state(const std::string& urn,
                     std::function<void(Result<std::string>)> done) {
    process_.rc().lookup(urn, rcds::names::kProcState,
                         [done = std::move(done)](Result<std::vector<std::string>> r) {
                           if (!r) {
                             done(r.error());
                             return;
                           }
                           if (r.value().empty()) {
                             done(Result<std::string>(Errc::not_found, "no recorded state"));
                             return;
                           }
                           done(r.value().front());
                         });
  }

  /// Sends a command message to any process by URN.
  void command(const std::string& urn, std::uint32_t tag, Bytes body,
               SnipeProcess::DoneHandler done = nullptr) {
    process_.send(urn, tag, std::move(body), std::move(done));
  }

 private:
  SnipeProcess& process_;
};

struct HttpRequest {
  std::string method = "GET";
  std::string path = "/";
  Bytes body;

  template <class Io>
  void fields(Io& io) {
    io(method, path, body);
  }
};

struct HttpResponse {
  std::int32_t status = 200;
  Bytes body;

  template <class Io>
  void fields(Io& io) {
    io(status, body);
  }
};

/// Turns a SnipeProcess into an HTTP server bound to a service URI.
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  /// Registers `service_uri -> this process` in RC and serves requests.
  HttpServer(SnipeProcess& process, std::string service_uri, Handler handler);

  /// Re-registration after the underlying process migrates (the address
  /// binding in the process URN is already maintained by SnipeProcess;
  /// the service binding points at the URN so nothing else moves).
  const std::string& service_uri() const { return service_uri_; }
  std::uint64_t requests_served() const { return served_; }

 private:
  SnipeProcess& process_;
  std::string service_uri_;
  Handler handler_;
  std::uint64_t served_ = 0;
};

/// The proxy a "web browser" talks to: resolves RCDS-registered service
/// URIs and forwards HTTP requests to wherever the server currently runs.
class HttpGateway {
 public:
  explicit HttpGateway(SnipeProcess& process) : process_(process) {}

  void request(const std::string& service_uri, HttpRequest request,
               std::function<void(Result<HttpResponse>)> done);

 private:
  /// Tries the service's registered locations in order (§5.7: "Any process
  /// attempting to communicate with that service will then see multiple
  /// service locations from which to choose"); within each location,
  /// re-resolves on failure to follow migrations.
  void try_location(std::vector<std::string> locations, std::size_t index, Bytes wire,
                    std::function<void(Result<HttpResponse>)> done);
  void forward(const std::string& urn, const Bytes& wire, int attempts_left,
               std::function<void(Result<HttpResponse>)> done);

  SnipeProcess& process_;
};

/// Renders an HttpResponse as HTTP/1.0 wire text — the form a real browser
/// or `curl -0` would see if the gateway were bridged to a socket.
std::string to_http_text(const HttpResponse& response);

/// The ops console served over SNIPE's own HTTP machinery: an ordinary
/// SNIPE process that registers a service URI and exports observability
/// data as plain text.  Because it is a normal HttpServer, requests reach
/// it through the HttpGateway and keep working after it migrates.  Every
/// `GET /<path>[?name=value...]` is a row of ops_commands().
class OpsGateway : public OpsSurfaces {
 public:
  OpsGateway(SnipeProcess& process, std::string service_uri);

  /// The request dispatcher, public so tests can drive it without a
  /// simulated browser in the loop.
  HttpResponse handle(const HttpRequest& request) const;

  const std::string& service_uri() const { return server_.service_uri(); }
  std::uint64_t requests_served() const { return server_.requests_served(); }

 private:
  SnipeProcess& process_;
  HttpServer server_;
};

}  // namespace snipe::core
