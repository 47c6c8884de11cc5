// Request/response messaging over SRUDP.
//
// The RC servers used SUN RPC (§6); the SNIPE daemons, resource managers
// and file servers all follow the same request/response pattern.  This
// endpoint multiplexes tagged requests over one SrudpEndpoint, matches
// responses by id, applies per-call deadlines, and optionally stamps each
// request with the MD5 shared-secret authenticator the 1998 RC servers
// used ("authentication based on MD5 hashed shared secrets").
//
// All completion is callback-based: there is no blocking in a discrete-
// event simulation.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <type_traits>

#include "crypto/hash.hpp"
#include "transport/srudp.hpp"

namespace snipe::transport {

struct RpcConfig {
  /// If nonempty, requests carry (and servers require) an MD5 authenticator
  /// keyed with this secret.
  std::string shared_secret;
};

/// Per-endpoint call accounting, streamed into the host's registry as
/// "rpc.calls_sent", "rpc.calls_ok", ... through one stats visitor.
struct RpcStats {
  std::uint64_t calls_sent = 0;
  std::uint64_t calls_ok = 0;
  std::uint64_t calls_timeout = 0;
  std::uint64_t calls_error = 0;
  std::uint64_t requests_served = 0;
  std::uint64_t requests_rejected_auth = 0;
  std::uint64_t notifications_sent = 0;
  std::uint64_t notifications_received = 0;
};

class RpcEndpoint {
 public:
  // Every body — request, notification, response — is a Payload whose
  // segments, on a clean path, alias the sender's buffers (DESIGN.md
  // §data-plane).  Handlers decode bodies straight from the Payload
  // (util/codec.hpp) and flatten only where they need contiguous bytes.
  using ResponseHandler = std::function<void(Result<Payload>)>;
  /// Server-side handler: return the response body or an Error that is
  /// propagated to the caller.
  using RequestHandler =
      std::function<Result<Payload>(const simnet::Address& from, const Payload& body)>;
  /// Deferred-response variant: the handler must eventually invoke the
  /// responder exactly once.  Used when serving needs further network round
  /// trips (e.g. a daemon fetching mobile code before answering a spawn).
  using Responder = std::function<void(Result<Payload>)>;
  using AsyncRequestHandler =
      std::function<void(const simnet::Address& from, const Payload& body, Responder respond)>;
  /// One-way notification handler.
  using NotifyHandler =
      std::function<void(const simnet::Address& from, const Payload& body)>;

  /// The deadline of a call() that names none.
  static constexpr SimDuration kDefaultTimeout = duration::seconds(5);

  RpcEndpoint(simnet::Host& host, std::uint16_t port, RpcConfig config = {});

  /// Registers the handler for request tag `tag` (replacing any previous).
  /// A handler written against contiguous `Bytes` bodies (perfbench's layer
  /// peel registers one) is accepted too: its body is flattened into a
  /// fresh vector at this edge.
  template <typename F>
  void serve(std::uint32_t tag, F handler) {
    if constexpr (std::is_invocable_v<F&, const simnet::Address&, const Payload&>) {
      handlers_[tag] = std::move(handler);
    } else {
      handlers_[tag] = [h = std::move(handler)](const simnet::Address& from,
                                                const Payload& body) -> Result<Payload> {
        return h(from, body.to_bytes());
      };
    }
  }
  /// Registers a deferred-response handler for `tag`.
  void serve_async(std::uint32_t tag, AsyncRequestHandler handler) {
    async_handlers_[tag] = std::move(handler);
  }

  /// Catch-all for requests with no registered handler; used by migration
  /// relays (§5.6) to proxy *any* request to the process's new location.
  using DefaultRequestHandler = std::function<void(
      const simnet::Address& from, std::uint32_t tag, const Payload& body, Responder respond)>;
  using DefaultNotifyHandler = std::function<void(const simnet::Address& from,
                                                  std::uint32_t tag, const Payload& body)>;
  void serve_default(DefaultRequestHandler handler) { default_handler_ = std::move(handler); }
  void on_notify_default(DefaultNotifyHandler handler) {
    default_notify_ = std::move(handler);
  }

  /// Takes over every handler registration from `other` (which is left
  /// with none).  A migrating process moves its service surface to the new
  /// endpoint this way; the captured lambdas keep pointing at the owning
  /// component, which survives the move.
  void adopt_handlers(RpcEndpoint& other) {
    handlers_ = std::move(other.handlers_);
    async_handlers_ = std::move(other.async_handlers_);
    notify_handlers_ = std::move(other.notify_handlers_);
    other.handlers_.clear();
    other.async_handlers_.clear();
    other.notify_handlers_.clear();
    other.default_handler_ = nullptr;
    other.default_notify_ = nullptr;
  }
  /// Registers a handler for one-way notifications with tag `tag`.
  void on_notify(std::uint32_t tag, NotifyHandler handler) {
    notify_handlers_[tag] = std::move(handler);
  }

  /// Issues a request; `done` fires exactly once with the response body,
  /// a server-reported error, or Errc::timeout.  Returns the transport flow
  /// id of the request message so callers can link their own trace steps to
  /// the causal flow (`trace <id>` on the console); 0 while flows are not
  /// recorded.  The body's segments are spliced into the request by
  /// reference.  A `done` written against Result<Bytes> is accepted too and
  /// gets the response flattened.
  template <typename F>
  std::uint64_t call(const simnet::Address& dst, std::uint32_t tag, Payload body, F done,
                     SimDuration timeout = 0) {
    if constexpr (std::is_invocable_v<F&, Result<Payload>>) {
      return send_call(dst, tag, std::move(body), std::move(done), timeout);
    } else {
      return send_call(
          dst, tag, std::move(body),
          [d = std::move(done)](Result<Payload> r) mutable {
            d(r.ok() ? Result<Bytes>(r.value().to_bytes()) : Result<Bytes>(r.error()));
          },
          timeout);
    }
  }

  /// Fire-and-forget (still reliably transported) notification.  Returns
  /// the flow id of the carrying message, same as call().
  std::uint64_t notify(const simnet::Address& dst, std::uint32_t tag, Payload body);

  simnet::Address address() const { return srudp_.address(); }
  simnet::Host& host() { return srudp_.host(); }
  simnet::Engine& engine() { return engine_; }
  SrudpEndpoint& srudp() { return srudp_; }
  const RpcStats& stats() const { return stats_; }

 private:
  using Kind = RpcKind;

  std::uint64_t send_call(const simnet::Address& dst, std::uint32_t tag, Payload body,
                          ResponseHandler done, SimDuration timeout);
  void on_message(const simnet::Address& src, Payload msg);
  void send_reply(const simnet::Address& src, std::uint64_t id, std::uint32_t tag,
                  Result<Payload> result);
  /// The frame for `kind`, `id`, `tag` and `body`; requests and
  /// notifications (`with_auth`) append the authenticator blob.
  Payload frame(Kind kind, std::uint64_t id, std::uint32_t tag, Payload body,
                bool with_auth) const;
  Bytes authenticator(const Payload& body) const;

  SrudpEndpoint srudp_;
  simnet::Engine& engine_;
  RpcConfig config_;
  std::map<std::uint32_t, RequestHandler> handlers_;
  std::map<std::uint32_t, AsyncRequestHandler> async_handlers_;
  std::map<std::uint32_t, NotifyHandler> notify_handlers_;
  DefaultRequestHandler default_handler_;
  DefaultNotifyHandler default_notify_;
  struct PendingCall {
    ResponseHandler done;
    simnet::TimerId timeout;
    simnet::Address dst;  ///< for the timeout error
    std::uint32_t tag = 0;
    std::uint64_t flow = 0;  ///< the request's trace flow id (0 untraced)
  };
  std::map<std::uint64_t, PendingCall> pending_;
  std::uint64_t next_call_id_ = 1;
  RpcStats stats_;
  Logger log_;
  /// "rpc.*" in the host's registry; declared after stats_ so it retires
  /// before the fields it reads are destroyed.
  obs::SourceHandle stats_source_;
};

}  // namespace snipe::transport
