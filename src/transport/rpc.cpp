#include "transport/rpc.hpp"

#include "obs/trace.hpp"
#include "util/codec.hpp"

namespace snipe::transport {

RpcEndpoint::RpcEndpoint(simnet::Host& host, std::uint16_t port, RpcConfig config)
    : srudp_(host, port),
      engine_(host.engine()),
      config_(std::move(config)),
      log_("rpc@" + host.name() + ":" + std::to_string(srudp_.port()), host.clock()) {
  srudp_.set_handler([this](const simnet::Address& src, Payload msg) {
    on_message(src, std::move(msg));
  });
  stats_source_ = host.metrics().add_stats([this](obs::StatsSink& s) {
    s.add("rpc.calls_sent", stats_.calls_sent);
    s.add("rpc.calls_ok", stats_.calls_ok);
    s.add("rpc.calls_timeout", stats_.calls_timeout);
    s.add("rpc.calls_error", stats_.calls_error);
    s.add("rpc.requests_served", stats_.requests_served);
    s.add("rpc.requests_rejected_auth", stats_.requests_rejected_auth);
    s.add("rpc.notifications_sent", stats_.notifications_sent);
    s.add("rpc.notifications_received", stats_.notifications_received);
  });
}

namespace {
/// An error reply's body: the code, then the message.
Payload error_body(const Error& e) {
  return encode_payload(static_cast<std::uint8_t>(e.code), e.message);
}
}  // namespace

Bytes RpcEndpoint::authenticator(const Payload& body) const {
  if (config_.shared_secret.empty()) return {};
  crypto::Md5 keyed;  // md5(secret || body), streamed over the body's segments
  keyed.update(config_.shared_secret);
  keyed.update(body);
  auto digest = keyed.finish();
  return Bytes(digest.begin(), digest.end());
}

Payload RpcEndpoint::frame(Kind kind, std::uint64_t id, std::uint32_t tag, Payload body,
                           bool with_auth) const {
  RpcFrame f{kind, id, tag, std::move(body), {}};
  if (with_auth) f.auth = authenticator(f.body);
  return encode_payload(f);
}

std::uint64_t RpcEndpoint::send_call(const simnet::Address& dst, std::uint32_t tag, Payload body,
                                     ResponseHandler done, SimDuration timeout) {
  if (timeout <= 0) timeout = kDefaultTimeout;
  std::uint64_t id = next_call_id_++;
  Payload request = frame(Kind::request, id, tag, std::move(body), true);

  ++stats_.calls_sent;
  auto timer = engine_.schedule(timeout, [this, id] {
    auto it = pending_.find(id);
    if (it == pending_.end()) return;
    PendingCall call = std::move(it->second);
    pending_.erase(it);
    ++stats_.calls_timeout;
    call.done(Error{Errc::timeout,
                    "rpc tag " + std::to_string(call.tag) + " to " + call.dst.to_string()});
  });
  // Link the rpc layer into the request message's transport flow; the
  // reply's completion joins the same flow.
  srudp_.send(dst, std::move(request));
  const std::uint64_t flow = srudp_.last_sent_flow();
  pending_[id] = PendingCall{std::move(done), timer, dst, tag, flow};
  if (flow != 0)
    host().tracer().flow(engine_.now(), obs::TraceEvent::Phase::flow_step, "flow", "rpc.call",
                         flow, {{"tag", std::to_string(tag)}, {"id", std::to_string(id)}});
  return flow;
}

std::uint64_t RpcEndpoint::notify(const simnet::Address& dst, std::uint32_t tag, Payload body) {
  ++stats_.notifications_sent;
  srudp_.send(dst, frame(Kind::oneway, 0, tag, std::move(body), true));
  return srudp_.last_sent_flow();
}

void RpcEndpoint::send_reply(const simnet::Address& src, std::uint64_t id, std::uint32_t tag,
                             Result<Payload> result) {
  srudp_.send(src, result.ok()
                       ? frame(Kind::response, id, tag, std::move(result).take(), false)
                       : frame(Kind::error, id, tag, error_body(result.error()), false));
}

void RpcEndpoint::on_message(const simnet::Address& src, Payload msg) {
  // The message may have several segments; the body comes back as a
  // zero-copy slice of them.
  auto frame = decode<RpcFrame>(msg);
  if (!frame) {
    log_.warn("malformed rpc message from ", src.to_string());
    return;
  }
  const Kind kind = frame.value().kind;
  const std::uint64_t id = frame.value().id;
  const std::uint32_t tag = frame.value().tag;
  Payload& body = frame.value().body;

  if (kind == Kind::request || kind == Kind::oneway) {
    // We are inside srudp's delivery handler, so the transport exposes the
    // flow id of the message being delivered — link rpc dispatch into it.
    if (srudp_.last_delivered_flow() != 0)
      host().tracer().flow(
          engine_.now(), obs::TraceEvent::Phase::flow_step, "flow", "rpc.serve",
          srudp_.last_delivered_flow(),
          {{"tag", std::to_string(tag)}, {"id", std::to_string(id)}});
    if (!config_.shared_secret.empty() && frame.value().auth != authenticator(body)) {
      ++stats_.requests_rejected_auth;
      log_.warn("rejecting request from ", src.to_string(), ": bad authenticator");
      if (kind == Kind::request)
        send_reply(src, id, tag,
                   Error{Errc::permission_denied, "bad authenticator"});
      return;
    }
    if (kind == Kind::oneway) {
      ++stats_.notifications_received;
      auto it = notify_handlers_.find(tag);
      if (it != notify_handlers_.end()) {
        it->second(src, body);
      } else if (default_notify_) {
        default_notify_(src, tag, body);
      }
      return;
    }
    ++stats_.requests_served;
    if (auto ait = async_handlers_.find(tag); ait != async_handlers_.end()) {
      ait->second(src, body, [this, src, id, tag](Result<Payload> result) {
        send_reply(src, id, tag, std::move(result));
      });
      return;
    }
    auto it = handlers_.find(tag);
    if (it == handlers_.end() && default_handler_) {
      default_handler_(src, tag, body, [this, src, id, tag](Result<Payload> result) {
        send_reply(src, id, tag, std::move(result));
      });
      return;
    }
    Result<Payload> result =
        it == handlers_.end()
            ? Result<Payload>(Errc::not_found, "no handler for tag " + std::to_string(tag))
            : it->second(src, body);
    send_reply(src, id, tag, std::move(result));
    return;
  }

  // Response or error to one of our calls.
  auto it = pending_.find(id);
  if (it == pending_.end()) return;  // late response after timeout
  if (it->second.flow != 0)
    host().tracer().flow(
        engine_.now(), obs::TraceEvent::Phase::flow_step, "flow", "rpc.complete",
        it->second.flow,
        {{"tag", std::to_string(tag)}, {"id", std::to_string(id)}});
  engine_.cancel(it->second.timeout);
  auto handler = std::move(it->second.done);
  pending_.erase(it);
  if (kind == Kind::response) {
    ++stats_.calls_ok;
    handler(std::move(body));
  } else {
    ++stats_.calls_error;
    auto error = decode<std::pair<std::uint8_t, std::string>>(body);
    handler(error ? Error{static_cast<Errc>(error.value().first), error.value().second}
                  : Error{Errc::corrupt, "malformed error"});
  }
}

}  // namespace snipe::transport
