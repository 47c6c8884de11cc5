#include "transport/rpc.hpp"

#include "obs/trace.hpp"

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
/// Body segments shorter than this are copied into the frame's pooled
/// header chunk instead of spliced by reference: a small control body then
/// costs no segment, and a frame stays within Payload's two inline
/// segments (a third spills to the heap) unless its body carries bulk data.
constexpr std::size_t kSpliceMin = 512;

void put_body(PayloadWriter& w, const Payload& body) {
  w.u32(static_cast<std::uint32_t>(body.size()));
  for (std::size_t i = 0; i < body.segment_count(); ++i) {
    const Payload::Segment& s = body.segment(i);
    if (s.len < kSpliceMin)
      w.raw(s.data(), s.len);
    else
      w.append(Payload(s.buf, s.off, s.len));
  }
}

/// An error reply's body: u8 code, str message.
Payload error_body(const Error& e) {
  PayloadWriter w;
  w.u8(static_cast<std::uint8_t>(e.code));
  w.str(e.message);
  return std::move(w).take();
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

Payload RpcEndpoint::frame(Kind kind, std::uint64_t id, std::uint32_t tag, const Payload& body,
                           bool with_auth) const {
  PayloadWriter w;
  w.u8(static_cast<std::uint8_t>(kind));
  w.u64(id);
  w.u32(tag);
  put_body(w, body);
  if (with_auth) w.blob(authenticator(body));
  return std::move(w).take();
}

std::uint64_t RpcEndpoint::send_call(const simnet::Address& dst, std::uint32_t tag, Payload body,
                                     ResponseHandler done, SimDuration timeout) {
  if (timeout <= 0) timeout = kDefaultTimeout;
  std::uint64_t id = next_call_id_++;
  Payload request = frame(Kind::request, id, tag, body, true);

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
  srudp_.send(dst, frame(Kind::oneway, 0, tag, body, true));
  return srudp_.last_sent_flow();
}

void RpcEndpoint::send_reply(const simnet::Address& src, std::uint64_t id, std::uint32_t tag,
                             const Result<Payload>& result) {
  srudp_.send(src, result.ok() ? frame(Kind::response, id, tag, result.value(), false)
                               : frame(Kind::error, id, tag, error_body(result.error()), false));
}

void RpcEndpoint::on_message(const simnet::Address& src, Payload msg) {
  // The message may have several segments; the cursor's blob() hands the
  // body over as a zero-copy slice of them.
  PayloadCursor r(msg);
  auto kind_raw = r.u8();
  auto id = r.u64();
  auto tag = r.u32();
  auto body = r.blob();
  if (!kind_raw || !id || !tag || !body) {
    log_.warn("malformed rpc message from ", src.to_string());
    return;
  }
  Kind kind = static_cast<Kind>(kind_raw.value());

  if (kind == Kind::request || kind == Kind::oneway) {
    // We are inside srudp's delivery handler, so the transport exposes the
    // flow id of the message being delivered — link rpc dispatch into it.
    if (srudp_.last_delivered_flow() != 0)
      host().tracer().flow(
          engine_.now(), obs::TraceEvent::Phase::flow_step, "flow", "rpc.serve",
          srudp_.last_delivered_flow(),
          {{"tag", std::to_string(tag.value())}, {"id", std::to_string(id.value())}});
    auto auth = r.blob();
    if (!auth) return;
    if (!config_.shared_secret.empty() && auth.value() != authenticator(body.value())) {
      ++stats_.requests_rejected_auth;
      log_.warn("rejecting request from ", src.to_string(), ": bad authenticator");
      if (kind == Kind::request)
        send_reply(src, id.value(), tag.value(),
                   Error{Errc::permission_denied, "bad authenticator"});
      return;
    }
    if (kind == Kind::oneway) {
      ++stats_.notifications_received;
      auto it = notify_handlers_.find(tag.value());
      if (it != notify_handlers_.end()) {
        it->second(src, body.value());
      } else if (default_notify_) {
        default_notify_(src, tag.value(), body.value());
      }
      return;
    }
    ++stats_.requests_served;
    if (auto ait = async_handlers_.find(tag.value()); ait != async_handlers_.end()) {
      std::uint64_t req_id = id.value();
      std::uint32_t req_tag = tag.value();
      ait->second(src, body.value(), [this, src, req_id, req_tag](Result<Payload> result) {
        send_reply(src, req_id, req_tag, result);
      });
      return;
    }
    auto it = handlers_.find(tag.value());
    if (it == handlers_.end() && default_handler_) {
      std::uint64_t req_id = id.value();
      std::uint32_t req_tag = tag.value();
      default_handler_(src, req_tag, body.value(),
                       [this, src, req_id, req_tag](Result<Payload> result) {
                         send_reply(src, req_id, req_tag, result);
                       });
      return;
    }
    Result<Payload> result =
        it == handlers_.end()
            ? Result<Payload>(Errc::not_found, "no handler for tag " + std::to_string(tag.value()))
            : it->second(src, body.value());
    send_reply(src, id.value(), tag.value(), result);
    return;
  }

  // Response or error to one of our calls.
  auto it = pending_.find(id.value());
  if (it == pending_.end()) return;  // late response after timeout
  if (it->second.flow != 0)
    host().tracer().flow(
        engine_.now(), obs::TraceEvent::Phase::flow_step, "flow", "rpc.complete",
        it->second.flow,
        {{"tag", std::to_string(tag.value())}, {"id", std::to_string(id.value())}});
  engine_.cancel(it->second.timeout);
  auto handler = std::move(it->second.done);
  pending_.erase(it);
  if (kind == Kind::response) {
    ++stats_.calls_ok;
    handler(std::move(body).take());
  } else {
    ++stats_.calls_error;
    PayloadCursor er(body.value());
    auto code = er.u8();
    auto text = er.str();
    handler(Error{code ? static_cast<Errc>(code.value()) : Errc::corrupt,
                  text ? text.value() : "malformed error"});
  }
}

}  // namespace snipe::transport
