#include "transport/srudp.hpp"

#include <algorithm>
#include <cassert>

namespace snipe::transport {

namespace {
constexpr std::size_t kMinFragPayload = 256;
}

SrudpEndpoint::SrudpEndpoint(simnet::Host& host, std::uint16_t port, SrudpConfig config)
    : host_(host),
      engine_(host.engine()),
      port_(port == 0 ? host.ephemeral_port() : port),
      config_(config),
      log_("srudp@" + host.name() + ":" + std::to_string(port_), host.clock()) {
  // Fragment to the smallest MTU among all attached interfaces so a mid-
  // message route switch never produces an oversize datagram.
  std::size_t budget = 65535;
  for (const auto& nic : host_.nics())
    budget = std::min(budget, nic->network()->model().mtu);
  assert(!host_.nics().empty() && "SRUDP endpoint on an unattached host");
  // Clamp before subtracting: an MTU at or below the header size would
  // otherwise wrap the unsigned difference to a huge fragment budget.
  std::size_t header = config_.checksum ? kDataCkHeaderBytes : kDataHeaderBytes;
  frag_payload_ = std::max(kMinFragPayload, budget - std::min(budget, header));
  host_.bind(port_, [this](const simnet::Packet& p) { on_packet(p); }).value();

  obs::MetricsRegistry& registry = host_.metrics();
  rtt_ms_ = &registry.histogram("srudp.rtt_ms");
  delivery_ms_ = &registry.histogram("srudp.delivery_ms");
  stats_source_ = registry.add_stats([this](obs::StatsSink& s) {
    s.add("srudp.messages_sent", stats_.messages_sent);
    s.add("srudp.messages_delivered", stats_.messages_delivered);
    s.add("srudp.messages_expired", stats_.messages_expired);
    s.add("srudp.messages_skipped", stats_.messages_skipped);
    s.add("srudp.fragments_sent", stats_.fragments_sent);
    s.add("srudp.retransmits", stats_.fragments_retransmitted);
    s.add("srudp.duplicate_fragments", stats_.duplicate_fragments);
    s.add("srudp.status_sent", stats_.status_sent);
    s.add("srudp.rto_events", stats_.rto_events);
    s.add("srudp.bytes_delivered", stats_.bytes_delivered);
    s.add("srudp.route_switches", stats_.route_switches);
    s.add("srudp.route_probes", stats_.route_probes);
    s.add("srudp.checksum_rejects", stats_.checksum_rejects);
  });
}

SrudpEndpoint::~SrudpEndpoint() {
  host_.unbind(port_);
  for (auto& [peer, out] : out_) engine_.cancel(out.rto_timer);
  for (auto& [peer, in] : in_) {
    engine_.cancel(in.hol_timer);
    for (auto& [id, msg] : in.partial) engine_.cancel(msg.status_timer);
  }
}

SrudpEndpoint::PeerOut& SrudpEndpoint::ensure_out(Peer peer) {
  auto [it, inserted] = out_.try_emplace(peer);
  if (inserted)
    it->second.path = MultipathPolicy(config_.failover_threshold, kRouteProbeQuiet);
  return it->second;
}

void SrudpEndpoint::note_route_success(Peer peer, PeerOut& out) {
  if (out.path.on_success(engine_.now())) {
    ++stats_.route_probes;
    host_.flight().record("multipath", "route_probe", "peer=" + peer.to_string());
    log_.debug("re-probing default route to ", peer.to_string());
  }
}

std::uint64_t SrudpEndpoint::flow_id(Peer peer, bool inbound, std::uint64_t msg_id) const {
  if (!host_.tracer().flow_enabled()) return 0;
  const std::string_view self = host_.name();
  const std::string_view other = peer.host ? std::string_view(peer.host->name()) : "?";
  return mint_flow(inbound ? other : self, inbound ? peer.port : port_, inbound ? self : other,
                   inbound ? port_ : peer.port, msg_id);
}

std::uint64_t SrudpEndpoint::send(const simnet::Address& dst, Payload message) {
  const Peer peer = host_.world()->endpoint(dst);
  auto& out = ensure_out(peer);

  OutMessage msg;
  msg.msg_id = out.next_msg_id++;
  msg.enqueued = engine_.now();
  msg.frag_count = message.empty()
                       ? 1
                       : static_cast<std::uint32_t>((message.size() + frag_payload_ - 1) /
                                                    frag_payload_);
  msg.data = std::move(message);
  msg.acked = FragBitmap(msg.frag_count);
  msg.deadline = engine_.now() + config_.msg_ttl;
  std::uint64_t msg_id = msg.msg_id;
  auto& tracer = host_.tracer();
  last_sent_flow_ = flow_id(peer, /*inbound=*/false, msg_id);
  if (last_sent_flow_ != 0) {
    tracer.flow(engine_.now(), obs::TraceEvent::Phase::flow_start, "flow", "srudp.send",
                last_sent_flow_, {{"peer", dst.to_string()}, {"msg", std::to_string(msg_id)},
                                  {"bytes", std::to_string(msg.data.size())}});
    tracer.flow(engine_.now(), obs::TraceEvent::Phase::flow_step, "flow", "srudp.frag",
                last_sent_flow_, {{"frags", std::to_string(msg.frag_count)}});
  }
  if (peer.host == nullptr)
    log_.debug("no host named ", dst.host, ": message ", msg_id, " will expire unsent");
  out.queue.push_back(std::move(msg));
  ++stats_.messages_sent;
  // pump() may expire the message just queued (a zero/tiny msg_ttl) or any
  // other head, so out.queue.back() is not safe to touch afterwards.
  pump(peer);
  return msg_id;
}

std::size_t SrudpEndpoint::pending() const {
  std::size_t n = 0;
  for (const auto& [peer, out] : out_) n += out.queue.size();
  return n;
}

void SrudpEndpoint::pump(Peer peer) {
  auto it = out_.find(peer);
  if (it == out_.end()) return;
  PeerOut& out = it->second;

  // Drop messages whose TTL passed (front of queue first; ordering means
  // later messages cannot have expired earlier).
  while (!out.queue.empty() && out.queue.front().deadline <= engine_.now())
    expire_head(peer, out);

  for (auto& msg : out.queue) {
    // Requested retransmissions first, oldest request first: they unblock
    // the receiver.
    std::size_t resent = 0;
    while (out.inflight < kWindow && resent < msg.retransmit.size()) {
      std::uint32_t index = msg.retransmit[resent++];
      if (msg.acked.get(index)) continue;  // acked since the request
      send_fragment(peer, out, msg, index, /*retransmission=*/true);
    }
    msg.retransmit.erase(msg.retransmit.begin(),
                         msg.retransmit.begin() + static_cast<std::ptrdiff_t>(resent));
    while (out.inflight < kWindow && msg.next_unsent < msg.frag_count) {
      send_fragment(peer, out, msg, msg.next_unsent, /*retransmission=*/false);
      ++msg.next_unsent;
    }
    if (out.inflight >= kWindow) break;
  }
  // The retransmission timer runs whenever anything is unacknowledged, even
  // if the inflight *estimate* reads zero — it is our only recovery path
  // when every ack was lost.
  if (!out.queue.empty()) arm_rto(peer);
}

void SrudpEndpoint::send_fragment(Peer peer, PeerOut& out, OutMessage& msg,
                                  std::uint32_t index, bool retransmission) {
  DataPacket p;
  p.msg_id = msg.msg_id;
  p.frag_index = index;
  p.frag_count = msg.frag_count;
  p.total_len = static_cast<std::uint32_t>(msg.data.size());
  std::size_t begin = static_cast<std::size_t>(index) * frag_payload_;
  std::size_t end = std::min(msg.data.size(), begin + frag_payload_);
  // A fragment is a *slice* of the message buffer, not a copy of it.
  if (begin < end) p.payload = msg.data.slice(begin, end - begin);

  if (msg.first_sent < 0) msg.first_sent = engine_.now();
  if (retransmission) {
    msg.retransmitted = true;
    ++stats_.fragments_retransmitted;
  }
  ++stats_.fragments_sent;
  auto& tracer = host_.tracer();
  if (tracer.flow_enabled()) {
    const std::string& path = out.path.preferred_name();
    tracer.flow(engine_.now(), obs::TraceEvent::Phase::flow_step, "flow",
                retransmission ? "srudp.retransmit" : "srudp.tx",
                flow_id(peer, /*inbound=*/false, msg.msg_id),
                {{"frag", std::to_string(index)}, {"path", path.empty() ? "auto" : path}});
  }
  ++out.inflight;
  raw_send(peer, &out, encode_packet(PacketType::data, p, config_.checksum));
}

void SrudpEndpoint::raw_send(Peer peer, PeerOut* out, Payload wire) {
  simnet::SendOptions opts;
  opts.src_port = port_;
  if (out != nullptr) opts.preferred_network = out->path.preferred();
  auto r = host_.send(peer.host, peer.port, std::move(wire), opts);
  if (!r) log_.trace("send to ", peer.to_string(), " failed: ", r.error().to_string());
}

void SrudpEndpoint::arm_rto(Peer peer) {
  PeerOut& out = ensure_out(peer);
  if (out.rto_timer.valid()) return;
  out.rto_timer = engine_.schedule(out.rtt.rto(), [this, peer] {
    out_[peer].rto_timer = simnet::TimerId{};
    on_rto(peer);
  });
}

void SrudpEndpoint::on_rto(Peer peer) {
  auto it = out_.find(peer);
  if (it == out_.end()) return;
  PeerOut& out = it->second;
  while (!out.queue.empty() && out.queue.front().deadline <= engine_.now())
    expire_head(peer, out);
  if (out.queue.empty()) return;

  ++stats_.rto_events;
  host_.flight().record(
      "srudp", "rto",
      "peer=" + peer.to_string() + " rto=" + format_time(out.rtt.rto()) +
          " queued=" + std::to_string(out.queue.size()));
  // The window's worth of fragments we sent may all be gone; reset the
  // inflight estimate, re-probe, and let STATUS rebuild our picture.
  out.inflight = 0;
  if (out.path.on_timeout(host_)) {
    ++stats_.route_switches;
    auto& tracer = host_.tracer();
    if (out.failover_span == 0)
      out.failover_span = tracer.begin_span(engine_.now(), "transport", "srudp.failover");
    tracer.instant(engine_.now(), "transport", "srudp.route_switch",
                   {{"peer", peer.to_string()}, {"to", out.path.preferred_name()}});
    // The route choice is per-peer; attribute it to the head message's flow
    // so the switch shows up inside the affected cross-host trace.
    if (tracer.flow_enabled())
      tracer.flow(engine_.now(), obs::TraceEvent::Phase::flow_step, "flow",
                  "srudp.route_switch",
                  flow_id(peer, /*inbound=*/false, out.queue.front().msg_id),
                  {{"to", out.path.preferred_name()}});
    host_.flight().record(
        "srudp", "route_switch",
        "peer=" + peer.to_string() + " to=" + out.path.preferred_name());
    log_.debug("route to ", peer.to_string(), " switched to ", out.path.preferred_name());
  }
  // Resend every sent-but-unacked fragment of every queued message (up to
  // one window).  Covering all messages matters: a later short message
  // whose single fragment was lost leaves no trace at the receiver (so no
  // STATUS can name it) and must not starve behind the head.  Tail loss of
  // the head is covered the same way.  A probe for the head asks the
  // receiver to resynchronize us with a STATUS.
  for (auto& msg : out.queue) {
    if (out.inflight >= kWindow) break;
    for (std::uint32_t i = 0; i < msg.next_unsent && out.inflight < kWindow; ++i) {
      if (!msg.acked.get(i))
        send_fragment(peer, out, msg, i, /*retransmission=*/true);
    }
  }
  raw_send(peer, &out,
           encode_packet(PacketType::probe, MsgIdPacket{out.queue.front().msg_id},
                         config_.checksum));
  out.rtt.backoff();
  arm_rto(peer);
}

void SrudpEndpoint::expire_head(Peer peer, PeerOut& out) {
  log_.warn("message ", out.queue.front().msg_id, " to ", peer.to_string(),
            " expired unacknowledged");
  host_.tracer().instant(
      engine_.now(), "transport", "srudp.expire",
      {{"peer", peer.to_string()}, {"msg", std::to_string(out.queue.front().msg_id)}});
  host_.flight().record(
      "srudp", "expire",
      "peer=" + peer.to_string() + " msg=" + std::to_string(out.queue.front().msg_id));
  out.queue.pop_front();
  out.inflight = 0;  // conservative: counted fragments belonged to the head
  ++stats_.messages_expired;
}

void SrudpEndpoint::on_packet(const simnet::Packet& packet) {
  auto head = decode_head(packet.payload);
  if (!head) return;
  const Peer peer{packet.src, packet.src_port};
  // A packet whose checksum fails is dropped whole, control packets too: a
  // corrupted MSG_ACK id must not retire another message.  Selective
  // re-send recovers it like any other loss.
  auto verified = [&](const auto& p) {
    if (!p) return false;
    if (p.value().checksum_ok) return true;
    ++stats_.checksum_rejects;
    host_.flight().record(
        "srudp", "checksum_reject",
        "peer=" + peer.to_string() + " msg=" + std::to_string(p.value().msg_id));
    return false;
  };
  switch (head.value().type) {
    case PacketType::data:
    case PacketType::data_ck: {
      auto p = decode_packet<DataPacket>(packet.payload);
      if (verified(p)) on_data(peer, p.value());
      break;
    }
    case PacketType::status:
    case PacketType::status_ck: {
      auto p = decode_packet<StatusPacket>(packet.payload);
      if (verified(p)) on_status(peer, p.value());
      break;
    }
    case PacketType::msg_ack:
    case PacketType::msg_ack_ck: {
      auto p = decode_packet<MsgIdPacket>(packet.payload);
      if (verified(p)) on_msg_ack(peer, p.value().msg_id);
      break;
    }
    case PacketType::probe:
    case PacketType::probe_ck: {
      auto p = decode_packet<MsgIdPacket>(packet.payload);
      if (verified(p)) on_probe(peer, p.value().msg_id);
      break;
    }
    default:
      log_.trace("ignoring non-SRUDP packet type ",
                 static_cast<int>(head.value().type));
  }
}

void SrudpEndpoint::on_data(Peer peer, const DataPacket& p) {
  PeerIn& in = in_[peer];
  if (p.msg_id < in.next_deliver) {
    // Already delivered (or skipped): the MSG_ACK was lost; repeat it.
    raw_send(peer, nullptr,
             encode_packet(PacketType::msg_ack, MsgIdPacket{p.msg_id}, config_.checksum));
    ++stats_.duplicate_fragments;
    return;
  }
  if (in.complete.count(p.msg_id)) {
    raw_send(peer, nullptr,
             encode_packet(PacketType::msg_ack, MsgIdPacket{p.msg_id}, config_.checksum));
    ++stats_.duplicate_fragments;
    return;
  }

  auto it = in.partial.find(p.msg_id);
  if (it != in.partial.end() &&
      (it->second.frag_count != p.frag_count || it->second.total_len != p.total_len)) {
    log_.warn("inconsistent fragment metadata for msg ", p.msg_id, " from ",
              peer.to_string());
    return;
  }
  auto& tracer = host_.tracer();
  if (tracer.flow_enabled())
    tracer.flow(engine_.now(), obs::TraceEvent::Phase::flow_step, "flow", "srudp.rx",
                flow_id(peer, /*inbound=*/true, p.msg_id),
                {{"frag", std::to_string(p.frag_index)}});
  if (it == in.partial.end()) {
    if (p.frag_count == 1) {
      // A single-fragment message is complete on arrival: no reassembly state.
      on_complete(peer, in, p.msg_id, p.payload, p.total_len);
      return;
    }
    it = in.partial.try_emplace(p.msg_id).first;
    InMessage& fresh = it->second;
    fresh.frag_count = p.frag_count;
    fresh.total_len = p.total_len;
    fresh.frags.resize(p.frag_count);
    fresh.have = FragBitmap(p.frag_count);
  }
  InMessage& msg = it->second;
  if (msg.have.get(p.frag_index)) {
    ++stats_.duplicate_fragments;
  } else {
    msg.have.set(p.frag_index);
    msg.frags[p.frag_index] = p.payload;
    ++msg.have_count;
    msg.last_progress = engine_.now();
    while (msg.prefix < msg.frag_count && msg.have.get(msg.prefix)) ++msg.prefix;
  }
  ++msg.since_status;

  if (msg.have_count == msg.frag_count) {
    // Complete: splice the fragment slices back together.  On a clean path
    // they are adjacent windows of the sender's original buffer, so append
    // coalesces them into one segment and no bytes move at all.
    Payload assembled;
    for (auto& frag : msg.frags) assembled.append(std::move(frag));
    engine_.cancel(msg.status_timer);
    in.partial.erase(it);
    on_complete(peer, in, p.msg_id, std::move(assembled), p.total_len);
    return;
  }

  // Cross-message gap detection: fragments of message N arriving while an
  // *older* message is still incomplete mean the older message's missing
  // fragments were lost (delivery is ordered per peer, so the sender has
  // moved on).  Report their bitmaps promptly — without this, a link
  // failure that kills a whole batch of in-flight messages would wait out
  // the periodic status backoff, because the sender's RTO keeps being
  // refreshed by the progress of newer messages.
  for (auto& [older_id, older] : in.partial) {
    if (older_id >= p.msg_id) break;
    if (older.last_status_sent >= 0 &&
        engine_.now() - older.last_status_sent < kStatusInterval / 2)
      continue;  // rate-limit repeats
    send_status(peer, older_id, older);
    older.last_status_sent = engine_.now();
  }

  // Incomplete.  Two triggers for a STATUS report: enough new fragments to
  // slide the sender's window, or a detected gap (selective re-send).
  if (msg.since_status >= kStatusEvery) {
    send_status(peer, p.msg_id, msg);
    msg.last_status_sent = engine_.now();
    msg.since_status = 0;
    return;
  }
  // A gap: some fragment below this one is still missing.
  const bool gap = msg.prefix < p.frag_index;
  if (!msg.status_timer.valid())
    schedule_status(peer, p.msg_id, gap ? kGapStatusDelay : kStatusInterval);
}

void SrudpEndpoint::on_complete(Peer peer, PeerIn& in, std::uint64_t msg_id, Payload assembled,
                                std::uint32_t total_len) {
  if (assembled.size() != total_len) {
    log_.warn("reassembled length mismatch for msg ", msg_id);
    return;
  }
  auto& tracer = host_.tracer();
  if (tracer.flow_enabled())
    tracer.flow(engine_.now(), obs::TraceEvent::Phase::flow_step, "flow", "srudp.reassemble",
                flow_id(peer, /*inbound=*/true, msg_id),
                {{"msg", std::to_string(msg_id)}, {"bytes", std::to_string(assembled.size())}});
  raw_send(peer, nullptr,
           encode_packet(PacketType::msg_ack, MsgIdPacket{msg_id}, config_.checksum));
  if (msg_id == in.next_deliver)
    deliver(peer, in, std::move(assembled));
  else
    in.complete[msg_id] = std::move(assembled);
  try_deliver(peer, in);
}

void SrudpEndpoint::schedule_status(Peer peer, std::uint64_t msg_id,
                                    SimDuration delay) {
  PeerIn& in = in_[peer];
  auto it = in.partial.find(msg_id);
  if (it == in.partial.end()) return;
  it->second.status_timer = engine_.schedule(delay, [this, peer, msg_id] {
    auto pit = in_.find(peer);
    if (pit == in_.end()) return;
    auto mit = pit->second.partial.find(msg_id);
    if (mit == pit->second.partial.end()) return;
    InMessage& msg = mit->second;
    msg.status_timer = simnet::TimerId{};
    if (engine_.now() - msg.last_progress > config_.partial_ttl) {
      log_.warn("dropping stalled partial message ", msg_id, " from ", peer.to_string());
      pit->second.partial.erase(mit);
      return;
    }
    send_status(peer, msg_id, msg);
    msg.last_status_sent = engine_.now();
    msg.since_status = 0;
    // Periodic re-report with backoff while still incomplete.
    msg.status_backoff = std::min<SimDuration>(
        msg.status_backoff == 0 ? kStatusInterval : msg.status_backoff * 2,
        duration::seconds(1));
    schedule_status(peer, msg_id, msg.status_backoff);
  });
}

void SrudpEndpoint::send_status(Peer peer, std::uint64_t msg_id,
                                const InMessage& msg) {
  StatusPacket p;
  p.msg_id = msg_id;
  p.frag_count = msg.frag_count;
  p.bitmap = msg.have.to_bytes();
  ++stats_.status_sent;
  raw_send(peer, nullptr, encode_packet(PacketType::status, p, config_.checksum));
}

void SrudpEndpoint::deliver(Peer peer, PeerIn& in, Payload payload) {
  const std::uint64_t flow = flow_id(peer, /*inbound=*/true, in.next_deliver);
  if (flow != 0)
    host_.tracer().flow(engine_.now(), obs::TraceEvent::Phase::flow_end, "flow", "srudp.deliver",
                        flow, {{"peer", peer.to_string()},
                               {"msg", std::to_string(in.next_deliver)},
                               {"bytes", std::to_string(payload.size())}});
  ++in.next_deliver;
  ++stats_.messages_delivered;
  stats_.bytes_delivered += payload.size();
  last_delivered_flow_ = flow;
  if (handler_) handler_(peer.address(), std::move(payload));
  last_delivered_flow_ = 0;
}

void SrudpEndpoint::try_deliver(Peer peer, PeerIn& in) {
  while (!in.complete.empty()) {
    auto it = in.complete.find(in.next_deliver);
    if (it == in.complete.end()) break;
    Payload msg = std::move(it->second);
    in.complete.erase(it);
    deliver(peer, in, std::move(msg));
  }
  if (!in.complete.empty()) {
    arm_hol_skip(peer);
  } else if (in.hol_timer.valid()) {
    engine_.cancel(in.hol_timer);
    in.hol_timer = simnet::TimerId{};
  }
}

void SrudpEndpoint::arm_hol_skip(Peer peer) {
  PeerIn& in = in_[peer];
  if (in.hol_timer.valid()) return;
  in.hol_timer = engine_.schedule(config_.hol_skip, [this, peer] {
    PeerIn& in = in_[peer];
    in.hol_timer = simnet::TimerId{};
    if (in.complete.empty()) return;
    // The sender evidently abandoned the gap message(s); skip forward.
    std::uint64_t first_complete = in.complete.begin()->first;
    stats_.messages_skipped += first_complete - in.next_deliver;
    host_.flight().record(
        "srudp", "hol_skip",
        "peer=" + peer.to_string() + " msgs=" + std::to_string(in.next_deliver) + ".." +
            std::to_string(first_complete - 1));
    log_.warn("skipping undeliverable messages ", in.next_deliver, "..",
              first_complete - 1, " from ", peer.to_string());
    in.next_deliver = first_complete;
    try_deliver(peer, in);
  });
}

void SrudpEndpoint::on_status(Peer peer, const StatusPacket& p) {
  auto it = out_.find(peer);
  if (it == out_.end()) return;
  PeerOut& out = it->second;
  for (auto& msg : out.queue) {
    if (msg.msg_id != p.msg_id) continue;
    // Fragments above the highest index the receiver reports may simply
    // still be in flight; only holes *below* it are known losses (SACK-style
    // selective re-send).  Tail losses are covered by the RTO probe.
    std::int64_t highest = -1;
    for (std::uint32_t i = 0; i < msg.frag_count; ++i)
      if (bitmap_get(p.bitmap, i)) highest = i;
    std::vector<std::uint32_t> missing;
    std::uint32_t newly_acked = 0;
    for (std::uint32_t i = 0; i < msg.frag_count; ++i) {
      if (bitmap_get(p.bitmap, i)) {
        if (!msg.acked.get(i)) {
          msg.acked.set(i);
          ++msg.acked_count;
          ++newly_acked;
        }
      } else if ((static_cast<std::int64_t>(i) < highest || highest < 0) &&
                 i < msg.next_unsent && !msg.acked.get(i)) {
        // highest < 0: the receiver has nothing at all (it restarted or the
        // whole window was lost) — resend everything we had sent.
        missing.push_back(i);
      }
    }
    msg.retransmit = std::move(missing);
    out.inflight -= std::min<std::size_t>(out.inflight, newly_acked);
    if (newly_acked > 0) msg.implied_retx = false;  // progress re-arms the signal
    if (newly_acked > 0) {
      // Real progress: the current route works.  (A STATUS that acks
      // nothing is a receiver stall report and must NOT reset the failover
      // counter — it can arrive over a different interface than the one
      // our data is dying on.)  Restart the retransmission timer too.
      note_route_success(peer, out);
      if (out.failover_span != 0) {
        host_.tracer().end_span(engine_.now(), out.failover_span,
                                {{"route", out.path.preferred_name()}});
        out.failover_span = 0;
      }
      engine_.cancel(out.rto_timer);
      out.rto_timer = simnet::TimerId{};
    }
    pump(peer);
    return;
  }
  // Unknown message (already fully acked): nothing to do.
}

void SrudpEndpoint::on_msg_ack(Peer peer, std::uint64_t msg_id) {
  auto it = out_.find(peer);
  if (it == out_.end()) return;
  PeerOut& out = it->second;

  // Implied loss: the receiver completed message `msg_id`, so every fully
  // sent but unacknowledged *older* message must have lost fragments the
  // receiver cannot even name (it may never have seen any of them — e.g. a
  // link failure that swallowed the whole message).  Requeue their unacked
  // fragments once; without this, recovery of wholly-lost messages waits
  // on the RTO, which newer messages' progress keeps pushing out.
  bool queued_implied = false;
  for (auto& msg : out.queue) {
    if (msg.msg_id >= msg_id) break;
    if (msg.implied_retx || msg.next_unsent < msg.frag_count) continue;
    for (std::uint32_t i = 0; i < msg.frag_count; ++i)
      if (!msg.acked.get(i)) msg.retransmit.push_back(i);
    msg.implied_retx = true;
    queued_implied = true;
  }

  for (auto qit = out.queue.begin(); qit != out.queue.end(); ++qit) {
    if (qit->msg_id != msg_id) continue;
    // Sender-side delivery latency: send() to whole-message MSG_ACK.  This
    // needs no extra wire bytes and, unlike the RTT sample, deliberately
    // includes retransmitted messages — the health rollup's p99 should show
    // what loss recovery costs.
    delivery_ms_->observe(static_cast<double>(engine_.now() - qit->enqueued) / 1e6);
    // RTT sample per Karn's rule: only from never-retransmitted messages.
    if (!qit->retransmitted && qit->first_sent >= 0) {
      SimDuration sample = engine_.now() - qit->first_sent;
      rtt_ms_->observe(static_cast<double>(sample) / 1e6);
      out.rtt.sample(sample);
    }
    std::uint32_t unacked_inflight = 0;
    for (std::uint32_t i = 0; i < qit->frag_count; ++i)
      if (!qit->acked.get(i) && i < qit->next_unsent) ++unacked_inflight;
    out.inflight -= std::min<std::size_t>(out.inflight, unacked_inflight);
    out.queue.erase(qit);
    note_route_success(peer, out);
    if (out.failover_span != 0) {
      host_.tracer().end_span(engine_.now(), out.failover_span,
                              {{"route", out.path.preferred_name()}});
      out.failover_span = 0;
    }
    engine_.cancel(out.rto_timer);
    out.rto_timer = simnet::TimerId{};
    if (out.queue.empty()) {
      out.inflight = 0;
    } else {
      pump(peer);  // re-arms the timer
    }
    return;
  }
  // Duplicate ack for an already-retired message: if the implied-loss scan
  // queued retransmissions above, push them out now.
  if (queued_implied) pump(peer);
}

void SrudpEndpoint::on_probe(Peer peer, std::uint64_t msg_id) {
  PeerIn& in = in_[peer];
  if (msg_id < in.next_deliver || in.complete.count(msg_id)) {
    raw_send(peer, nullptr,
             encode_packet(PacketType::msg_ack, MsgIdPacket{msg_id}, config_.checksum));
    return;
  }
  auto it = in.partial.find(msg_id);
  if (it != in.partial.end()) {
    send_status(peer, msg_id, it->second);
    it->second.since_status = 0;
  } else {
    // Never seen: report an empty bitmap so the sender restarts the message.
    StatusPacket p;
    p.msg_id = msg_id;
    p.frag_count = 0;
    ++stats_.status_sent;
    raw_send(peer, nullptr, encode_packet(PacketType::status, p, config_.checksum));
  }
}

}  // namespace snipe::transport
