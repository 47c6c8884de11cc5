#include "transport/stream.hpp"

#include <algorithm>
#include <cassert>

#include "obs/trace.hpp"

namespace snipe::transport {

// ---------- StreamEndpoint ----------

StreamEndpoint::StreamEndpoint(simnet::Host& host, std::uint16_t port)
    : host_(host),
      engine_(host.engine()),
      port_(port == 0 ? host.ephemeral_port() : port),
      log_("stream@" + host.name() + ":" + std::to_string(port_), host.clock()) {
  host_.bind(port_, [this](const simnet::Packet& p) { on_packet(p); }).value();
}

StreamEndpoint::~StreamEndpoint() {
  host_.unbind(port_);
  for (auto& [key, conn] : connections_) {
    engine_.cancel(conn->rto_timer_);
    conn->state_ = StreamConnection::State::closed;
    conn->endpoint_ = nullptr;
  }
}

std::shared_ptr<StreamConnection> StreamEndpoint::connect(const simnet::Address& dst) {
  std::uint32_t conn_id = next_conn_id_++;
  // An unknown name interns to a null host: its SYNs fail to send and
  // retry with backoff, as they would towards a host that never answers.
  const simnet::Endpoint peer = host_.world()->endpoint(dst);
  auto conn = std::shared_ptr<StreamConnection>(
      new StreamConnection(this, peer, dst, conn_id, /*initiator=*/true));
  connections_[{peer, conn_id}] = conn;
  conn->start_connect();
  return conn;
}

void StreamEndpoint::on_packet(const simnet::Packet& packet) {
  auto head = decode_head(packet.payload);
  if (!head) return;
  auto type = head.value().type;
  if (type != PacketType::syn && type != PacketType::syn_ack && type != PacketType::ack &&
      type != PacketType::seg && type != PacketType::fin && type != PacketType::rst)
    return;
  auto p = decode_packet<StreamPacket>(packet.payload);
  if (!p) return;
  const ConnKey key{{packet.src, packet.src_port}, p.value().conn_id};
  auto it = connections_.find(key);
  if (it == connections_.end()) {
    if (type != PacketType::syn) return;  // stray packet for a dead conn
    auto conn = std::shared_ptr<StreamConnection>(new StreamConnection(
        this, key.peer, key.peer.address(), p.value().conn_id, /*initiator=*/false));
    connections_[key] = conn;
    conn->state_ = StreamConnection::State::syn_received;
    conn->rcv_nxt = 0;
    conn->peer_window_ = p.value().window;
    conn->send_control(PacketType::syn_ack);
    if (on_accept_) on_accept_(conn);
    return;
  }
  it->second->on_packet(type, p.value());
}

void StreamEndpoint::raw_send(simnet::Endpoint dst, Payload wire) {
  simnet::SendOptions opts;
  opts.src_port = port_;
  auto r = host_.send(dst.host, dst.port, std::move(wire), opts);
  if (!r) log_.trace("send failed: ", r.error().to_string());
}

// ---------- StreamConnection ----------

StreamConnection::StreamConnection(StreamEndpoint* endpoint, simnet::Endpoint peer,
                                   simnet::Address name, std::uint32_t conn_id, bool initiator)
    : endpoint_(endpoint),
      peer_ep_(peer),
      peer_(std::move(name)),
      conn_id_(conn_id),
      initiator_(initiator) {
  peer_window_ = kReceiveWindow;
  cwnd = static_cast<double>(kInitialCwndSegments) * static_cast<double>(mss());
  ssthresh = static_cast<double>(kReceiveWindow);

  delivery_ms_ = &endpoint_->host().metrics().histogram("stream.delivery_ms");
  stats_source_ = endpoint_->host().metrics().add_stats([this](obs::StatsSink& s) {
    s.add("stream.segments_sent", stats_.segments_sent);
    s.add("stream.segments_retransmitted", stats_.segments_retransmitted);
    s.add("stream.bytes_sent", stats_.bytes_sent);
    s.add("stream.messages_delivered", stats_.messages_delivered);
    s.add("stream.bytes_delivered", stats_.bytes_delivered);
    s.add("stream.rto_events", stats_.rto_events);
    s.add("stream.fast_retransmits", stats_.fast_retransmits);
  });
}

std::size_t StreamConnection::mss() const {
  std::size_t budget = 65535;
  for (const auto& nic : endpoint_->host().nics())
    budget = std::min(budget, nic->network()->model().mtu);
  return budget - kStreamHeaderBytes;
}

std::uint64_t StreamConnection::flow_id(bool inbound, std::uint64_t ordinal) const {
  if (!endpoint_->host().tracer().flow_enabled()) return 0;
  const std::string& self = endpoint_->host().name();
  const std::uint16_t port = endpoint_->port();
  return mint_flow(inbound ? peer_.host : self, inbound ? peer_.port : port,
                   inbound ? self : peer_.host, inbound ? port : peer_.port, ordinal);
}

void StreamConnection::start_connect() {
  state_ = State::syn_sent;
  send_control(PacketType::syn);
  arm_rto();
}

void StreamConnection::send_control(PacketType type) {
  StreamPacket p;
  p.conn_id = conn_id_;
  p.seq = snd_nxt;
  p.ack = rcv_nxt;
  p.window = static_cast<std::uint32_t>(kReceiveWindow);
  endpoint_->raw_send(peer_ep_, encode_packet(type, p));
}

void StreamConnection::send_message(Payload message) {
  const std::uint64_t ordinal = next_msg_seq_++;
  if (const std::uint64_t flow = flow_id(/*inbound=*/false, ordinal); flow != 0)
    endpoint_->host().tracer().flow(
        endpoint_->engine().now(), obs::TraceEvent::Phase::flow_start, "flow", "stream.send",
        flow, {{"peer", peer_.to_string()}, {"bytes", std::to_string(message.size())}});
  // Splice the frame header (pooled scratch) and the caller's message
  // buffer into one frame without copying either.
  Payload frame = encode_payload(message);
  send_end_ += frame.size();
  send_frames_.push_back(Frame{std::move(frame), send_end_, ordinal, endpoint_->engine().now()});
  if (state_ == State::established) pump();
}

void StreamConnection::pump() {
  if (state_ != State::established) return;
  std::uint64_t buffered_end = send_end_;
  std::uint64_t window_limit =
      snd_una + std::min<std::uint64_t>(static_cast<std::uint64_t>(cwnd), peer_window_);
  while (snd_nxt < buffered_end && snd_nxt < window_limit) {
    std::size_t len = std::min<std::uint64_t>(
        {static_cast<std::uint64_t>(mss()), buffered_end - snd_nxt, window_limit - snd_nxt});
    if (len == 0) break;
    send_segment(snd_nxt, len, /*retransmission=*/false);
    snd_nxt += len;
  }
  if (snd_una < snd_nxt) arm_rto();
}

void StreamConnection::send_segment(std::uint64_t seq, std::size_t len, bool retransmission) {
  StreamPacket p;
  p.conn_id = conn_id_;
  p.seq = seq;
  p.ack = rcv_nxt;
  p.window = static_cast<std::uint32_t>(kReceiveWindow);
  // Slice just the frames [seq, seq + len) spans; the first is the one
  // whose end lies past `seq` (frames are ascending by end).
  auto frame = std::partition_point(send_frames_.begin(), send_frames_.end(),
                                    [seq](const Frame& f) { return f.end <= seq; });
  const std::uint64_t ordinal = frame->ordinal;
  for (std::uint64_t at = seq, stop = seq + len; at < stop; ++frame) {
    const std::uint64_t take = std::min(stop, frame->end) - at;
    p.payload.append(frame->bytes.slice(static_cast<std::size_t>(at - frame->start()),
                                        static_cast<std::size_t>(take)));
    at += take;
  }

  if (retransmission) {
    ++stats_.segments_retransmitted;
    if (rtt_seq_ > seq) rtt_sent_at_ = -1;  // Karn: discard the probe
  } else if (rtt_sent_at_ < 0) {
    rtt_seq_ = seq + len;
    rtt_sent_at_ = endpoint_->engine().now();
  }
  ++stats_.segments_sent;
  stats_.bytes_sent += len;
  // The segment belongs to the message containing its first byte.
  if (const std::uint64_t flow = flow_id(/*inbound=*/false, ordinal); flow != 0)
    endpoint_->host().tracer().flow(
        endpoint_->engine().now(), obs::TraceEvent::Phase::flow_step, "flow",
        retransmission ? "stream.retransmit" : "stream.tx", flow,
        {{"seq", std::to_string(seq)}, {"len", std::to_string(len)}});
  endpoint_->raw_send(peer_ep_, encode_packet(PacketType::seg, p));
}

void StreamConnection::arm_rto() {
  if (rto_timer_.valid()) return;
  rto_timer_ = endpoint_->engine().schedule(rtt_.rto(), [this] {
    rto_timer_ = simnet::TimerId{};
    on_rto();
  });
}

void StreamConnection::on_rto() {
  if (state_ == State::closed || endpoint_ == nullptr) return;
  if (state_ == State::syn_sent) {
    send_control(PacketType::syn);
    rtt_.backoff();
    arm_rto();
    return;
  }
  if (snd_una == snd_nxt) return;  // everything acked in the meantime
  ++stats_.rto_events;
  endpoint_->host().flight().record(
      "stream", "rto",
      "peer=" + peer_.to_string() + " una=" + std::to_string(snd_una) +
          " nxt=" + std::to_string(snd_nxt));
  // Reno on timeout: collapse to one segment and retransmit the hole.
  ssthresh = std::max(cwnd / 2, 2.0 * static_cast<double>(mss()));
  cwnd = static_cast<double>(mss());
  dup_acks_ = 0;
  std::size_t len =
      std::min<std::uint64_t>(static_cast<std::uint64_t>(mss()), snd_nxt - snd_una);
  send_segment(snd_una, len, /*retransmission=*/true);
  rtt_.backoff();
  arm_rto();
}

void StreamConnection::on_packet(PacketType type, const StreamPacket& p) {
  switch (type) {
    case PacketType::syn:
      // Retransmitted SYN for an existing connection: repeat SYN-ACK.
      if (state_ == State::syn_received) send_control(PacketType::syn_ack);
      break;
    case PacketType::syn_ack:
      if (state_ == State::syn_sent) {
        state_ = State::established;
        peer_window_ = p.window;
        endpoint_->engine().cancel(rto_timer_);
        rto_timer_ = simnet::TimerId{};
        rtt_.restart();
        send_control(PacketType::ack);
        if (on_connect_) on_connect_();
        pump();
      } else if (state_ == State::established) {
        send_control(PacketType::ack);  // our ACK was lost
      }
      break;
    case PacketType::ack:
      if (state_ == State::syn_received) {
        state_ = State::established;
        peer_window_ = p.window;
        pump();
      } else {
        on_ack(p);
      }
      break;
    case PacketType::seg:
      if (state_ == State::syn_received) {
        // Our SYN-ACK arrived and the peer is already sending: promote.
        state_ = State::established;
      }
      on_data_segment(p);
      on_ack(p);
      break;
    case PacketType::fin:
      state_ = State::closed;
      send_control(PacketType::ack);
      break;
    case PacketType::rst:
      state_ = State::closed;
      break;
    default:
      break;
  }
}

void StreamConnection::on_data_segment(const StreamPacket& p) {
  if (p.payload.empty()) return;
  if (p.seq + p.payload.size() <= rcv_nxt) {
    send_control(PacketType::ack);  // stale retransmission; re-ack
    return;
  }
  if (p.seq > rcv_nxt) {
    out_of_order_.emplace(p.seq, p.payload);
    send_control(PacketType::ack);  // duplicate ack signals the gap
    return;
  }
  // Accept [rcv_nxt, ...) — the segment may partially overlap old data.
  std::size_t skip = static_cast<std::size_t>(rcv_nxt - p.seq);
  receive_buffer_.append(p.payload.slice(skip, p.payload.size() - skip));
  rcv_nxt += p.payload.size() - skip;
  deliver_contiguous();
  send_control(PacketType::ack);
  parse_messages();
}

void StreamConnection::deliver_contiguous() {
  while (!out_of_order_.empty()) {
    auto it = out_of_order_.begin();
    if (it->first > rcv_nxt) break;
    const Payload& seg = it->second;
    if (it->first + seg.size() > rcv_nxt) {
      std::size_t skip = static_cast<std::size_t>(rcv_nxt - it->first);
      receive_buffer_.append(seg.slice(skip, seg.size() - skip));
      rcv_nxt += seg.size() - skip;
    }
    out_of_order_.erase(it);
  }
}

void StreamConnection::parse_messages() {
  while (true) {
    if (receive_buffer_.size() < kStreamFrameHeaderBytes) return;
    const std::uint32_t len = stream_frame_length(receive_buffer_);
    if (receive_buffer_.size() < kStreamFrameHeaderBytes + len) return;
    Payload message = receive_buffer_.slice(kStreamFrameHeaderBytes, len);
    receive_buffer_ =
        receive_buffer_.slice(kStreamFrameHeaderBytes + len,
                              receive_buffer_.size() - kStreamFrameHeaderBytes - len);
    ++stats_.messages_delivered;
    stats_.bytes_delivered += message.size();
    if (const std::uint64_t flow = flow_id(/*inbound=*/true, next_rx_msg_++); flow != 0)
      endpoint_->host().tracer().flow(
          endpoint_->engine().now(), obs::TraceEvent::Phase::flow_end, "flow", "stream.deliver",
          flow, {{"peer", peer_.to_string()}, {"bytes", std::to_string(len)}});
    if (on_message_) on_message_(std::move(message));
  }
}

void StreamConnection::on_ack(const StreamPacket& p) {
  if (state_ != State::established) return;
  peer_window_ = p.window;
  if (p.ack > snd_una) {
    snd_una = p.ack;
    // An ack past everything queued (a mangled ack field) empties the
    // queue; later frames start at the acked offset.
    if (send_end_ < snd_una) send_end_ = snd_una;
    if (snd_nxt < snd_una) snd_nxt = snd_una;
    dup_acks_ = 0;

    // Messages whose whole frame is now acked are delivered as far as the
    // sender can observe; record their latency and retire the frames.  A
    // partly acked front frame stays: snd_una marks its acked prefix.
    while (!send_frames_.empty() && send_frames_.front().end <= snd_una) {
      delivery_ms_->observe(
          static_cast<double>(endpoint_->engine().now() - send_frames_.front().enqueued) /
          1e6);
      send_frames_.pop_front();
    }

    // RTT sample (Karn-filtered).
    if (rtt_sent_at_ >= 0 && p.ack >= rtt_seq_) {
      rtt_.sample(endpoint_->engine().now() - rtt_sent_at_);
      rtt_sent_at_ = -1;
    }

    // Congestion control: slow start then congestion avoidance.
    double m = static_cast<double>(mss());
    if (cwnd < ssthresh)
      cwnd += m;
    else
      cwnd += m * m / cwnd;

    // Forward progress collapses any RTO backoff (as in RFC 6298 §5.7):
    // Karn's rule can starve the RTT estimator for a long stretch of
    // retransmissions, and without this the timer stays pinned at kMaxRto,
    // turning each further loss into a multi-second stall.
    rtt_.collapse();
    endpoint_->engine().cancel(rto_timer_);
    rto_timer_ = simnet::TimerId{};
    if (snd_una < snd_nxt) arm_rto();
    pump();
  } else if (p.ack == snd_una && snd_una < snd_nxt) {
    if (++dup_acks_ == 3) {
      ++stats_.fast_retransmits;
      endpoint_->host().flight().record(
          "stream", "fast_retransmit",
          "peer=" + peer_.to_string() + " una=" + std::to_string(snd_una));
      ssthresh = std::max(cwnd / 2, 2.0 * static_cast<double>(mss()));
      cwnd = ssthresh;
      std::size_t len =
          std::min<std::uint64_t>(static_cast<std::uint64_t>(mss()), snd_nxt - snd_una);
      send_segment(snd_una, len, /*retransmission=*/true);
    }
  }
}

}  // namespace snipe::transport
