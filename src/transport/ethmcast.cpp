#include "transport/ethmcast.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace snipe::transport {

EthMcastEndpoint::EthMcastEndpoint(simnet::Host& host, const std::string& network,
                                   const std::string& group, std::uint16_t port)
    : host_(host),
      engine_(host.engine()),
      network_(network),
      net_(host.world()->network(network)),
      group_(group),
      port_(port),
      log_("ethmcast@" + host.name() + "/" + group, host.clock()) {
  auto* nic = host_.nic_on(network_);
  assert(nic != nullptr && "host not attached to multicast segment");
  // Leave room for the group name in the header; clamp before subtracting
  // so a tiny MTU cannot wrap the budget to a huge value.
  std::size_t mtu = nic->network()->model().mtu;
  // mdata = DATA header fields + born stamp (8) + length-prefixed group.
  std::size_t header = kDataHeaderBytes + 8 + 4 + group.size();
  frag_payload_ = std::max<std::size_t>(1, mtu - std::min(mtu, header));
  host_.bind(port_, [this](const simnet::Packet& p) { on_packet(p); }).value();
  delivery_ms_ = &host_.metrics().histogram("ethmcast.delivery_ms");
  stats_source_ = host_.metrics().add_stats([this](obs::StatsSink& s) {
    s.add("ethmcast.messages_sent", stats_.messages_sent);
    s.add("ethmcast.messages_delivered", stats_.messages_delivered);
    s.add("ethmcast.fragments_broadcast", stats_.fragments_broadcast);
    s.add("ethmcast.repairs_sent", stats_.repairs_sent);
    s.add("ethmcast.nacks_sent", stats_.nacks_sent);
  });
}

EthMcastEndpoint::~EthMcastEndpoint() {
  host_.unbind(port_);
  for (auto& [key, msg] : in_) engine_.cancel(msg.nack_timer);
}

std::uint64_t EthMcastEndpoint::flow_id(std::string_view sender_host, std::uint16_t sender_port,
                                         std::uint64_t msg_id) const {
  if (!host_.tracer().flow_enabled()) return 0;
  return mint_flow(sender_host, sender_port, group_, port_, msg_id);
}

void EthMcastEndpoint::send(Payload message) {
  OutMessage msg;
  msg.frag_size = frag_payload_;
  msg.frag_count =
      message.empty() ? 1
                      : static_cast<std::uint32_t>((message.size() + frag_payload_ - 1) /
                                                   frag_payload_);
  msg.data = std::move(message);
  std::uint64_t msg_id = next_msg_id_++;
  msg.born = engine_.now();
  if (const std::uint64_t flow = flow_id(host_.name(), port_, msg_id); flow != 0)
    host_.tracer().flow(engine_.now(), obs::TraceEvent::Phase::flow_start, "flow",
                        "ethmcast.send", flow,
                        {{"group", group_},
                         {"msg", std::to_string(msg_id)},
                         {"bytes", std::to_string(msg.data.size())}});
  for (std::uint32_t i = 0; i < msg.frag_count; ++i)
    broadcast_fragment(msg, msg_id, i, /*repair=*/false);
  ++stats_.messages_sent;
  sent_[msg_id] = std::move(msg);
  // Hold the buffer long enough for repair requests, then let it go.
  engine_.schedule_weak(kSenderHold, [this, msg_id] { sent_.erase(msg_id); });
}

void EthMcastEndpoint::broadcast_fragment(const OutMessage& msg, std::uint64_t msg_id,
                                          std::uint32_t index, bool repair) {
  McastDataPacket p;
  p.group = group_;
  p.msg_id = msg_id;
  p.frag_index = index;
  p.frag_count = msg.frag_count;
  p.total_len = static_cast<std::uint32_t>(msg.data.size());
  p.born = msg.born;
  std::size_t begin = static_cast<std::size_t>(index) * msg.frag_size;
  std::size_t end = std::min(msg.data.size(), begin + msg.frag_size);
  if (begin < end) p.payload = msg.data.slice(begin, end - begin);
  ++stats_.fragments_broadcast;
  if (const std::uint64_t flow = flow_id(host_.name(), port_, msg_id); flow != 0)
    host_.tracer().flow(engine_.now(), obs::TraceEvent::Phase::flow_step, "flow",
                        repair ? "ethmcast.repair" : "ethmcast.tx", flow,
                        {{"frag", std::to_string(index)}});
  auto r = host_.broadcast(network_, port_, encode_packet(PacketType::mdata, p), port_);
  if (!r) log_.trace("broadcast failed: ", r.error().to_string());
}

void EthMcastEndpoint::on_packet(const simnet::Packet& packet) {
  auto head = decode_head(packet.payload);
  if (!head) return;

  if (head.value().type == PacketType::mnack) {
    auto p = decode_packet<McastNackPacket>(packet.payload);
    if (!p || p.value().group != group_) return;
    auto it = sent_.find(p.value().msg_id);
    if (it == sent_.end()) return;  // repair window closed
    host_.flight().record(
        "ethmcast", "repair",
        "group=" + group_ + " msg=" + std::to_string(p.value().msg_id) +
            " missing=" + std::to_string(p.value().missing.size()));
    for (std::uint32_t index : p.value().missing) {
      if (index >= it->second.frag_count) continue;
      broadcast_fragment(it->second, p.value().msg_id, index, /*repair=*/true);
      ++stats_.repairs_sent;
    }
    return;
  }
  if (head.value().type != PacketType::mdata) return;
  auto decoded = decode_packet<McastDataPacket>(packet.payload);
  if (!decoded || decoded.value().group != group_) return;
  const McastDataPacket& p = decoded.value();
  simnet::Address sender{packet.src->name(), packet.src_port};

  auto key = std::make_pair(sender.host, p.msg_id);
  // Duplicate-after-delivery guard.  Only applies when no reassembly is in
  // flight: repairs for an older message may arrive after a newer one
  // completed (repair latency), and dropping them would wedge it forever.
  if (!in_.count(key) && delivered_up_to_[sender.host] >= p.msg_id) return;

  auto [it, inserted] = in_.try_emplace(key);
  InMessage& msg = it->second;
  if (inserted) {
    msg.frag_count = p.frag_count;
    msg.total_len = p.total_len;
    msg.born = p.born;
    msg.frags.resize(p.frag_count);
    msg.have = FragBitmap(p.frag_count);
  } else if (msg.frag_count != p.frag_count || msg.total_len != p.total_len) {
    // A corrupted or hostile fragment disagreeing with the first one seen:
    // indexing frags/have with the packet's own frag_count would write out
    // of bounds, so drop it (repairs re-send the authentic fragment).
    log_.warn("inconsistent fragment metadata for msg ", p.msg_id, " from ",
              sender.host);
    return;
  }
  if (!msg.have.get(p.frag_index)) {
    msg.have.set(p.frag_index);
    msg.frags[p.frag_index] = p.payload;
    ++msg.have_count;
    while (msg.prefix < msg.frag_count && msg.have.get(msg.prefix)) ++msg.prefix;
  }

  if (msg.have_count == msg.frag_count) {
    Payload assembled;
    for (auto& frag : msg.frags) assembled.append(std::move(frag));
    if (const std::uint64_t flow = flow_id(sender.host, sender.port, p.msg_id); flow != 0)
      host_.tracer().flow(engine_.now(), obs::TraceEvent::Phase::flow_end, "flow",
                          "ethmcast.deliver", flow,
                          {{"host", host_.name()}, {"bytes", std::to_string(assembled.size())}});
    delivery_ms_->observe(static_cast<double>(engine_.now() - msg.born) / 1e6);
    engine_.cancel(msg.nack_timer);
    in_.erase(it);
    auto& up_to = delivered_up_to_[sender.host];
    up_to = std::max(up_to, p.msg_id);
    ++stats_.messages_delivered;
    if (handler_) handler_(sender, std::move(assembled));
    return;
  }
  // Hole detected (fragment beyond the first missing one arrived)?  Arm a
  // short NACK; otherwise rely on the periodic retry.
  const bool gap = msg.prefix < p.frag_index;
  if (!msg.nack_timer.valid())
    schedule_nack({packet.src, sender.port}, p.msg_id, gap ? kNackDelay : kNackRetry);
}

void EthMcastEndpoint::schedule_nack(simnet::Endpoint sender, std::uint64_t msg_id,
                                     SimDuration delay) {
  auto key = std::make_pair(sender.host->name(), msg_id);
  auto it = in_.find(key);
  if (it == in_.end()) return;
  it->second.nack_timer = engine_.schedule(delay, [this, sender, msg_id] {
    auto key = std::make_pair(sender.host->name(), msg_id);
    auto it = in_.find(key);
    if (it == in_.end()) return;
    InMessage& msg = it->second;
    msg.nack_timer = simnet::TimerId{};
    McastNackPacket nack;
    nack.group = group_;
    nack.msg_id = msg_id;
    for (std::uint32_t i = 0; i < msg.frag_count; ++i)
      if (!msg.have.get(i)) nack.missing.push_back(i);
    if (nack.missing.empty()) return;
    ++stats_.nacks_sent;
    if (const std::uint64_t flow = flow_id(sender.host->name(), sender.port, msg_id); flow != 0)
      host_.tracer().flow(engine_.now(), obs::TraceEvent::Phase::flow_step, "flow",
                          "ethmcast.nack", flow,
                          {{"host", host_.name()},
                           {"missing", std::to_string(nack.missing.size())}});
    host_.flight().record(
        "ethmcast", "nack",
        "group=" + group_ + " msg=" + std::to_string(msg_id) +
            " missing=" + std::to_string(nack.missing.size()));
    simnet::SendOptions opts;
    opts.src_port = port_;
    opts.preferred_network = net_;
    auto r = host_.send(sender.host, sender.port, encode_packet(PacketType::mnack, nack), opts);
    if (!r) log_.trace("nack failed: ", r.error().to_string());
    schedule_nack(sender, msg_id, kNackRetry);
  });
}

}  // namespace snipe::transport
