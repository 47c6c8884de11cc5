// The "experimental multicast protocol for ethernet" (§6).
//
// Distinct from §5.4's router-based wide-area multicast (which lives in
// snipe_core), this is the high-performance single-segment protocol the
// paper says was tested: the sender broadcasts fragments once on the shared
// medium; each receiver that detects a hole unicasts a NACK listing the
// missing fragments; the sender re-broadcasts just those.  One transmission
// serves every receiver, so goodput is nearly independent of group size —
// the property bench_multicast compares against unicast fan-out.
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "obs/metrics.hpp"
#include "simnet/world.hpp"
#include "transport/wire.hpp"
#include "util/log.hpp"

namespace snipe::transport {

/// The endpoint streams these cells into its host's obs::MetricsRegistry
/// through one stats visitor ("ethmcast.nacks_sent", ...).
struct EthMcastStats {
  obs::Cell messages_sent;
  obs::Cell messages_delivered;
  obs::Cell fragments_broadcast;
  obs::Cell repairs_sent;
  obs::Cell nacks_sent;
};

/// One endpoint of the Ethernet multicast protocol: both a sender and a
/// receiver for a given (network segment, group, port).
class EthMcastEndpoint {
 public:
  /// Delivered messages are the reassembled Payload, as is; on a clean path
  /// the segments alias the sender's original buffer (fragments coalesce on
  /// reassembly).  Handlers decode() it or flatten() themselves.
  using MessageHandler =
      std::function<void(const simnet::Address& src, Payload message)>;

  static constexpr SimDuration kNackDelay = duration::microseconds(500);  ///< gap -> NACK
  static constexpr SimDuration kNackRetry = duration::milliseconds(20);   ///< while incomplete
  static constexpr SimDuration kSenderHold = duration::seconds(5);  ///< keep data for repairs

  EthMcastEndpoint(simnet::Host& host, const std::string& network, const std::string& group,
                   std::uint16_t port);
  ~EthMcastEndpoint();

  /// Broadcasts `message` to every other endpoint of this group on the
  /// segment.  Reliability is NACK-driven.
  void send(Payload message);
  void set_handler(MessageHandler handler) { handler_ = std::move(handler); }

  const EthMcastStats& stats() const { return stats_; }

 private:
  struct OutMessage {
    Payload data;  ///< the whole message; fragments are slices of it
    std::uint32_t frag_count = 0;
    std::size_t frag_size = 0;
    SimTime born = 0;  ///< send time, carried on the wire for latency
  };
  struct InMessage {
    std::vector<Payload> frags;  ///< slices of the sender's buffer
    FragBitmap have;
    std::uint32_t have_count = 0;
    std::uint32_t prefix = 0;  ///< fragments [0, prefix) are all held
    std::uint32_t frag_count = 0;
    std::uint32_t total_len = 0;
    SimTime born = 0;
    simnet::TimerId nack_timer;
  };

  /// Trace flow id of message `msg_id` broadcast by the endpoint at
  /// (`sender_host`, `sender_port`); 0 while flows are not recorded.  The
  /// group takes the receiver's place in the mint, so the sender and every
  /// receiver derive the same id and no fragment carries it.
  std::uint64_t flow_id(std::string_view sender_host, std::uint16_t sender_port,
                        std::uint64_t msg_id) const;
  void on_packet(const simnet::Packet& packet);
  void broadcast_fragment(const OutMessage& msg, std::uint64_t msg_id, std::uint32_t index,
                          bool repair);
  void schedule_nack(simnet::Endpoint sender, std::uint64_t msg_id, SimDuration delay);

  simnet::Host& host_;
  simnet::Engine& engine_;
  std::string network_;
  const simnet::Network* net_;  ///< network_, resolved once (nack routing)
  std::string group_;
  std::uint16_t port_;
  std::size_t frag_payload_;
  MessageHandler handler_;
  std::uint64_t next_msg_id_ = 1;
  std::map<std::uint64_t, OutMessage> sent_;  ///< held for repair requests
  std::map<std::pair<std::string, std::uint64_t>, InMessage> in_;  ///< by (sender, id)
  std::map<std::string, std::uint64_t> delivered_up_to_;
  EthMcastStats stats_;
  /// Host's "ethmcast.delivery_ms": wire `born` stamp to reassembly on the
  /// receiver (valid because the simulation clock is shared).
  obs::Histogram* delivery_ms_;
  Logger log_;
  /// Declared after stats_ so retirement reads live cells.
  obs::SourceHandle stats_source_;
};

}  // namespace snipe::transport
