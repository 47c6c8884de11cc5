// SRUDP: SNIPE's selective re-send datagram protocol (§6).
//
// The 1998 comms module "supported a selective re-send UDP protocol as well
// as TCP/IP", buffered messages so "migrating or temporarily unavailable
// tasks did not result in lost messages", and could "switch
// routes/interfaces as links failed without user applications
// intervention".  SrudpEndpoint reproduces all three properties:
//
//  * Messages of any size are fragmented to the smallest MTU among the
//    host's interfaces and reassembled at the receiver.
//  * Reliability is receiver-driven and *selective*: the receiver reports a
//    fragment bitmap (STATUS) when it sees gaps or is probed; the sender
//    retransmits exactly the missing fragments.  A whole-message MSG_ACK
//    retires the send buffer.  This is the design difference from TCP's
//    cumulative-ACK stream that Fig. 1 quantifies.
//  * No connection handshake: the first data fragment can carry payload,
//    so short messages complete in a single round trip.
//  * Messages are buffered and retransmitted until acknowledged or their
//    TTL expires, so a receiver that is briefly down (rebooting, migrating)
//    gets them on return.
//  * Per-peer MultipathPolicy rotates interfaces after repeated timeouts.
//
// Delivery is in-order per (sender, receiver) endpoint pair, matching the
// PVM message-passing semantics SNIPE inherited; a head-of-line gap left by
// an expired message is skipped after `hol_skip`.
//
// Peers are interned: send() resolves the destination's name once into a
// simnet::Endpoint (host pointer + port), and every per-peer table, timer
// closure and datagram after that is keyed by it — an arriving packet's
// peer is its source Host* and source port, no string.  The tables
// are hash maps; they are iterated only to cancel timers and to sum
// pending(), neither of which depends on order, so determinism holds.  A
// name is built only where one is wanted: logs, flight entries, traces,
// and the `src` Address handed to the message handler, once per delivered
// message.  A destination name that resolves to no host sends nothing; its
// messages wait out their TTL and expire (all such names share one peer
// slot per port, since none of them can ever answer).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simnet/world.hpp"
#include "transport/multipath.hpp"
#include "transport/wire.hpp"
#include "util/log.hpp"

namespace snipe::transport {

/// Per-endpoint settings.  SRUDP's fixed recovery timing (window, RTO
/// bounds, STATUS cadence, route re-probe) is the constants on
/// SrudpEndpoint.
struct SrudpConfig {
  /// Sender: how long to keep retrying an unacknowledged message.  This is
  /// the "system buffering" that protects migrating/rebooting receivers.
  SimDuration msg_ttl = duration::seconds(30);
  /// Receiver: head-of-line gap skip (only reached if a sender expired a
  /// message or died mid-send).
  SimDuration hol_skip = duration::seconds(10);
  /// Receiver: drop a partially-received message if no new fragment arrives
  /// for this long (the sender evidently gave up or died).
  SimDuration partial_ttl = duration::seconds(60);
  int failover_threshold = 2;  ///< consecutive RTOs before switching routes
  /// Sends every packet — DATA, STATUS, MSG_ACK, PROBE — as its
  /// checksummed twin (an FNV-1a trailer over the whole packet, type and
  /// header included) and drops any packet whose checksum does not verify.
  /// Off by default: the 1998 wire format had none, and the unchecked path
  /// is the ablation baseline for the corruption chaos scenarios.  Both
  /// ends must agree only in the sense that a checksumming receiver still
  /// accepts plain packets — the wire type is self-describing.
  bool checksum = false;
};

/// Per-endpoint counters.  The cells are the single point of increment;
/// each endpoint streams them through one stats visitor into its host's
/// obs::MetricsRegistry (names "srudp.messages_sent", "srudp.retransmits",
/// ...), so `stats()` stays a thin per-instance view while the registry
/// reports per-host totals (and MetricsRegistry::global() the fleet's).
struct SrudpStats {
  obs::Cell messages_sent;
  obs::Cell messages_delivered;
  obs::Cell messages_expired;   ///< sender gave up (TTL)
  obs::Cell messages_skipped;   ///< receiver skipped a HOL gap
  obs::Cell fragments_sent;
  obs::Cell fragments_retransmitted;
  obs::Cell duplicate_fragments;
  obs::Cell status_sent;
  obs::Cell rto_events;
  obs::Cell bytes_delivered;
  obs::Cell route_switches;
  obs::Cell route_probes;      ///< probe resets back to the default route
  obs::Cell checksum_rejects;  ///< checksummed packets failing verification
};

/// A reliable, message-oriented endpoint bound to one (host, port).
class SrudpEndpoint {
 public:
  /// Delivered messages arrive as the reassembled Payload, as is: on a
  /// clean path its segments alias the sender's message buffers (fragments
  /// coalesce back during reassembly — no copy was ever made).  A message
  /// may arrive in several segments; handlers decode() it (util/codec.hpp)
  /// and call flatten() themselves only if they need contiguous bytes.
  using MessageHandler =
      std::function<void(const simnet::Address& src, Payload message)>;

  /// Max unacknowledged fragments in flight per peer.
  static constexpr std::size_t kWindow = 128;
  static constexpr SimDuration kInitialRto = duration::milliseconds(50);
  static constexpr SimDuration kMinRto = duration::milliseconds(2);
  static constexpr SimDuration kMaxRto = duration::seconds(2);
  using Rto = RtoEstimator<kInitialRto, kMinRto, kMaxRto>;
  /// Receiver: delay between noticing a gap and sending a STATUS, letting
  /// slightly-reordered fragments land first.
  static constexpr SimDuration kGapStatusDelay = duration::milliseconds(1);
  /// Receiver: periodic STATUS interval for incomplete messages (doubles
  /// each repetition up to 1 s).
  static constexpr SimDuration kStatusInterval = duration::milliseconds(20);
  /// Receiver: also push a STATUS every N fragments of a large message so
  /// the sender's window keeps sliding without waiting for gaps.
  static constexpr std::uint32_t kStatusEvery = 32;
  /// How long a failover route must stay timeout-free before the policy
  /// re-probes the default (fastest) route.
  static constexpr SimDuration kRouteProbeQuiet = duration::seconds(10);

  /// Binds `port` on `host` (0 picks an ephemeral port).  Asserts that the
  /// port was free.
  SrudpEndpoint(simnet::Host& host, std::uint16_t port, SrudpConfig config = {});
  ~SrudpEndpoint();

  SrudpEndpoint(const SrudpEndpoint&) = delete;
  SrudpEndpoint& operator=(const SrudpEndpoint&) = delete;

  /// Queues `message` for reliable in-order delivery to `dst` (another
  /// SrudpEndpoint's address).  Returns the message id, which increases per
  /// destination.  Never blocks; failure surfaces as expiry in stats.
  std::uint64_t send(const simnet::Address& dst, Payload message);

  /// Installs the delivery callback.
  void set_handler(MessageHandler handler) { handler_ = std::move(handler); }

  std::uint16_t port() const { return port_; }
  simnet::Address address() const { return {host_.name(), port_}; }
  simnet::Host& host() { return host_; }

  /// Unacknowledged messages still buffered across all peers; a migrating
  /// process drains this to zero before moving (§5.6's no-loss guarantee).
  std::size_t pending() const;

  const SrudpStats& stats() const { return stats_; }

  /// Flow id of the message most recently handed to the delivery handler
  /// (valid inside the handler call; 0 while flows are not recorded).
  /// Layers above srudp — rpc notably — use it to link their own trace
  /// steps into the message's flow without any extra wire bytes.
  std::uint64_t last_delivered_flow() const { return last_delivered_flow_; }
  /// Flow id of the message most recently queued by send(), the id its
  /// receiver derives (0 while flows are not recorded).
  std::uint64_t last_sent_flow() const { return last_sent_flow_; }

 private:
  using Peer = simnet::Endpoint;

  /// Trace flow id of message `msg_id` between this endpoint and `peer`,
  /// sent by the peer if `inbound`; 0 while flows are not recorded.  Both
  /// ends mint it from the link's endpoints, so no packet carries it.
  std::uint64_t flow_id(Peer peer, bool inbound, std::uint64_t msg_id) const;

  struct OutMessage {
    std::uint64_t msg_id = 0;
    SimTime enqueued = 0;     ///< send() time; delivery latency = ack - this
    Payload data;  ///< the whole message; fragments are slices of it
    std::uint32_t frag_count = 0;
    FragBitmap acked;               ///< fragments the peer has
    std::uint32_t acked_count = 0;
    std::uint32_t next_unsent = 0;  ///< first never-transmitted fragment
    /// Fragments requested again, in request order (pump resends from the
    /// front).  A vector, not a deque: an empty one costs no allocation,
    /// where libstdc++'s deque allocates on construction and on every move.
    std::vector<std::uint32_t> retransmit;
    SimTime first_sent = -1;
    SimTime deadline = 0;
    bool retransmitted = false;  ///< poisons the RTT sample (Karn's rule)
    bool implied_retx = false;   ///< one implied-loss resend already queued
  };

  struct PeerOut {
    std::uint64_t next_msg_id = 1;
    std::deque<OutMessage> queue;
    std::size_t inflight = 0;  ///< fragments sent and not known received
    Rto rtt;  ///< RTT estimate and retransmission timeout
    simnet::TimerId rto_timer;
    MultipathPolicy path;
    /// Open "srudp.failover" span: starts at the route switch, ends at the
    /// first acknowledged progress on the new route.
    obs::SpanId failover_span = 0;
  };

  struct InMessage {
    std::vector<Payload> frags;  ///< slices of the sender's buffer
    FragBitmap have;
    std::uint32_t have_count = 0;
    std::uint32_t prefix = 0;  ///< fragments [0, prefix) are all held
    std::uint32_t frag_count = 0;
    std::uint32_t total_len = 0;
    std::uint32_t since_status = 0;
    simnet::TimerId status_timer;
    SimDuration status_backoff = 0;
    SimTime last_progress = 0;
    SimTime last_status_sent = -1;
  };

  struct PeerIn {
    std::uint64_t next_deliver = 1;
    /// Multi-fragment messages being reassembled.  A single-fragment
    /// message never enters it.
    std::map<std::uint64_t, InMessage> partial;
    /// Complete messages waiting for an older one.  A message that
    /// completes in order is delivered at once and never enters it.
    std::map<std::uint64_t, Payload> complete;
    simnet::TimerId hol_timer;
  };

  /// out_[peer] with the MultipathPolicy configured on first touch
  /// (SrudpConfig's failover threshold, kRouteProbeQuiet).
  PeerOut& ensure_out(Peer peer);
  /// on_success with the probe-after-quiet bookkeeping (flight + stats).
  void note_route_success(Peer peer, PeerOut& out);

  void on_packet(const simnet::Packet& packet);
  void on_data(Peer peer, const DataPacket& p);
  /// A message whose every fragment arrived: acknowledge it, then deliver
  /// it now if it is next in order, else park it in `complete`.
  void on_complete(Peer peer, PeerIn& in, std::uint64_t msg_id, Payload assembled,
                   std::uint32_t total_len);
  void on_status(Peer peer, const StatusPacket& p);
  void on_msg_ack(Peer peer, std::uint64_t msg_id);
  void on_probe(Peer peer, std::uint64_t msg_id);

  /// Sends fragments for `peer` while the window has room.
  void pump(Peer peer);
  void send_fragment(Peer peer, PeerOut& out, OutMessage& msg, std::uint32_t index,
                     bool retransmission);
  void arm_rto(Peer peer);
  void on_rto(Peer peer);
  void expire_head(Peer peer, PeerOut& out);

  void send_status(Peer peer, std::uint64_t msg_id, const InMessage& msg);
  void schedule_status(Peer peer, std::uint64_t msg_id, SimDuration delay);
  /// Hands message `in.next_deliver` to the handler and advances.
  void deliver(Peer peer, PeerIn& in, Payload payload);
  /// Delivers every parked message that is next in order, then arms or
  /// clears the head-of-line skip.
  void try_deliver(Peer peer, PeerIn& in);
  void arm_hol_skip(Peer peer);

  void raw_send(Peer peer, PeerOut* out, Payload wire);

  simnet::Host& host_;
  simnet::Engine& engine_;
  std::uint16_t port_;
  SrudpConfig config_;
  std::size_t frag_payload_;  ///< min over attached NICs' MTU - header
  MessageHandler handler_;
  std::unordered_map<Peer, PeerOut> out_;
  std::unordered_map<Peer, PeerIn> in_;
  std::uint64_t last_delivered_flow_ = 0;
  std::uint64_t last_sent_flow_ = 0;
  SrudpStats stats_;
  obs::Histogram* rtt_ms_;  ///< host's "srudp.rtt_ms" (Karn-filtered samples)
  /// Host's "srudp.delivery_ms": send() to MSG_ACK per message, the
  /// sender-side delivery latency the console's health rollup reports.
  obs::Histogram* delivery_ms_;
  Logger log_;
  /// Declared after stats_ so the visitor unregisters (and folds into the
  /// registry's retained totals) before the cells it reads are destroyed.
  obs::SourceHandle stats_source_;
};

}  // namespace snipe::transport
