// A TCP-like reliable byte-stream protocol.
//
// SNIPE's comms module offered TCP alongside its own selective re-send
// protocol (§6), and Fig. 1 compares the two on each medium.  To make that
// comparison on the simulator we implement the relevant TCP mechanics from
// scratch: three-way handshake, MSS segmentation, cumulative ACKs, sliding
// window bounded by min(cwnd, receiver window), slow start / congestion
// avoidance (Reno-style), fast retransmit on three duplicate ACKs, and RTO
// with exponential backoff.  Messages ride on the stream with a 4-byte
// length prefix, so both protocols present the same message API to the
// layers above.
//
// The send side is a queue of per-message frames, not one growing byte
// buffer: a segment slices only the frames it spans, and a cumulative ack
// pops the frames it covers whole and leaves a partly acked front frame in
// place (its acked prefix is snd_una minus the frame's start).  Nothing is
// ever re-copied, however many messages are queued behind the window.
//
// Connections are demultiplexed by (peer Endpoint, conn_id): an arriving
// segment names its peer by source Host* and source port, no string.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "simnet/world.hpp"
#include "transport/wire.hpp"
#include "util/log.hpp"

namespace snipe::transport {

struct StreamStats {
  std::uint64_t segments_sent = 0;
  std::uint64_t segments_retransmitted = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t rto_events = 0;
  std::uint64_t fast_retransmits = 0;
};

class StreamEndpoint;

/// One direction-pair of an established (or establishing) connection.
class StreamConnection {
 public:
  /// Messages are delivered as the reassembled Payload, as is: on a clean
  /// path the segments alias the sender's original message buffers
  /// (segments are slices of the send buffer, which itself splices in the
  /// callers' buffers).  A message may arrive in several segments; handlers
  /// decode() it and flatten() only if they need to.
  using MessageHandler = std::function<void(Payload message)>;
  using ConnectHandler = std::function<void()>;

  /// Advertised receive window, in bytes.
  static constexpr std::size_t kReceiveWindow = 256 * 1024;
  static constexpr std::size_t kInitialCwndSegments = 4;
  static constexpr SimDuration kInitialRto = duration::milliseconds(100);
  static constexpr SimDuration kMinRto = duration::milliseconds(2);
  static constexpr SimDuration kMaxRto = duration::seconds(4);
  using Rto = RtoEstimator<kInitialRto, kMinRto, kMaxRto>;

  /// Queues a length-prefixed message onto the stream (by reference — the
  /// message buffer is shared, not copied, until the wire).
  void send_message(Payload message);
  void set_message_handler(MessageHandler h) { on_message_ = std::move(h); }
  /// Fires once when the handshake completes (client side).  There is no
  /// connect timeout and so no failure to report: an unanswered SYN is
  /// retried with backoff for as long as the connection exists.
  void set_connect_handler(ConnectHandler h) { on_connect_ = std::move(h); }

  bool established() const { return state_ == State::established; }
  /// Bytes accepted by send_message but not yet cumulatively acked.
  std::size_t unacked_bytes() const { return static_cast<std::size_t>(send_end_ - snd_una); }
  const simnet::Address& peer() const { return peer_; }
  const StreamStats& stats() const { return stats_; }

 private:
  friend class StreamEndpoint;
  enum class State { syn_sent, syn_received, established, closed };

  StreamConnection(StreamEndpoint* endpoint, simnet::Endpoint peer, simnet::Address name,
                   std::uint32_t conn_id, bool initiator);

  void start_connect();
  void on_packet(PacketType type, const StreamPacket& p);
  void on_data_segment(const StreamPacket& p);
  void on_ack(const StreamPacket& p);
  void pump();
  void send_segment(std::uint64_t seq, std::size_t len, bool retransmission);
  void send_control(PacketType type);
  void arm_rto();
  void on_rto();
  void deliver_contiguous();
  void parse_messages();
  std::size_t mss() const;
  /// Trace flow id of this connection's `ordinal`-th message (from 1) in
  /// one direction, sent by the peer if `inbound`; 0 while flows are not
  /// recorded.  Both ends count messages, so no frame carries the id.
  std::uint64_t flow_id(bool inbound, std::uint64_t ordinal) const;

  StreamEndpoint* endpoint_;
  simnet::Endpoint peer_ep_;  ///< where segments go
  simnet::Address peer_;      ///< its name, for peer(), logs and traces
  std::uint32_t conn_id_;
  bool initiator_;
  State state_ = State::closed;

  /// One queued message as it rides the stream: its frame bytes (pooled
  /// header plus the caller's buffer, spliced, never copied) and where the
  /// frame ends.  A segment takes the flow of the frame holding its first
  /// byte; the frame retires (observing delivery latency) once fully acked.
  struct Frame {
    Payload bytes;          ///< [u32 len][message]
    std::uint64_t end = 0;  ///< absolute stream offset one past the frame
    std::uint64_t ordinal = 0;  ///< the message's number on this connection
    SimTime enqueued = 0;
    std::uint64_t start() const { return end - bytes.size(); }
  };

  // --- send side ---
  /// Frames not yet wholly acked, ascending by end; [snd_una, send_end_).
  std::deque<Frame> send_frames_;
  std::uint64_t send_end_ = 0;  ///< absolute offset one past the last queued byte
  std::uint64_t next_msg_seq_ = 1;
  std::uint64_t snd_una = 0;
  std::uint64_t snd_nxt = 0;
  double cwnd = 0;
  double ssthresh = 0;
  std::size_t peer_window_ = 0;
  int dup_acks_ = 0;
  Rto rtt_;  ///< RTT estimate and retransmission timeout
  simnet::TimerId rto_timer_;
  /// Outstanding RTT probe: (sequence that must be acked, send time).
  std::uint64_t rtt_seq_ = 0;
  SimTime rtt_sent_at_ = -1;

  // --- receive side ---
  std::uint64_t rcv_nxt = 0;
  std::map<std::uint64_t, Payload> out_of_order_;
  Payload receive_buffer_;  ///< contiguous bytes not yet parsed into messages
  std::uint64_t next_rx_msg_ = 1;  ///< ordinal of the next message parsed

  MessageHandler on_message_;
  ConnectHandler on_connect_;
  StreamStats stats_;
  /// Host's "stream.delivery_ms": send_message() to cumulative ack of the
  /// whole frame (the stream's sender-side delivery latency).
  obs::Histogram* delivery_ms_ = nullptr;
  /// Declared after stats_ so the visitor unregisters (folding into the
  /// registry's retained totals) before the fields it reads are destroyed.
  obs::SourceHandle stats_source_;
};

/// Owns the port and demultiplexes connections, like a socket table.
class StreamEndpoint {
 public:
  using AcceptHandler = std::function<void(std::shared_ptr<StreamConnection>)>;

  StreamEndpoint(simnet::Host& host, std::uint16_t port);
  ~StreamEndpoint();

  StreamEndpoint(const StreamEndpoint&) = delete;
  StreamEndpoint& operator=(const StreamEndpoint&) = delete;

  /// Accepts incoming connections (server role).
  void listen(AcceptHandler handler) { on_accept_ = std::move(handler); }

  /// Initiates a connection to a listening StreamEndpoint.  The SYN is
  /// retried with backoff (up to StreamConnection::kMaxRto apart) until the
  /// peer answers; nothing gives up on its own, so a peer that never answers
  /// leaves the connection waiting and its connect handler uncalled.
  std::shared_ptr<StreamConnection> connect(const simnet::Address& dst);

  std::uint16_t port() const { return port_; }
  simnet::Address address() const { return {host_.name(), port_}; }
  simnet::Host& host() { return host_; }
  simnet::Engine& engine() { return engine_; }

 private:
  friend class StreamConnection;
  void on_packet(const simnet::Packet& packet);
  void raw_send(simnet::Endpoint dst, Payload wire);

  /// connections_ key: the peer endpoint and its connection id.
  struct ConnKey {
    simnet::Endpoint peer;
    std::uint32_t conn_id = 0;
    friend bool operator==(const ConnKey&, const ConnKey&) = default;
  };
  struct ConnKeyHash {
    std::size_t operator()(const ConnKey& k) const noexcept {
      return std::hash<simnet::Endpoint>{}(k.peer) ^
             (std::size_t{k.conn_id} * 0x9E3779B97F4A7C15ULL);
    }
  };

  simnet::Host& host_;
  simnet::Engine& engine_;
  std::uint16_t port_;
  AcceptHandler on_accept_;
  /// Iterated only to close every connection at teardown (order-free).
  std::unordered_map<ConnKey, std::shared_ptr<StreamConnection>, ConnKeyHash> connections_;
  std::uint32_t next_conn_id_ = 1;
  Logger log_;
};

}  // namespace snipe::transport
