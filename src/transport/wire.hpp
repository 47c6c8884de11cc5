// On-wire packet formats for the SNIPE communications module.
//
// The 1998 SNIPE comms module (§6) spoke three protocols over raw
// datagrams: a selective re-send UDP protocol ("SRUDP" here), TCP, and an
// experimental Ethernet multicast.  Every packet starts with a one-byte
// type; the rest is protocol-specific.
//
// A packet carries only what its receiver cannot derive.  The sender's
// reply port is the datagram's own source port, and a trace flow id is
// minted at each end from the link's endpoints and the message's ordinal
// (mint_flow), so neither rides the wire.
//
// Every packet is a record with one field list (util/codec.hpp), walked by
// encode_packet and decode_packet: a small pooled header segment followed
// by the data segments spliced in by reference, so a DATA fragment
// *aliases* the sender's message buffer instead of copying its slice, and
// a decoded payload field is a zero-copy slice of the received packet.  A
// record's check() holds its domain rules (fragment bounds, bitmap size).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string_view>

#include "util/bytes.hpp"
#include "util/codec.hpp"
#include "util/payload.hpp"
#include "util/result.hpp"
#include "util/time.hpp"

namespace snipe::transport {

enum class PacketType : std::uint8_t {
  // SRUDP (selective re-send datagram protocol)
  data = 1,     ///< one fragment of a message
  msg_ack = 2,  ///< whole message received
  status = 3,   ///< receiver's fragment bitmap (drives selective re-send)
  probe = 4,    ///< sender asking for a status report
  // Checksummed twins (SrudpConfig::checksum): the plain packet's bytes
  // under the twin's type, then a u32 FNV-1a over all of them — type and
  // header included — so no corrupted field is ever acted on.
  data_ck = 5,
  status_ck = 6,
  msg_ack_ck = 7,
  probe_ck = 8,
  // Stream (TCP-like)
  syn = 10,
  syn_ack = 11,
  ack = 12,
  seg = 13,
  fin = 14,
  rst = 15,
  // Experimental Ethernet multicast
  mdata = 20,
  mnack = 21,
};

/// Upper bound on the fragment count any decoder will accept.  Wire data
/// is untrusted (§4): without a bound, a single hostile or bit-flipped
/// header could make a receiver allocate gigabytes of reassembly state.
/// 2^20 fragments at the minimum fragment size is already a ~256 MB
/// message, far beyond anything the testbed moves.
constexpr std::uint32_t kMaxWireFragments = 1u << 20;

/// The fragment rules DATA and multicast data share: a real index below a
/// count of at most kMaxWireFragments, and a nonzero length on a message
/// of more than one fragment.
Result<void> check_fragment(std::uint32_t index, std::uint32_t count, std::uint32_t total_len);

/// Common prefix of every transport packet.
struct PacketHead {
  PacketType type;
};

/// SRUDP DATA fragment.  `payload` is a slice of the received datagram (or,
/// on the send side, of the message being fragmented) — never a copy.
struct DataPacket {
  std::uint64_t msg_id = 0;
  std::uint32_t frag_index = 0;
  std::uint32_t frag_count = 0;
  std::uint32_t total_len = 0;  ///< full message length, for sanity checks
  Payload payload;
  bool has_checksum = false;    ///< wire type was data_ck
  bool checksum_ok = true;      ///< checksum verified (always true for data)

  template <class Io> void fields(Io& io) {
    io(msg_id, frag_index, frag_count, total_len, payload);
  }
  Result<void> check() const { return check_fragment(frag_index, frag_count, total_len); }
};

/// SRUDP STATUS: which fragments of `msg_id` the receiver holds.
struct StatusPacket {
  std::uint64_t msg_id = 0;
  std::uint32_t frag_count = 0;
  Bytes bitmap;  ///< frag_count bits, little-endian within bytes
  bool checksum_ok = true;  ///< status_ck's checksum verified (true for status)

  template <class Io> void fields(Io& io) { io(msg_id, frag_count, bitmap); }
  Result<void> check() const {
    if (frag_count > kMaxWireFragments) return Error{Errc::corrupt, "absurd fragment count"};
    if (bitmap.size() * 8 < frag_count) return Error{Errc::corrupt, "status bitmap too small"};
    return ok_result();
  }
};

/// SRUDP MSG_ACK / PROBE carry just the message id.
struct MsgIdPacket {
  std::uint64_t msg_id = 0;
  bool checksum_ok = true;  ///< a _ck twin's checksum verified (true otherwise)

  template <class Io> void fields(Io& io) { io(msg_id); }
};

/// Stream segment (also used, payload-less, for SYN/SYN_ACK/ACK/FIN/RST).
struct StreamPacket {
  std::uint32_t conn_id = 0;   ///< initiator-chosen connection id
  std::uint64_t seq = 0;       ///< first payload byte's stream offset
  std::uint64_t ack = 0;       ///< cumulative ack (next expected offset)
  std::uint32_t window = 0;    ///< receiver's advertised window
  Payload payload;

  template <class Io> void fields(Io& io) { io(conn_id, seq, ack, window, payload); }
};

/// Multicast data: like DataPacket plus the group it belongs to.
struct McastDataPacket {
  std::string group;
  std::uint64_t msg_id = 0;
  std::uint32_t frag_index = 0;
  std::uint32_t frag_count = 0;
  std::uint32_t total_len = 0;
  std::int64_t born = 0;     ///< sender's virtual send time (multicast has no
                             ///< acks, so receivers compute delivery latency
                             ///< from the shared virtual clock)
  Payload payload;

  template <class Io> void fields(Io& io) {
    io(group, msg_id, frag_index, frag_count, total_len, born, payload);
  }
  Result<void> check() const { return check_fragment(frag_index, frag_count, total_len); }
};

/// Multicast NACK: fragments a receiver is missing.
struct McastNackPacket {
  std::string group;
  std::uint64_t msg_id = 0;
  std::vector<std::uint32_t> missing;

  template <class Io> void fields(Io& io) { io(group, msg_id, missing); }
  Result<void> check() const {
    if (missing.size() > kMaxWireFragments) return Error{Errc::corrupt, "absurd NACK count"};
    return ok_result();
  }
};

/// RPC frame (transport/rpc.hpp), the message SRUDP carries for an RPC
/// endpoint: encode_payload(frame) and decode<RpcFrame>(message).
enum class RpcKind : std::uint8_t { request = 1, response = 2, error = 3, oneway = 4 };
struct RpcFrame {
  RpcKind kind = RpcKind::request;
  std::uint64_t id = 0;
  std::uint32_t tag = 0;
  Payload body;  ///< zero-copy slice of the received frame
  Payload auth;  ///< requests and notifications only

  // copy_small: a control-sized body costs the frame no segment of its own.
  template <class Io> void fields(Io& io) {
    io(kind, id, tag, codec::copy_small(body));
    if (kind == RpcKind::request || kind == RpcKind::oneway) io(codec::copy_small(auth));
  }
};

/// Number of bytes the SRUDP DATA header occupies on the wire; used to
/// compute fragment payload budgets from the MTU: type, msg_id,
/// frag_index, frag_count, total_len and the payload blob's length.
constexpr std::size_t kDataHeaderBytes = 1 + 8 + 4 + 4 + 4 + 4;
/// DATA with checksum (data_ck) carries an extra u32, its checksum trailer.
constexpr std::size_t kDataCkHeaderBytes = kDataHeaderBytes + 4;
/// Ditto for stream segments: type, conn_id, seq, ack, window, blob length.
constexpr std::size_t kStreamHeaderBytes = 1 + 4 + 8 + 8 + 4 + 4;
/// Stream messages ride the byte stream framed as [u32 len][bytes].
constexpr std::size_t kStreamFrameHeaderBytes = 4;

/// Deterministic 64-bit trace-context id (FNV-1a over the endpoints and
/// the message's ordinal on that link).  Minting draws no randomness and
/// each end knows every argument, so sender and receiver compute the same
/// id without carrying it: tracing on or off sends the same bytes, which is
/// what keeps seeded chaos replays bit-identical either way.
std::uint64_t mint_flow(std::string_view from_host, std::uint16_t from_port,
                        std::string_view to_host, std::uint16_t to_port,
                        std::uint64_t ordinal);

/// FNV-1a (32-bit) over a payload's bytes — the opt-in SRUDP packet
/// checksum.  The 1998 wire format had none; see SrudpConfig::checksum.
std::uint32_t payload_checksum(const Payload& p);

/// The packet `p` under `type`.  `with_checksum` emits type's checksummed
/// twin (data_ck, status_ck, msg_ack_ck, probe_ck) with its FNV-1a trailer;
/// the default emits the bare 1998 format byte-for-byte.  P is one of the
/// six packet records above.
template <class P>
Payload encode_packet(PacketType type, const P& p, bool with_checksum = false);

/// Peeks the packet type; fails on an empty packet.
Result<PacketHead> decode_head(const Payload& wire);
/// The packet `wire` as a P, whose fields must fill it exactly.  A
/// checksummed twin's trailer is verified and reported in P's checksum_ok
/// (the caller decides whether to reject, so it can count rejects
/// separately from undecodable packets).
template <class P>
Result<P> decode_packet(const Payload& wire);

/// The length of the stream frame at the front of `buffer`, which holds
/// at least kStreamFrameHeaderBytes.  A stream message rides the byte
/// stream as a blob, encode_payload(message).
std::uint32_t stream_frame_length(const Payload& buffer);

/// Fragment bitmap helpers.
bool bitmap_get(const Bytes& bitmap, std::uint32_t index);
void bitmap_set(Bytes& bitmap, std::uint32_t index);
Bytes make_bitmap(std::uint32_t bits);

/// A fragment bitmap in the STATUS wire layout (bits little-endian within
/// bytes) that keeps up to kInlineBits fragments inline: the per-message
/// sender and receiver state of a message up to 128 fragments (1 MiB on an
/// 8 KiB MTU) allocates nothing for its bitmap.
class FragBitmap {
 public:
  static constexpr std::uint32_t kInlineBits = 128;

  explicit FragBitmap(std::uint32_t bits = 0);

  /// Out-of-range indices read as unset, like bitmap_get.
  bool get(std::uint32_t index) const {
    return index / 8 < nbytes_ && ((bytes()[index / 8] >> (index % 8)) & 1) != 0;
  }
  /// Requires index < the constructed bit count.
  void set(std::uint32_t index);
  /// The STATUS blob.
  Bytes to_bytes() const { return Bytes(bytes(), bytes() + nbytes_); }

 private:
  const std::uint8_t* bytes() const { return heap_ ? heap_.get() : inline_.data(); }

  std::uint32_t nbytes_ = 0;
  std::array<std::uint8_t, kInlineBits / 8> inline_{};
  std::unique_ptr<std::uint8_t[]> heap_;  ///< only past kInlineBits
};

/// The RFC 6298 retransmission-timeout estimator SRUDP and stream share,
/// in integer nanoseconds, so every run replays bit for bit.  The
/// transports differ only in the bounds they instantiate it with.  srtt 0
/// means "no sample yet".
template <SimDuration kInitial, SimDuration kMin, SimDuration kMax>
class RtoEstimator {
 public:
  static_assert(0 < kMin && kMin <= kInitial && kInitial <= kMax);

  SimDuration rto() const { return rto_; }
  SimDuration srtt() const { return srtt_; }
  SimDuration rttvar() const { return rttvar_; }

  /// Folds in one Karn-filtered RTT sample `s`: the first sets srtt = s and
  /// rttvar = s/2, later ones rttvar = (3·rttvar + |srtt - s|)/4 and then
  /// srtt = (7·srtt + s)/8.  The timeout becomes srtt + 4·rttvar, clamped.
  void sample(SimDuration s) {
    if (srtt_ == 0) {
      srtt_ = s;
      rttvar_ = s / 2;
    } else {
      SimDuration err = s > srtt_ ? s - srtt_ : srtt_ - s;
      rttvar_ = (3 * rttvar_ + err) / 4;
      srtt_ = (7 * srtt_ + s) / 8;
    }
    rto_ = estimate();
  }
  /// A retransmission timeout fired: double the timeout, up to the maximum.
  void backoff() { rto_ = std::min(rto_ * 2, kMax); }
  /// Forward progress collapses any backoff to srtt + 4·rttvar (RFC 6298
  /// §5.7); before the first sample there is nothing to collapse to.
  void collapse() {
    if (srtt_ != 0) rto_ = estimate();
  }
  /// Back to the initial timeout (the estimate, if any, is kept).
  void restart() { rto_ = kInitial; }

 private:
  SimDuration estimate() const { return std::clamp(srtt_ + 4 * rttvar_, kMin, kMax); }

  SimDuration srtt_ = 0;
  SimDuration rttvar_ = 0;
  SimDuration rto_ = kInitial;
};

}  // namespace snipe::transport
