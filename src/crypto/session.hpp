// Authenticated sessions (§4's efficiency optimization).
//
// "Rather than having the resource manager separately sign each resource
//  authorization ... the resource manager may instead maintain an
//  authenticated connection with each of its managed resources, which is
//  able to detect connection hijacking, and transmit the resource
//  authorization without signatures."
//
// A Session is established by shipping a fresh symmetric key, RSA-encrypted
// to the responder's public key.  After that every message in either
// direction carries HMAC-SHA256(key, direction || sequence || payload):
// per-message signatures are replaced by one MAC, and the monotonically
// checked sequence numbers make splicing/replay (connection hijacking)
// detectable.  This is the paper's pre-TLS stand-in; the handshake shape
// matches what §4 describes rather than the full TLS 1.0 state machine.
#pragma once

#include <cstdint>

#include "crypto/hash.hpp"
#include "crypto/rsa.hpp"

namespace snipe::crypto {

/// A sealed message on the wire: sequence number, payload and MAC.
struct SealedFrame {
  std::uint64_t seq = 0;
  Bytes payload;
  Digest256 mac{};

  template <class Io>
  void fields(Io& io) {
    io(seq, payload, mac);
  }
};

class Session {
 public:
  /// Initiator side: generates a session key and the hello blob to send.
  /// The hello is bound to the responder's key — only they can open it.
  static Result<std::pair<Session, Bytes>> initiate(const PublicKey& responder, Rng& rng);

  /// Responder side: opens a hello produced by `initiate`.
  static Result<Session> accept(const PrivateKey& own_key, const Bytes& hello);

  /// Wraps a payload for sending: appends sequence number + MAC.
  Bytes seal(const Bytes& payload);

  /// Verifies and unwraps a received message.  Fails with Errc::corrupt on
  /// a bad MAC and Errc::permission_denied on a sequence rollback/replay —
  /// the "connection hijacking" detections of §4.
  Result<Bytes> open(const Payload& sealed);

  std::uint64_t sent() const { return send_seq_; }
  std::uint64_t received() const { return recv_seq_; }

 private:
  Session(Bytes key, bool initiator) : key_(std::move(key)), initiator_(initiator) {}
  Digest256 mac(bool from_initiator, std::uint64_t seq, const Bytes& payload) const;

  Bytes key_;
  bool initiator_;
  std::uint64_t send_seq_ = 0;
  std::uint64_t recv_seq_ = 0;
};

}  // namespace snipe::crypto
