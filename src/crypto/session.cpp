#include "crypto/session.hpp"

namespace snipe::crypto {

namespace {
constexpr std::size_t kSessionKeyBytes = 32;
}

Result<std::pair<Session, Bytes>> Session::initiate(const PublicKey& responder, Rng& rng) {
  Bytes key(kSessionKeyBytes);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next_u64());
  auto hello = encrypt(responder, key, rng);
  if (!hello) return hello.error();
  return std::make_pair(Session(std::move(key), /*initiator=*/true),
                        std::move(hello).take());
}

Result<Session> Session::accept(const PrivateKey& own_key, const Bytes& hello) {
  auto key = decrypt(own_key, hello);
  if (!key) return key.error();
  if (key.value().size() != kSessionKeyBytes)
    return Error{Errc::corrupt, "unexpected session key size"};
  return Session(std::move(key).take(), /*initiator=*/false);
}

Digest256 Session::mac(bool from_initiator, std::uint64_t seq, const Bytes& payload) const {
  return hmac_sha256(key_, encode(from_initiator, seq, payload));
}

Bytes Session::seal(const Bytes& payload) {
  std::uint64_t seq = ++send_seq_;
  return encode(SealedFrame{seq, payload, mac(initiator_, seq, payload)});
}

Result<Bytes> Session::open(const Payload& sealed) {
  auto frame = decode<SealedFrame>(sealed);
  if (!frame) return frame.error();
  const SealedFrame& f = frame.value();
  // MAC first: an attacker must not learn whether the sequence was right.
  if (mac(!initiator_, f.seq, f.payload) != f.mac)
    return Error{Errc::corrupt, "session MAC mismatch"};
  if (f.seq <= recv_seq_)
    return Error{Errc::permission_denied, "session replay or rollback detected"};
  recv_seq_ = f.seq;
  return std::move(frame.value().payload);
}

}  // namespace snipe::crypto
