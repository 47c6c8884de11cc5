#include "crypto/rsa.hpp"

namespace snipe::crypto {

std::string PublicKey::fingerprint() const {
  return digest_hex(sha256(encode(*this))).substr(0, 16);
}

bool operator==(const PublicKey& a, const PublicKey& b) { return a.n == b.n && a.e == b.e; }

KeyPair generate_keypair(Rng& rng, std::size_t bits) {
  const BigUInt e(65537);
  while (true) {
    BigUInt p = BigUInt::random_prime(rng, bits / 2);
    BigUInt q = BigUInt::random_prime(rng, bits - bits / 2);
    if (p == q) continue;
    BigUInt n = BigUInt::mul(p, q);
    BigUInt phi = BigUInt::mul(BigUInt::sub(p, BigUInt(1)), BigUInt::sub(q, BigUInt(1)));
    if (BigUInt::gcd(e, phi) != BigUInt(1)) continue;
    BigUInt d = BigUInt::mod_inverse(e, phi);
    if (d.is_zero()) continue;
    KeyPair kp;
    kp.pub = PublicKey{n, e};
    kp.priv = PrivateKey{n, d};
    return kp;
  }
}

namespace {
// EMSA-PKCS1-v1_5 shape: 00 01 FF..FF 00 || SHA-256 digest, sized to the
// modulus byte length.
Bytes encode_digest(const Digest256& digest, std::size_t modulus_bytes) {
  Bytes em(modulus_bytes, 0xff);
  em[0] = 0x00;
  em[1] = 0x01;
  em[modulus_bytes - digest.size() - 1] = 0x00;
  std::copy(digest.begin(), digest.end(), em.end() - digest.size());
  return em;
}
}  // namespace

Bytes sign(const PrivateKey& key, const Bytes& message) {
  auto digest = sha256(message);
  std::size_t modulus_bytes = (key.n.bit_length() + 7) / 8;
  Bytes em = encode_digest(digest, modulus_bytes);
  BigUInt m = BigUInt::from_bytes(std::vector<std::uint8_t>(em.begin(), em.end()));
  BigUInt s = BigUInt::mod_pow(m, key.d, key.n);
  auto sig = s.to_bytes();
  // Left-pad to the modulus size so signatures are fixed-width.
  Bytes out(modulus_bytes - sig.size(), 0);
  out.insert(out.end(), sig.begin(), sig.end());
  return out;
}

Bytes sign(const PrivateKey& key, const std::string& message) {
  return sign(key, to_bytes(message));
}

bool verify(const PublicKey& key, const Bytes& message, const Bytes& signature) {
  if (key.empty() || signature.empty()) return false;
  std::size_t modulus_bytes = (key.n.bit_length() + 7) / 8;
  if (signature.size() != modulus_bytes) return false;
  BigUInt s = BigUInt::from_bytes(std::vector<std::uint8_t>(signature.begin(), signature.end()));
  if (s >= key.n) return false;
  BigUInt m = BigUInt::mod_pow(s, key.e, key.n);
  auto em_bytes = m.to_bytes();
  Bytes em(modulus_bytes - em_bytes.size(), 0);
  em.insert(em.end(), em_bytes.begin(), em_bytes.end());
  auto digest = sha256(message);
  Bytes expected = encode_digest(digest, modulus_bytes);
  return em == expected;
}

bool verify(const PublicKey& key, const std::string& message, const Bytes& signature) {
  return verify(key, to_bytes(message), signature);
}

Result<Bytes> encrypt(const PublicKey& key, const Bytes& message, Rng& rng) {
  std::size_t modulus_bytes = (key.n.bit_length() + 7) / 8;
  if (modulus_bytes < 11 || message.size() > modulus_bytes - 11)
    return Error{Errc::invalid_argument,
                 "message too long for " + std::to_string(modulus_bytes * 8) + "-bit RSA"};
  // EME-PKCS1-v1_5: 00 02 <nonzero random> 00 <message>.
  Bytes em(modulus_bytes);
  em[0] = 0x00;
  em[1] = 0x02;
  std::size_t pad_len = modulus_bytes - message.size() - 3;
  for (std::size_t i = 0; i < pad_len; ++i) {
    std::uint8_t b;
    do {
      b = static_cast<std::uint8_t>(rng.next_u64());
    } while (b == 0);
    em[2 + i] = b;
  }
  em[2 + pad_len] = 0x00;
  std::copy(message.begin(), message.end(), em.begin() + 3 + pad_len);
  BigUInt m = BigUInt::from_bytes(std::vector<std::uint8_t>(em.begin(), em.end()));
  BigUInt c = BigUInt::mod_pow(m, key.e, key.n);
  auto cipher = c.to_bytes();
  Bytes out(modulus_bytes - cipher.size(), 0);
  out.insert(out.end(), cipher.begin(), cipher.end());
  return out;
}

Result<Bytes> decrypt(const PrivateKey& key, const Bytes& ciphertext) {
  std::size_t modulus_bytes = (key.n.bit_length() + 7) / 8;
  if (ciphertext.size() != modulus_bytes)
    return Error{Errc::corrupt, "ciphertext size mismatch"};
  BigUInt c =
      BigUInt::from_bytes(std::vector<std::uint8_t>(ciphertext.begin(), ciphertext.end()));
  if (c >= key.n) return Error{Errc::corrupt, "ciphertext out of range"};
  BigUInt m = BigUInt::mod_pow(c, key.d, key.n);
  auto em_bytes = m.to_bytes();
  Bytes em(modulus_bytes - em_bytes.size(), 0);
  em.insert(em.end(), em_bytes.begin(), em_bytes.end());
  if (em.size() < 11 || em[0] != 0x00 || em[1] != 0x02)
    return Error{Errc::corrupt, "bad encryption padding"};
  std::size_t sep = 2;
  while (sep < em.size() && em[sep] != 0x00) ++sep;
  if (sep == em.size() || sep < 10) return Error{Errc::corrupt, "bad encryption padding"};
  return Bytes(em.begin() + sep + 1, em.end());
}

}  // namespace snipe::crypto
