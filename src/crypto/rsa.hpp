// RSA signatures over SHA-256, from scratch.
//
// SNIPE's §4 trust flows sign three kinds of statement: key certificates
// (signed RC metadata subsets), user grants, and host attestations.  All
// use this primitive.  Padding is the deterministic EMSA-PKCS1-v1_5 shape
// (00 01 FF..FF 00 || digest) without the ASN.1 DigestInfo wrapper — the
// verifier reconstructs the same encoding, so interop with external tools
// is not a goal and the omission is safe here.
//
// Key sizes default to 512 bits: large enough to exercise every code path,
// small enough that keygen inside unit tests stays fast.  This is a
// simulation fidelity trade-off, not a recommendation.
#pragma once

#include <string>

#include "crypto/bignum.hpp"
#include "crypto/hash.hpp"
#include "util/codec.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"

namespace snipe::crypto {

/// Public half of a key pair; safe to publish as RC metadata (§3.1).
struct PublicKey {
  BigUInt n;  ///< modulus
  BigUInt e;  ///< public exponent (65537)

  bool empty() const { return n.is_zero(); }
  /// Stable serialization for hashing, storage and wire transfer: n and e
  /// as big-endian blobs.
  template <class Io>
  void fields(Io& io) {
    Bytes n_bytes = n.to_bytes(), e_bytes = e.to_bytes();
    io(n_bytes, e_bytes);
    if constexpr (Io::reading) {
      n = BigUInt::from_bytes(n_bytes);
      e = BigUInt::from_bytes(e_bytes);
    }
  }
  Result<void> check() const {
    if (n.is_zero() || e.is_zero()) return Error{Errc::corrupt, "zero RSA parameter"};
    return ok_result();
  }
  /// SHA-256 of the encoding — the key's fingerprint, used as a compact
  /// identity in metadata.
  std::string fingerprint() const;
  friend bool operator==(const PublicKey&, const PublicKey&);
};

/// Private half; never serialized by SNIPE components ("a host's public key
/// is never transmitted to any other host" — §4 says even exposure of the
/// *public* key is minimized; the private key certainly never leaves).
struct PrivateKey {
  BigUInt n;
  BigUInt d;
};

struct KeyPair {
  PublicKey pub;
  PrivateKey priv;
};

/// Generates an RSA key pair with a `bits`-bit modulus (e = 65537).
KeyPair generate_keypair(Rng& rng, std::size_t bits = 512);

/// Signs SHA-256(message).
Bytes sign(const PrivateKey& key, const Bytes& message);
Bytes sign(const PrivateKey& key, const std::string& message);

/// Verifies a signature made by `sign`.
bool verify(const PublicKey& key, const Bytes& message, const Bytes& signature);
bool verify(const PublicKey& key, const std::string& message, const Bytes& signature);

/// Public-key encryption of a short message (<= modulus bytes - 11), with
/// RSAES-PKCS1-v1_5 style random padding.  SNIPE uses this only to ship
/// session keys for the §4 authenticated-channel optimization; bulk data
/// is never RSA-encrypted.
Result<Bytes> encrypt(const PublicKey& key, const Bytes& message, Rng& rng);
Result<Bytes> decrypt(const PrivateKey& key, const Bytes& ciphertext);

}  // namespace snipe::crypto
