// Cryptographic hash functions, implemented from scratch.
//
// The paper authenticates resources "by the use of cryptographic hash
// functions (such as MD5 or SHA)" (§2.1) and the 1998 RC servers used
// "MD5 hashed shared secrets" (§6).  We provide both MD5 (RFC 1321) and
// SHA-256 (FIPS 180-4); new code should use SHA-256, MD5 exists for
// fidelity to the paper's RC-server authenticator.
//
// SHA-256 compresses blocks with the x86 SHA extensions (SHA-NI) when the
// CPU has them, picked once at run time; the portable rounds are the
// fallback and the reference.  Both give identical digests.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "util/bytes.hpp"
#include "util/payload.hpp"

namespace snipe::crypto {

using Digest128 = std::array<std::uint8_t, 16>;
using Digest256 = std::array<std::uint8_t, 32>;

/// Incremental MD5 (RFC 1321).
class Md5 {
 public:
  Md5();
  void update(const std::uint8_t* data, std::size_t len);
  void update(const Bytes& data) { update(data.data(), data.size()); }
  void update(const std::string& data) {
    update(reinterpret_cast<const std::uint8_t*>(data.data()), data.size());
  }
  /// Absorbs a payload segment by segment, without flattening it.
  void update(const Payload& data);
  /// Finishes the hash; the object must not be updated afterwards.
  Digest128 finish();

 private:
  std::uint32_t state_[4];
  std::uint64_t total_ = 0;
  std::uint8_t buffer_[64];
  std::size_t buffered_ = 0;
};

/// Incremental SHA-256 (FIPS 180-4).
class Sha256 {
 public:
  Sha256();
  void update(const std::uint8_t* data, std::size_t len);
  void update(const Bytes& data) { update(data.data(), data.size()); }
  void update(const std::string& data) {
    update(reinterpret_cast<const std::uint8_t*>(data.data()), data.size());
  }
  /// Absorbs a payload segment by segment, without flattening it.
  void update(const Payload& data);
  /// Finishes the hash; the object must not be updated afterwards.
  Digest256 finish();

 private:
  std::uint32_t state_[8];
  std::uint64_t total_ = 0;
  std::uint8_t buffer_[64];
  std::size_t buffered_ = 0;
};

namespace detail {
/// Compresses `nblocks` consecutive 64-byte blocks at `data` into `state`.
using Sha256Blocks = void (*)(std::uint32_t state[8], const std::uint8_t* data,
                              std::size_t nblocks);
/// The FIPS 180-4 rounds in plain C++: the fallback and the reference.
void sha256_blocks_portable(std::uint32_t state[8], const std::uint8_t* data,
                            std::size_t nblocks);
/// The block function `Sha256` uses on this CPU: SHA-NI when cpuid reports
/// it (with SSSE3 and SSE4.1), otherwise `sha256_blocks_portable`.
Sha256Blocks sha256_blocks();
}  // namespace detail

/// One-shot helpers.
Digest128 md5(const Bytes& data);
Digest128 md5(const std::string& data);
Digest256 sha256(const Bytes& data);
Digest256 sha256(const std::string& data);
Digest256 sha256(const Payload& data);

/// One digest per immutable buffer (DESIGN.md §data-plane).  seal() hashes
/// `bytes` once and returns them as a buffer carrying that digest.
Payload::Buffer seal(Bytes bytes);
/// The sealed buffer holding `content`'s bytes: the first segment's buffer
/// when provenance proves the bytes sealed (Payload::proven_digest; nothing
/// is hashed or copied); that buffer sealed in place when it is one whole
/// unsealed buffer (hashed, not copied); otherwise a flattened copy, so a
/// stored file never pins a buffer larger than itself.
Payload::Buffer seal(const Payload& content);
/// `data`'s SHA-256: the sealed digest when provenance proves it
/// (Payload::proven_digest: each segment a same-offset slice of an
/// equal-length buffer with the same seal, or memcmp-equal to the first
/// segment's sealed buffer, as a short copied tail is), costing O(segments)
/// plus the memcmp'd bytes; otherwise hashed in full, so a corrupted byte,
/// which always lands on an unsealed clone, still shows.
Digest256 verified_sha256(const Payload& data);

/// Lowercase hex of a digest.
template <std::size_t N>
std::string digest_hex(const std::array<std::uint8_t, N>& d) {
  return hex_encode(d.data(), d.size());
}

/// HMAC-SHA256 (RFC 2104); used for authenticated RM<->resource channels
/// (§4's "authenticated connection ... without signatures" optimization).
Digest256 hmac_sha256(const Bytes& key, const Bytes& message);

}  // namespace snipe::crypto
