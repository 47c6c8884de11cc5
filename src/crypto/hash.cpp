#include "crypto/hash.hpp"

#include <algorithm>
#include <cstring>

#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
#define SNIPE_SHA_NI 1
#include <cpuid.h>
#include <immintrin.h>
#else
#define SNIPE_SHA_NI 0
#endif

namespace snipe::crypto {

namespace {

std::uint32_t rotl32(std::uint32_t x, int k) { return (x << k) | (x >> (32 - k)); }
std::uint32_t rotr32(std::uint32_t x, int k) { return (x >> k) | (x << (32 - k)); }

std::uint32_t load_le32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 | std::uint32_t{p[2]} << 16 |
         std::uint32_t{p[3]} << 24;
}

std::uint32_t load_be32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} << 24 | std::uint32_t{p[1]} << 16 | std::uint32_t{p[2]} << 8 |
         std::uint32_t{p[3]};
}

void store_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

// MD5 per-round constants (RFC 1321 §3.4): T[i] = floor(2^32 * |sin(i+1)|).
constexpr std::uint32_t kMd5T[64] = {
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613,
    0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193,
    0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d,
    0x02441453, 0xd8a1e681, 0xe7d3fbc8, 0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed,
    0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122,
    0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
    0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665, 0xf4292244,
    0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb,
    0xeb86d391};

constexpr int kMd5Shift[64] = {7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
                               5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,
                               4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
                               6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21};

// SHA-256 round constants (FIPS 180-4 §4.2.2).
constexpr std::uint32_t kShaK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

// Feeds `data` through a 64-byte block buffer: tops up a partial block
// first, then hands every whole block to `blocks` straight from `data`, and
// keeps the tail for the next call.
template <typename Blocks>
void absorb(std::uint8_t (&buffer)[64], std::size_t& buffered, const std::uint8_t* data,
            std::size_t len, Blocks blocks) {
  if (buffered > 0) {
    std::size_t take = std::min(len, sizeof(buffer) - buffered);
    if (take > 0) std::memcpy(buffer + buffered, data, take);
    buffered += take;
    data += take;
    len -= take;
    if (buffered < sizeof(buffer)) return;
    blocks(buffer, 1);
    buffered = 0;
  }
  if (std::size_t whole = len / 64; whole > 0) {
    blocks(data, whole);
    data += whole * 64;
    len -= whole * 64;
  }
  if (len > 0) std::memcpy(buffer, data, len);
  buffered = len;
}

// Merkle–Damgård padding: 0x80, zeros up to byte 56 of the last block,
// then the 8-byte message length; compresses the one or two final blocks.
template <typename Blocks>
void pad_and_flush(std::uint8_t (&buffer)[64], std::size_t buffered,
                   const std::uint8_t (&length)[8], Blocks blocks) {
  buffer[buffered++] = 0x80;
  if (buffered > 56) {
    std::memset(buffer + buffered, 0, sizeof(buffer) - buffered);
    blocks(buffer, 1);
    buffered = 0;
  }
  std::memset(buffer + buffered, 0, 56 - buffered);
  std::memcpy(buffer + 56, length, sizeof(length));
  blocks(buffer, 1);
}

void md5_blocks(std::uint32_t state[4], const std::uint8_t* data, std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, data += 64) {
    std::uint32_t m[16];
    for (int i = 0; i < 16; ++i) m[i] = load_le32(data + i * 4);
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    for (int i = 0; i < 64; ++i) {
      std::uint32_t f;
      int g;
      if (i < 16) {
        f = (b & c) | (~b & d);
        g = i;
      } else if (i < 32) {
        f = (d & b) | (~d & c);
        g = (5 * i + 1) % 16;
      } else if (i < 48) {
        f = b ^ c ^ d;
        g = (3 * i + 5) % 16;
      } else {
        f = c ^ (b | ~d);
        g = (7 * i) % 16;
      }
      std::uint32_t tmp = d;
      d = c;
      c = b;
      b = b + rotl32(a + f + kMd5T[i] + m[g], kMd5Shift[i]);
      a = tmp;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
  }
}

#if SNIPE_SHA_NI
// SHA-256 on the x86 SHA extensions.  The state lives in two registers as
// ABEF and CDGH (the layout sha256rnds2 wants); each group of four rounds
// adds its message words to the round constants, and sha256msg1/msg2 extend
// the schedule four words at a time.
__attribute__((target("sha,sse4.1,ssse3"))) void sha256_blocks_shani(
    std::uint32_t state[8], const std::uint8_t* data, std::size_t nblocks) {
  const __m128i byteswap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; nblocks > 0; --nblocks, data += 64) {
    const __m128i abef_in = abef, cdgh_in = cdgh;
    __m128i w[4];  // the last four groups of message words, w[g % 4]
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i m;
      if (g < 4) {
        m = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)), byteswap);
      } else {
        m = _mm_sha256msg1_epu32(w[g % 4], w[(g + 1) % 4]);
        m = _mm_add_epi32(m, _mm_alignr_epi8(w[(g + 3) % 4], w[(g + 2) % 4], 4));
        m = _mm_sha256msg2_epu32(m, w[(g + 3) % 4]);
      }
      w[g % 4] = m;
      __m128i wk =
          _mm_add_epi32(m, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kShaK + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}

bool cpu_has_sha_ni() {
  unsigned a, b, c, d;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return false;
  const bool ssse3 = c & (1u << 9), sse41 = c & (1u << 19);
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
  return ssse3 && sse41 && (b & (1u << 29));
}
#endif

}  // namespace

namespace detail {

void sha256_blocks_portable(std::uint32_t state[8], const std::uint8_t* data,
                            std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(data + i * 4);
    for (int i = 16; i < 64; ++i) {
      std::uint32_t s0 = rotr32(w[i - 15], 7) ^ rotr32(w[i - 15], 18) ^ (w[i - 15] >> 3);
      std::uint32_t s1 = rotr32(w[i - 2], 17) ^ rotr32(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      std::uint32_t s1 = rotr32(e, 6) ^ rotr32(e, 11) ^ rotr32(e, 25);
      std::uint32_t ch = (e & f) ^ (~e & g);
      std::uint32_t t1 = h + s1 + ch + kShaK[i] + w[i];
      std::uint32_t s0 = rotr32(a, 2) ^ rotr32(a, 13) ^ rotr32(a, 22);
      std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

Sha256Blocks sha256_blocks() {
  // A function-local static: initialised once, race-free, on first use.
  static const Sha256Blocks chosen = [] {
#if SNIPE_SHA_NI
    if (cpu_has_sha_ni()) return &sha256_blocks_shani;
#endif
    return &sha256_blocks_portable;
  }();
  return chosen;
}

}  // namespace detail

Md5::Md5() {
  state_[0] = 0x67452301;
  state_[1] = 0xefcdab89;
  state_[2] = 0x98badcfe;
  state_[3] = 0x10325476;
}

void Md5::update(const std::uint8_t* data, std::size_t len) {
  total_ += len;
  absorb(buffer_, buffered_, data, len,
         [this](const std::uint8_t* p, std::size_t n) { md5_blocks(state_, p, n); });
}

Digest128 Md5::finish() {
  std::uint64_t bit_len = total_ * 8;
  std::uint8_t len_le[8];
  for (int i = 0; i < 8; ++i) len_le[i] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  pad_and_flush(buffer_, buffered_, len_le,
                [this](const std::uint8_t* p, std::size_t n) { md5_blocks(state_, p, n); });
  Digest128 out;
  for (int i = 0; i < 4; ++i) store_le32(out.data() + i * 4, state_[i]);
  return out;
}

Sha256::Sha256() {
  static constexpr std::uint32_t init[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::memcpy(state_, init, sizeof(state_));
}

void Sha256::update(const std::uint8_t* data, std::size_t len) {
  total_ += len;
  absorb(buffer_, buffered_, data, len, [this](const std::uint8_t* p, std::size_t n) {
    detail::sha256_blocks()(state_, p, n);
  });
}

Digest256 Sha256::finish() {
  std::uint64_t bit_len = total_ * 8;
  std::uint8_t len_be[8];
  for (int i = 0; i < 8; ++i) len_be[i] = static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
  pad_and_flush(buffer_, buffered_, len_be, [this](const std::uint8_t* p, std::size_t n) {
    detail::sha256_blocks()(state_, p, n);
  });
  Digest256 out;
  for (int i = 0; i < 8; ++i) store_be32(out.data() + i * 4, state_[i]);
  return out;
}

Digest128 md5(const Bytes& data) {
  Md5 h;
  h.update(data);
  return h.finish();
}

Digest128 md5(const std::string& data) {
  Md5 h;
  h.update(data);
  return h.finish();
}

Digest256 sha256(const Bytes& data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Digest256 sha256(const std::string& data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

void Md5::update(const Payload& data) {
  for (std::size_t i = 0; i < data.segment_count(); ++i)
    update(data.segment(i).data(), data.segment(i).len);
}

void Sha256::update(const Payload& data) {
  for (std::size_t i = 0; i < data.segment_count(); ++i)
    update(data.segment(i).data(), data.segment(i).len);
}

Digest256 sha256(const Payload& data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Payload::Buffer seal(Bytes bytes) {
  Digest256 d = sha256(bytes);
  return Payload::seal(std::move(bytes), d);
}

Payload::Buffer seal(const Payload& content) {
  if (content.proven_digest() != nullptr) return content.segment(0).buf;
  if (content.segment_count() == 1 && content.size() == content.segment(0).buf->size())
    return Payload::seal(content.segment(0).buf, sha256(content));
  return seal(content.to_bytes());
}

Digest256 verified_sha256(const Payload& data) {
  if (const Payload::Digest* d = data.proven_digest()) return *d;
  return sha256(data);
}

Digest256 hmac_sha256(const Bytes& key, const Bytes& message) {
  Bytes k = key;
  if (k.size() > 64) {
    auto d = sha256(k);
    k.assign(d.begin(), d.end());
  }
  k.resize(64, 0);
  Bytes ipad(64), opad(64);
  for (int i = 0; i < 64; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }
  Sha256 inner;
  inner.update(ipad);
  inner.update(message);
  auto inner_digest = inner.finish();
  Sha256 outer;
  outer.update(opad);
  outer.update(inner_digest.data(), inner_digest.size());
  return outer.finish();
}

}  // namespace snipe::crypto
