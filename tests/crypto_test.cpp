// Unit tests for snipe_crypto: hashes against RFC vectors, bignum algebra,
// RSA sign/verify, and the §4 certificate / trust-store flows.
#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>
#include <random>
#include <thread>
#include <vector>

#include "crypto/bignum.hpp"
#include "crypto/hash.hpp"
#include "crypto/identity.hpp"
#include "crypto/rsa.hpp"

namespace snipe::crypto {
namespace {

// ---- MD5: RFC 1321 appendix A.5 test suite ----

TEST(Md5, Rfc1321Vectors) {
  EXPECT_EQ(digest_hex(md5(std::string(""))), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(digest_hex(md5(std::string("a"))), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(digest_hex(md5(std::string("abc"))), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(digest_hex(md5(std::string("message digest"))),
            "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(digest_hex(md5(std::string("abcdefghijklmnopqrstuvwxyz"))),
            "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(digest_hex(md5(std::string(
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"))),
            "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(digest_hex(md5(std::string("1234567890123456789012345678901234567890"
                                       "1234567890123456789012345678901234567890"))),
            "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5, IncrementalMatchesOneShot) {
  std::string text = "The quick brown fox jumps over the lazy dog";
  Md5 h;
  for (char c : text) h.update(std::string(1, c));
  EXPECT_EQ(digest_hex(h.finish()), digest_hex(md5(text)));
}

// ---- SHA-256: FIPS 180-4 / NIST vectors ----

TEST(Sha256, NistVectors) {
  EXPECT_EQ(digest_hex(sha256(std::string(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(digest_hex(sha256(std::string("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(digest_hex(sha256(std::string(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  // 896-bit message: the padding spills into a second block.
  EXPECT_EQ(digest_hex(sha256(std::string(
                "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnop"
                "qklmnopqrlmnopqrsmnopqrstnopqrstu"))),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(digest_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, BoundaryLengths) {
  // Padding boundary cases: 55, 56, 63, 64, 65 bytes.
  for (std::size_t n : {55u, 56u, 63u, 64u, 65u}) {
    std::string data(n, 'x');
    Sha256 incremental;
    incremental.update(data.substr(0, n / 2));
    incremental.update(data.substr(n / 2));
    EXPECT_EQ(digest_hex(incremental.finish()), digest_hex(sha256(data))) << n;
  }
}

// The dispatched block function (SHA-NI on CPUs that have it) against the
// portable reference: every length 0..1100 at start offsets +0..+15 (the
// whole blocks are compressed straight from the unaligned input), Sha256's
// own buffering at random update split points, and one 1 MiB buffer.
TEST(Sha256, AcceleratedMatchesPortable) {
  const detail::Sha256Blocks live = detail::sha256_blocks();
  const detail::Sha256Blocks portable = &detail::sha256_blocks_portable;
  std::cout << "[ sha256   ] live block path: "
            << (live == portable ? "portable" : "accelerated (SHA-NI)") << "\n";

  // SHA-256 of p[0, len) with `blocks` as the only compression function.
  auto digest_with = [](detail::Sha256Blocks blocks, const std::uint8_t* p, std::size_t len) {
    std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                              0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    const std::size_t whole = len / 64;
    blocks(state, p, whole);
    std::vector<std::uint8_t> tail(p + whole * 64, p + len);
    tail.push_back(0x80);
    while (tail.size() % 64 != 56) tail.push_back(0);
    const std::uint64_t bits = std::uint64_t{len} * 8;
    for (int i = 7; i >= 0; --i) tail.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
    blocks(state, tail.data(), tail.size() / 64);
    Digest256 out;
    for (int i = 0; i < 32; ++i)
      out[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
    return out;
  };
  // Sha256 fed p[0, len) in updates of the given sizes.
  auto incremental = [](const std::uint8_t* p, const std::vector<std::size_t>& pieces) {
    Sha256 h;
    for (std::size_t n : pieces) {
      h.update(p, n);
      p += n;
    }
    return h.finish();
  };

  std::mt19937_64 rng(20261017);
  std::vector<std::uint8_t> pool(1100 + 15);
  for (auto& b : pool) b = static_cast<std::uint8_t>(rng());
  for (std::size_t len = 0; len <= 1100; ++len) {
    for (std::size_t off = 0; off < 16; ++off) {
      const std::uint8_t* p = pool.data() + off;
      const Digest256 want = digest_with(portable, p, len);
      ASSERT_EQ(digest_with(live, p, len), want) << "len " << len << " offset " << off;
      ASSERT_EQ(incremental(p, {len}), want) << "len " << len << " offset " << off;
    }
    std::vector<std::size_t> pieces;
    for (std::size_t left = len; left > 0; left -= pieces.back())
      pieces.push_back(std::min<std::size_t>(left, rng() % 200));
    const std::uint8_t* p = pool.data() + len % 16;
    ASSERT_EQ(incremental(p, pieces), digest_with(portable, p, len))
        << "len " << len << " in " << pieces.size() << " updates";
  }

  std::vector<std::uint8_t> big((1u << 20) + 3);
  for (auto& b : big) b = static_cast<std::uint8_t>(rng());
  const std::uint8_t* p = big.data() + 3;
  const Digest256 want = digest_with(portable, p, 1u << 20);
  EXPECT_EQ(digest_with(live, p, 1u << 20), want);
  EXPECT_EQ(sha256(Bytes(p, p + (1u << 20))), want);
}

// Sharded worlds hash on worker threads, so the first call that picks the
// block function may come from several threads at once.  ctest runs each
// test in its own process, where this is that first call.
TEST(Sha256, ConcurrentFirstUseAgrees) {
  std::vector<std::string> got(4);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < got.size(); ++i)
    threads.emplace_back([&got, i] { got[i] = digest_hex(sha256(std::string("abc"))); });
  for (auto& t : threads) t.join();
  for (const auto& g : got)
    EXPECT_EQ(g, "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// ---- HMAC-SHA256: RFC 4231 vectors ----

TEST(Sha256, PayloadIsHashedOverItsSegmentsWithoutFlattening) {
  Bytes whole(1000);
  for (std::size_t i = 0; i < whole.size(); ++i) whole[i] = static_cast<std::uint8_t>(i * 31);
  Payload split(Bytes(whole.begin(), whole.begin() + 333));
  split.append(Payload(Bytes(whole.begin() + 333, whole.end())));
  ASSERT_EQ(split.segment_count(), 2u);
  EXPECT_EQ(sha256(split), sha256(whole));
  Md5 h;
  h.update(split);
  EXPECT_EQ(h.finish(), md5(whole));
}

TEST(Sha256, VerifiedDigestTakesASealOnlyWhereProvenanceProvesIt) {
  Bytes bytes(5000, 0x42);
  Payload::Buffer sealed = seal(bytes);
  ASSERT_NE(Payload::sealed_digest(sealed), nullptr);
  EXPECT_EQ(*Payload::sealed_digest(sealed), sha256(bytes));
  EXPECT_EQ(verified_sha256(Payload(sealed)), sha256(bytes));

  // A seal that lies (sealed with another buffer's digest) shows which path
  // ran: the whole sealed buffer takes the seal without hashing a byte; a
  // shorter slice of it, or its first and only segment cloned, has no
  // sealed reference and is hashed in full.
  const Digest256 lie = sha256(to_bytes("not these bytes"));
  Payload::Buffer lying = Payload::seal(bytes, lie);
  EXPECT_EQ(verified_sha256(Payload(lying)), lie);
  Payload halves = Payload(lying, 0, 2500);
  halves.append(Payload(lying, 2500, 2500));  // coalesces back whole
  EXPECT_EQ(verified_sha256(halves), lie);
  EXPECT_EQ(verified_sha256(Payload(lying, 0, 4999)), sha256(Bytes(4999, 0x42)));
  Payload cloned(lying);
  cloned.cow_xor(0, 0x01);
  cloned.cow_xor(0, 0x01);  // flipped back: same bytes, but a fresh buffer
  EXPECT_EQ(cloned.to_bytes(), bytes);
  EXPECT_EQ(verified_sha256(cloned), sha256(bytes));
}

/// The chunks of a striped read served by two replicas: kChunk-byte slices
/// at their own offsets, from `even` for even chunk indices and from `odd`
/// for odd ones, up to `end`.
constexpr std::size_t kChunk = 1024;
constexpr std::size_t kCopySize = 8 * kChunk + 100;  // a 100-byte last chunk

Payload stripes_of(const Payload::Buffer& even, const Payload::Buffer& odd,
                   std::size_t end = kCopySize) {
  Payload p;
  for (std::size_t off = 0, c = 0; off < end; off += kChunk, ++c)
    p.append(Payload(c % 2 == 0 ? even : odd, off, std::min(kChunk, end - off)));
  return p;
}

/// Bytes that differ from their neighbours, so a slice shifted by one byte
/// does not compare equal.
Bytes varied(std::size_t n, std::uint8_t salt) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::uint8_t>(i * 31 + salt);
  return b;
}

TEST(Sha256, VerifiedDigestProvesInterleavedSealedCopiesAndACopiedTail) {
  // Two equal copies sealed with the same lie, as two file servers hold
  // them: a payload alternating between them at matching offsets takes the
  // lie without hashing a byte.
  const Bytes bytes = varied(kCopySize, 0);
  const Digest256 lie = sha256(to_bytes("not these bytes"));
  Payload::Buffer a = Payload::seal(bytes, lie);
  Payload::Buffer b = Payload::seal(bytes, lie);
  const Payload both = stripes_of(a, b);
  ASSERT_EQ(both.segment_count(), 9u);
  EXPECT_EQ(verified_sha256(both), lie);

  // A short unsealed tail (RPC framing copies a body segment under 512 B
  // into its header chunk) is compared with the first copy's bytes.
  Payload tailed = stripes_of(a, b, 8 * kChunk);
  tailed.append(Payload(Bytes(bytes.end() - 100, bytes.end())));
  ASSERT_EQ(tailed.segment_count(), 9u);
  EXPECT_EQ(verified_sha256(tailed), lie);
  Bytes flipped_tail(bytes.end() - 100, bytes.end());
  flipped_tail[42] ^= 0x01;
  Payload bad_tail = stripes_of(a, b, 8 * kChunk);
  bad_tail.append(Payload(std::move(flipped_tail)));
  EXPECT_EQ(verified_sha256(bad_tail), sha256(bad_tail.to_bytes()));
  EXPECT_NE(verified_sha256(bad_tail), lie);

  // Everything the rule cannot prove is hashed.  One slice shifted by one
  // byte:
  Payload shifted = stripes_of(a, b, 3 * kChunk);
  shifted.append(Payload(b, 3 * kChunk + 1, kChunk));
  shifted.append(Payload(a, 4 * kChunk, kCopySize - 4 * kChunk));
  ASSERT_EQ(shifted.size(), kCopySize);
  EXPECT_EQ(verified_sha256(shifted), sha256(shifted.to_bytes()));
  EXPECT_NE(verified_sha256(shifted), lie);
  // a first copy one byte longer than the payload:
  Bytes longer_bytes = bytes;
  longer_bytes.push_back(0);
  const Payload longer = stripes_of(Payload::seal(longer_bytes, lie), b);
  ASSERT_EQ(longer.size(), kCopySize);
  EXPECT_EQ(verified_sha256(longer), sha256(bytes));
  // a second copy with other bytes and another digest:
  const Digest256 other_lie = sha256(to_bytes("nor these"));
  const Payload mixed = stripes_of(a, Payload::seal(varied(kCopySize, 7), other_lie));
  EXPECT_EQ(verified_sha256(mixed), sha256(mixed.to_bytes()));
  EXPECT_NE(verified_sha256(mixed), lie);
  // a chunk a fault flipped, which lands on an unsealed clone:
  Payload corrupted = both;
  corrupted.cow_xor(3 * kChunk + 5, 0x01);
  EXPECT_EQ(verified_sha256(corrupted), sha256(corrupted.to_bytes()));
  EXPECT_NE(verified_sha256(corrupted), lie);

  // Sealing a proven payload returns its first copy: no hash, no copy.
  EXPECT_EQ(seal(both), a);
  EXPECT_EQ(seal(tailed), a);
  EXPECT_EQ(*Payload::sealed_digest(seal(tailed)), lie);
}

TEST(Sha256, SealingAPayloadReusesCopiesOrWrapsAsItMust) {
  Bytes bytes(300, 0x07);
  Payload::Buffer sealed = seal(bytes);
  // Already one whole sealed buffer: the very same buffer comes back.
  EXPECT_EQ(seal(Payload(sealed)), sealed);
  // One whole unsealed buffer: sealed in place, no copy.
  Payload plain(bytes);
  Payload::Buffer wrapped = seal(plain);
  EXPECT_EQ(wrapped->data(), plain.data());
  EXPECT_EQ(*Payload::sealed_digest(wrapped), sha256(bytes));
  // A slice of a larger buffer: copied, so the stored file never pins the
  // rest of that buffer.
  Payload part(sealed, 100, 100);
  Payload::Buffer copied = seal(part);
  EXPECT_EQ(copied->size(), 100u);
  EXPECT_NE(copied->data(), part.segment(0).data());
  EXPECT_EQ(*Payload::sealed_digest(copied), sha256(Bytes(100, 0x07)));
}

TEST(Hmac, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  auto mac = hmac_sha256(key, to_bytes("Hi There"));
  EXPECT_EQ(digest_hex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  auto mac = hmac_sha256(to_bytes("Jefe"), to_bytes("what do ya want for nothing?"));
  EXPECT_EQ(digest_hex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  Bytes key(131, 0xaa);  // RFC 4231 case 6
  auto mac = hmac_sha256(key, to_bytes("Test Using Larger Than Block-Size Key - Hash"
                                       " Key First"));
  EXPECT_EQ(digest_hex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// ---- BigUInt ----

TEST(BigUInt, HexRoundTrip) {
  auto v = BigUInt::from_hex("deadbeefcafebabe0123456789");
  EXPECT_EQ(v.to_hex(), "deadbeefcafebabe0123456789");
  EXPECT_EQ(BigUInt(0).to_hex(), "0");
  EXPECT_EQ(BigUInt::from_hex("000000ff").to_hex(), "ff");
}

TEST(BigUInt, BytesRoundTrip) {
  std::vector<std::uint8_t> be{0x01, 0x02, 0x03, 0x04, 0x05};
  auto v = BigUInt::from_bytes(be);
  EXPECT_EQ(v.to_bytes(), be);
  EXPECT_EQ(v.to_hex(), "102030405");
}

TEST(BigUInt, AddSubInverse) {
  auto a = BigUInt::from_hex("ffffffffffffffffffffffff");
  auto b = BigUInt::from_hex("123456789abcdef");
  auto sum = BigUInt::add(a, b);
  EXPECT_EQ(BigUInt::sub(sum, b), a);
  EXPECT_EQ(BigUInt::sub(sum, a), b);
}

TEST(BigUInt, CarryPropagation) {
  auto a = BigUInt::from_hex("ffffffff");
  EXPECT_EQ(BigUInt::add(a, BigUInt(1)).to_hex(), "100000000");
  EXPECT_EQ(BigUInt::sub(BigUInt::from_hex("100000000"), BigUInt(1)).to_hex(), "ffffffff");
}

TEST(BigUInt, MulMatchesKnownProduct) {
  auto a = BigUInt::from_hex("1234567890abcdef");
  auto b = BigUInt::from_hex("fedcba0987654321");
  // Computed independently: 0x1234567890abcdef * 0xfedcba0987654321
  EXPECT_EQ(BigUInt::mul(a, b).to_hex(), "121fa000a3723a57c24a442fe55618cf");
}

TEST(BigUInt, DivModIdentity) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    auto a = BigUInt::random_bits(rng, 200);
    auto b = BigUInt::random_bits(rng, 60 + static_cast<std::size_t>(i));
    BigUInt q, r;
    BigUInt::divmod(a, b, q, r);
    EXPECT_LT(BigUInt::compare(r, b), 0);
    EXPECT_EQ(BigUInt::add(BigUInt::mul(q, b), r), a);
  }
}

TEST(BigUInt, Shifts) {
  auto v = BigUInt::from_hex("1");
  EXPECT_EQ(v.shifted_left(100).shifted_right(100), v);
  EXPECT_EQ(BigUInt::from_hex("ff00").shifted_right(8).to_hex(), "ff");
  EXPECT_EQ(BigUInt::from_hex("ff").shifted_left(4).to_hex(), "ff0");
}

TEST(BigUInt, BitLength) {
  EXPECT_EQ(BigUInt(0).bit_length(), 0u);
  EXPECT_EQ(BigUInt(1).bit_length(), 1u);
  EXPECT_EQ(BigUInt(255).bit_length(), 8u);
  EXPECT_EQ(BigUInt(256).bit_length(), 9u);
  EXPECT_EQ(BigUInt::from_hex("80000000").bit_length(), 32u);
}

TEST(BigUInt, ModPowFermat) {
  // 2^(p-1) mod p == 1 for prime p.
  BigUInt p(1000003);
  EXPECT_EQ(BigUInt::mod_pow(BigUInt(2), BigUInt(1000002), p), BigUInt(1));
}

TEST(BigUInt, ModPowSmallCases) {
  EXPECT_EQ(BigUInt::mod_pow(BigUInt(3), BigUInt(4), BigUInt(7)), BigUInt(4));  // 81 mod 7
  EXPECT_EQ(BigUInt::mod_pow(BigUInt(5), BigUInt(0), BigUInt(13)), BigUInt(1));
  EXPECT_EQ(BigUInt::mod_pow(BigUInt(5), BigUInt(100), BigUInt(1)), BigUInt(0));
}

TEST(BigUInt, GcdAndInverse) {
  EXPECT_EQ(BigUInt::gcd(BigUInt(12), BigUInt(18)), BigUInt(6));
  EXPECT_EQ(BigUInt::gcd(BigUInt(17), BigUInt(31)), BigUInt(1));
  // 3 * 7 = 21 = 1 mod 10
  EXPECT_EQ(BigUInt::mod_inverse(BigUInt(3), BigUInt(10)), BigUInt(7));
  // Non-invertible.
  EXPECT_TRUE(BigUInt::mod_inverse(BigUInt(4), BigUInt(8)).is_zero());
}

TEST(BigUInt, InverseRandomized) {
  Rng rng(11);
  BigUInt m = BigUInt::random_prime(rng, 64);
  for (int i = 0; i < 20; ++i) {
    BigUInt a = BigUInt::mod(BigUInt::random_bits(rng, 60), m);
    if (a.is_zero()) continue;
    BigUInt inv = BigUInt::mod_inverse(a, m);
    EXPECT_EQ(BigUInt::mod(BigUInt::mul(a, inv), m), BigUInt(1));
  }
}

TEST(BigUInt, PrimalityKnownValues) {
  Rng rng(5);
  EXPECT_TRUE(BigUInt::is_probable_prime(BigUInt(2), rng));
  EXPECT_TRUE(BigUInt::is_probable_prime(BigUInt(65537), rng));
  EXPECT_TRUE(BigUInt::is_probable_prime(BigUInt::from_hex("fffffffb"), rng));
  EXPECT_FALSE(BigUInt::is_probable_prime(BigUInt(1), rng));
  EXPECT_FALSE(BigUInt::is_probable_prime(BigUInt(561), rng));   // Carmichael
  EXPECT_FALSE(BigUInt::is_probable_prime(BigUInt(65536), rng));
}

TEST(BigUInt, RandomPrimeHasRequestedSize) {
  Rng rng(6);
  auto p = BigUInt::random_prime(rng, 96);
  EXPECT_EQ(p.bit_length(), 96u);
  EXPECT_TRUE(p.is_odd());
}

// ---- RSA ----

class RsaTest : public ::testing::Test {
 protected:
  static KeyPair& keys() {
    static KeyPair kp = [] {
      Rng rng(1234);
      return generate_keypair(rng, 512);
    }();
    return kp;
  }
};

TEST_F(RsaTest, SignVerifyRoundTrip) {
  auto sig = sign(keys().priv, std::string("authorize spawn on nodeB"));
  EXPECT_TRUE(verify(keys().pub, std::string("authorize spawn on nodeB"), sig));
}

TEST_F(RsaTest, TamperedMessageRejected) {
  auto sig = sign(keys().priv, std::string("grant read"));
  EXPECT_FALSE(verify(keys().pub, std::string("grant write"), sig));
}

TEST_F(RsaTest, TamperedSignatureRejected) {
  auto sig = sign(keys().priv, std::string("grant read"));
  sig[sig.size() / 2] ^= 0x01;
  EXPECT_FALSE(verify(keys().pub, std::string("grant read"), sig));
}

TEST_F(RsaTest, WrongKeyRejected) {
  Rng rng(777);
  auto other = generate_keypair(rng, 512);
  auto sig = sign(keys().priv, std::string("hello"));
  EXPECT_FALSE(verify(other.pub, std::string("hello"), sig));
}

TEST_F(RsaTest, SignatureIsModulusSized) {
  auto sig = sign(keys().priv, std::string("x"));
  EXPECT_EQ(sig.size(), (keys().pub.n.bit_length() + 7) / 8);
}

TEST_F(RsaTest, PublicKeyEncodeDecodeFingerprint) {
  auto encoded = encode(keys().pub);
  auto decoded = decode<PublicKey>(encoded).value();
  EXPECT_EQ(decoded, keys().pub);
  EXPECT_EQ(decoded.fingerprint(), keys().pub.fingerprint());
  EXPECT_EQ(keys().pub.fingerprint().size(), 16u);
}

TEST_F(RsaTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(decode<PublicKey>(Bytes{1, 2, 3}).ok());
}

// ---- Certificates and trust (§4) ----

class TrustTest : public ::testing::Test {
 protected:
  TrustTest() : rng_(99) {
    rm_ = Principal::create("snipe://rm.utk.edu:7300/rm", rng_);
    user_ = Principal::create("urn:snipe:user:fagg", rng_);
    host_ = Principal::create("snipe://nodeA:7201/daemon", rng_);
  }
  Rng rng_;
  Principal rm_, user_, host_;
};

TEST_F(TrustTest, CertificateIssueAndVerify) {
  auto cert = Certificate::issue(rm_, user_.uri, user_.keys.pub,
                                 {crypto::TrustPurpose::identify_user});
  EXPECT_TRUE(cert.verify_with(rm_.keys.pub));
  EXPECT_TRUE(cert.covers(TrustPurpose::identify_user));
  EXPECT_FALSE(cert.covers(TrustPurpose::identify_host));
}

TEST_F(TrustTest, CertificateEncodeDecodeRoundTrip) {
  auto cert = Certificate::issue(rm_, user_.uri, user_.keys.pub,
                                 {TrustPurpose::identify_user, TrustPurpose::sign_mobile_code});
  auto decoded = decode<Certificate>(encode(cert)).value();
  EXPECT_EQ(decoded.subject, cert.subject);
  EXPECT_EQ(decoded.issuer, cert.issuer);
  EXPECT_EQ(decoded.purposes.size(), 2u);
  EXPECT_TRUE(decoded.verify_with(rm_.keys.pub));
}

TEST_F(TrustTest, TrustStoreValidatesOnlyTrustedIssuers) {
  TrustStore store;
  store.trust(rm_.uri, rm_.keys.pub, TrustPurpose::identify_user);

  auto cert = Certificate::issue(rm_, user_.uri, user_.keys.pub,
                                 {TrustPurpose::identify_user});
  EXPECT_TRUE(store.validate(cert, TrustPurpose::identify_user).ok());

  // Same issuer, untrusted purpose.
  auto host_cert = Certificate::issue(rm_, host_.uri, host_.keys.pub,
                                      {TrustPurpose::identify_host});
  EXPECT_EQ(store.validate(host_cert, TrustPurpose::identify_host).code(),
            Errc::permission_denied);
}

TEST_F(TrustTest, SelfSignedByUntrustedPartyRejected) {
  TrustStore store;
  store.trust(rm_.uri, rm_.keys.pub, TrustPurpose::identify_user);
  // The user mints their own certificate — issuer not trusted.
  auto rogue = Certificate::issue(user_, user_.uri, user_.keys.pub,
                                  {TrustPurpose::identify_user});
  EXPECT_EQ(store.validate(rogue, TrustPurpose::identify_user).code(),
            Errc::permission_denied);
}

TEST_F(TrustTest, ForgedIssuerFieldRejected) {
  TrustStore store;
  store.trust(rm_.uri, rm_.keys.pub, TrustPurpose::identify_user);
  // Signed by the user but claiming the RM as issuer: signature check
  // against the *trusted* RM key must fail.
  auto forged = Certificate::issue(user_, user_.uri, user_.keys.pub,
                                   {TrustPurpose::identify_user});
  forged.issuer = rm_.uri;
  EXPECT_EQ(store.validate(forged, TrustPurpose::identify_user).code(), Errc::corrupt);
}

TEST_F(TrustTest, SignedStatementFlow) {
  TrustStore store;
  store.trust(rm_.uri, rm_.keys.pub, TrustPurpose::identify_user);
  auto cert = Certificate::issue(rm_, user_.uri, user_.keys.pub,
                                 {TrustPurpose::identify_user});

  auto stmt = SignedStatement::make(user_, to_bytes("grant proc-7 on nodeB: cpu=10s"));
  EXPECT_TRUE(store.validate_statement(stmt, cert, TrustPurpose::identify_user).ok());

  // Tampered payload.
  auto bad = stmt;
  bad.payload.push_back('!');
  EXPECT_EQ(store.validate_statement(bad, cert, TrustPurpose::identify_user).code(),
            Errc::corrupt);

  // Certificate for a different subject.
  auto other_cert = Certificate::issue(rm_, host_.uri, host_.keys.pub,
                                       {TrustPurpose::identify_user});
  EXPECT_EQ(store.validate_statement(stmt, other_cert, TrustPurpose::identify_user).code(),
            Errc::permission_denied);
}

TEST_F(TrustTest, SignedStatementEncodeDecode) {
  auto stmt = SignedStatement::make(user_, to_bytes("payload"));
  auto decoded = decode<SignedStatement>(encode(stmt)).value();
  EXPECT_EQ(decoded.signer, user_.uri);
  EXPECT_TRUE(decoded.verify_with(user_.keys.pub));
}

}  // namespace
}  // namespace snipe::crypto
