// Unit tests for snipe_util: byte encoding, URIs, RNG, results, strings.
#include <gtest/gtest.h>

#include "util/bytes.hpp"
#include "util/log.hpp"
#include "util/payload.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/time.hpp"
#include "util/uri.hpp"

namespace snipe {
namespace {

TEST(Bytes, RoundTripAllPrimitives) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i32(-42);
  w.i64(-9'000'000'000LL);
  w.f64(3.14159);
  w.str("hello snipe");
  w.blob({1, 2, 3});

  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8().value(), 0xab);
  EXPECT_EQ(r.u16().value(), 0x1234);
  EXPECT_EQ(r.u32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.u64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i32().value(), -42);
  EXPECT_EQ(r.i64().value(), -9'000'000'000LL);
  EXPECT_DOUBLE_EQ(r.f64().value(), 3.14159);
  EXPECT_EQ(r.str().value(), "hello snipe");
  EXPECT_EQ(r.blob().value(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(r.done());
}

TEST(Bytes, NetworkByteOrderIsBigEndian) {
  ByteWriter w;
  w.u32(0x01020304);
  EXPECT_EQ(w.bytes(), (Bytes{1, 2, 3, 4}));
}

TEST(Bytes, ShortReadsFailWithCorrupt) {
  Bytes two{1, 2};
  ByteReader r(two);
  auto v = r.u32();
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.code(), Errc::corrupt);
}

TEST(Bytes, TruncatedStringBodyFails) {
  ByteWriter w;
  w.u32(100);  // claims 100 bytes follow
  w.raw(to_bytes("short"));
  ByteReader r(w.bytes());
  EXPECT_EQ(r.str().code(), Errc::corrupt);
}

TEST(Bytes, EmptyStringAndBlobRoundTrip) {
  ByteWriter w;
  w.str("");
  w.blob({});
  ByteReader r(w.bytes());
  EXPECT_EQ(r.str().value(), "");
  EXPECT_TRUE(r.blob().value().empty());
}

TEST(Hex, EncodeDecodeRoundTrip) {
  Bytes data{0x00, 0xff, 0x10, 0xab};
  EXPECT_EQ(hex_encode(data), "00ff10ab");
  EXPECT_EQ(hex_decode("00ff10ab").value(), data);
  EXPECT_EQ(hex_decode("00FF10AB").value(), data);
}

TEST(Hex, RejectsBadInput) {
  EXPECT_EQ(hex_decode("abc").code(), Errc::invalid_argument);
  EXPECT_EQ(hex_decode("zz").code(), Errc::invalid_argument);
}

TEST(Result, ValueAndError) {
  Result<int> good(7);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 7);
  EXPECT_EQ(good.value_or(0), 7);

  Result<int> bad(Errc::timeout, "too slow");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), Errc::timeout);
  EXPECT_EQ(bad.value_or(-1), -1);
  EXPECT_EQ(bad.error().to_string(), "timeout: too slow");
}

TEST(Result, VoidSpecialization) {
  Result<void> good = ok_result();
  EXPECT_TRUE(good.ok());
  Result<void> bad(Errc::not_found, "gone");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), Errc::not_found);
}

TEST(Uri, ParsesSnipeUrl) {
  auto uri = parse_uri("snipe://nodeA.utk.edu:7201/daemon").value();
  EXPECT_EQ(uri.scheme, "snipe");
  EXPECT_EQ(uri.host, "nodeA.utk.edu");
  EXPECT_EQ(uri.port, 7201);
  EXPECT_EQ(uri.path, "daemon");
  EXPECT_EQ(uri.to_string(), "snipe://nodeA.utk.edu:7201/daemon");
}

TEST(Uri, ParsesUrn) {
  auto uri = parse_uri("urn:snipe:proc:weather-17").value();
  EXPECT_TRUE(uri.is_urn());
  EXPECT_EQ(uri.path, "snipe:proc:weather-17");
  EXPECT_EQ(uri.to_string(), "urn:snipe:proc:weather-17");
}

TEST(Uri, ParsesLifn) {
  auto uri = parse_uri("lifn://utk.edu/ckpt/job42/3").value();
  EXPECT_TRUE(uri.is_lifn());
  EXPECT_EQ(uri.host, "utk.edu");
  EXPECT_EQ(uri.path, "ckpt/job42/3");
}

TEST(Uri, NoPortDefaultsToZero) {
  auto uri = parse_uri("http://www.netlib.org/SNIPE").value();
  EXPECT_EQ(uri.port, 0);
  EXPECT_EQ(uri.to_string(), "http://www.netlib.org/SNIPE");
}

TEST(Uri, SchemeIsCaseInsensitive) {
  EXPECT_EQ(parse_uri("SNIPE://a/b").value().scheme, "snipe");
}

TEST(Uri, RejectsMalformed) {
  EXPECT_FALSE(parse_uri("").ok());
  EXPECT_FALSE(parse_uri("nocolon").ok());
  EXPECT_FALSE(parse_uri(":leading").ok());
  EXPECT_FALSE(parse_uri("snipe:/missing-slash").ok());
  EXPECT_FALSE(parse_uri("snipe://").ok());
  EXPECT_FALSE(parse_uri("snipe://host:/x").ok());
  EXPECT_FALSE(parse_uri("snipe://host:abc/x").ok());
  EXPECT_FALSE(parse_uri("snipe://host:99999/x").ok());
  EXPECT_FALSE(parse_uri("urn:").ok());
  EXPECT_FALSE(parse_uri("9bad://x/y").ok());
}

TEST(Uri, Builders) {
  EXPECT_EQ(host_url("nodeA"), "snipe://nodeA:7201/daemon");
  EXPECT_EQ(process_urn("p1"), "urn:snipe:proc:p1");
  EXPECT_EQ(group_urn("g1"), "urn:snipe:group:g1");
  EXPECT_EQ(service_lifn("utk.edu", "svc"), "lifn://utk.edu/svc");
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, BoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(10), 10u);
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    double r = rng.next_range(5.0, 6.0);
    EXPECT_GE(r, 5.0);
    EXPECT_LT(r, 6.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceRoughlyCalibrated) {
  Rng rng(7);
  int hits = 0;
  for (int i = 0; i < 100000; ++i)
    if (rng.chance(0.3)) ++hits;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng rng(7);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(Rng, ForkIndependence) {
  Rng parent(9);
  Rng child = parent.fork();
  EXPECT_NE(parent.next_u64(), child.next_u64());
}

TEST(Strings, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Strings, TrimAndJoin) {
  EXPECT_EQ(trim("  x y \t\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(join({"a", "b"}, "::"), "a::b");
  EXPECT_TRUE(starts_with("snipe://x", "snipe://"));
  EXPECT_FALSE(starts_with("sn", "snipe"));
}

TEST(Log, SinkCapturesFilteredRecords) {
  std::vector<std::pair<LogLevel, std::string>> captured;
  std::vector<std::optional<std::int64_t>> stamps;
  LogLevel old_level = set_log_level(LogLevel::info);
  LogSink old_sink = set_log_sink([&](LogLevel level, std::optional<std::int64_t> stamp,
                                      const std::string& component, const std::string& text) {
    captured.emplace_back(level, component + ": " + text);
    stamps.push_back(stamp);
  });

  Logger log("util_test");
  log.debug("below threshold, dropped");
  log.info("value=", 42);
  std::int64_t now = 7;
  int clock_reads = 0;
  Logger clocked("clocked", [&] {
    ++clock_reads;
    return now;
  });
  clocked.debug("below threshold: the clock is not read");
  clocked.error("boom");

  set_log_sink(old_sink);
  set_log_level(old_level);

  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0].first, LogLevel::info);
  EXPECT_EQ(captured[0].second, "util_test: value=42");
  EXPECT_EQ(stamps[0], std::nullopt);  // a clockless logger stamps nothing
  EXPECT_EQ(captured[1].first, LogLevel::error);
  EXPECT_EQ(stamps[1], std::optional<std::int64_t>(7));
  EXPECT_EQ(clock_reads, 1);
}

TEST(Log, ParseLevelNames) {
  EXPECT_EQ(parse_log_level("debug", LogLevel::warn), LogLevel::debug);
  EXPECT_EQ(parse_log_level("ERROR", LogLevel::warn), LogLevel::error);
  EXPECT_EQ(parse_log_level("off", LogLevel::warn), LogLevel::off);
  EXPECT_EQ(parse_log_level("nonsense", LogLevel::warn), LogLevel::warn);
  EXPECT_EQ(parse_log_level("", LogLevel::info), LogLevel::info);
}

TEST(Time, DurationsCompose) {
  EXPECT_EQ(duration::seconds(1), 1'000'000'000);
  EXPECT_EQ(duration::milliseconds(1500), duration::seconds(1) + duration::milliseconds(500));
  EXPECT_DOUBLE_EQ(to_seconds(duration::milliseconds(250)), 0.25);
  EXPECT_EQ(from_seconds(0.25), duration::milliseconds(250));
  EXPECT_EQ(format_time(duration::milliseconds(1500)), "1.500000s");
}

TEST(Payload, SliceSharesTheBufferWithoutCopying) {
  Bytes b(1000);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<std::uint8_t>(i);
  Payload whole(std::move(b));
  ASSERT_EQ(whole.segment_count(), 1u);
  const std::uint8_t* base = whole.segment(0).data();

  Payload mid = whole.slice(100, 300);
  EXPECT_EQ(mid.size(), 300u);
  ASSERT_TRUE(mid.contiguous());
  // The slice points into the original buffer — no bytes moved.
  EXPECT_EQ(mid.data(), base + 100);
  EXPECT_EQ(mid[0], static_cast<std::uint8_t>(100));
  EXPECT_EQ(mid[299], static_cast<std::uint8_t>(399 & 0xFF));

  Payload empty = whole.slice(1000, 0);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.segment_count(), 0u);
}

TEST(Payload, AppendCoalescesAdjacentSlicesOfOneBuffer) {
  Bytes b(256);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<std::uint8_t>(i);
  Payload whole(std::move(b));

  // Reassemble the message from its fragments, as a receiver would.
  Payload assembled;
  for (std::size_t off = 0; off < 256; off += 64) assembled.append(whole.slice(off, 64));

  // Adjacent slices of one buffer coalesce back into a single segment, so
  // flatten() on the delivery path is a no-op (no copy).
  EXPECT_EQ(assembled.size(), 256u);
  ASSERT_EQ(assembled.segment_count(), 1u);
  EXPECT_EQ(assembled.data(), whole.data());
  assembled.flatten();
  EXPECT_EQ(assembled.data(), whole.data());
}

TEST(Payload, FlattenCopiesOnlyWhenSegmentsCannotCoalesce) {
  Payload a(Bytes{1, 2, 3});
  Payload b(Bytes{4, 5, 6});
  Payload joined;
  joined.append(a);
  joined.append(b);
  EXPECT_EQ(joined.segment_count(), 2u);
  EXPECT_FALSE(joined.contiguous());

  joined.flatten();
  ASSERT_TRUE(joined.contiguous());
  EXPECT_EQ(joined.to_bytes(), (Bytes{1, 2, 3, 4, 5, 6}));
  // Flattening materialized a fresh buffer; the sources are untouched.
  EXPECT_NE(joined.data(), a.data());
  EXPECT_EQ(a.to_bytes(), (Bytes{1, 2, 3}));
}

TEST(Payload, CowXorClonesWhenSharedAndWritesInPlaceWhenUnique) {
  Payload original(Bytes{10, 20, 30, 40});
  Payload copy = original.slice(0, 4);  // shares the buffer
  EXPECT_EQ(copy.data(), original.data());

  // Shared buffer: corruption must clone, leaving the original pristine.
  copy.cow_xor(1, 0xFF);
  EXPECT_NE(copy.data(), original.data());
  EXPECT_EQ(copy[1], static_cast<std::uint8_t>(20 ^ 0xFF));
  EXPECT_EQ(original[1], 20);

  // `copy` now holds its buffer's only reference: a second corruption may
  // write in place (no further clone).
  const std::uint8_t* before = copy.data();
  copy.cow_xor(2, 0x0F);
  EXPECT_EQ(copy.data(), before);
  EXPECT_EQ(copy[2], static_cast<std::uint8_t>(30 ^ 0x0F));
}

TEST(Payload, WriterMatchesByteWriterByteForByte) {
  // The zero-copy wire codec must produce exactly the bytes the old
  // copying codec did — this is what keeps chaos trace digests stable.
  ByteWriter bw;
  bw.u8(7);
  bw.u16(0xBEEF);
  bw.u32(0xDEADBEEF);
  bw.u64(0x0123456789ABCDEFULL);
  bw.str("snipe");
  Bytes body{9, 8, 7, 6};
  bw.blob(body);

  PayloadWriter pw;
  pw.u8(7);
  pw.u16(0xBEEF);
  pw.u32(0xDEADBEEF);
  pw.u64(0x0123456789ABCDEFULL);
  pw.str("snipe");
  pw.blob(Payload(Bytes{9, 8, 7, 6}));  // spliced by reference, not copied

  Payload p = std::move(pw).take();
  EXPECT_EQ(p.to_bytes(), bw.bytes());
}

TEST(Payload, CursorRoundTripsAndSlicesBlobsZeroCopy) {
  Bytes big(512);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i * 3);
  Payload blob_src(std::move(big));
  const std::uint8_t* blob_base = blob_src.data();

  PayloadWriter pw;
  pw.u32(42);
  pw.str("hello");
  pw.blob(blob_src);
  pw.u16(0xCAFE);
  Payload wire = std::move(pw).take();

  PayloadCursor r(wire);
  ASSERT_TRUE(r.u32().ok());
  auto s = r.str();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value(), "hello");
  auto blob = r.blob();
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(blob.value().size(), 512u);
  // The blob read is a view into the spliced-in source buffer.
  ASSERT_TRUE(blob.value().contiguous());
  EXPECT_EQ(blob.value().data(), blob_base);
  auto tail = r.u16();
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail.value(), 0xCAFE);
  EXPECT_EQ(r.remaining(), 0u);

  // Short reads fail cleanly instead of running off the end.
  EXPECT_FALSE(r.u8().ok());
}

TEST(Payload, CursorReadsFieldsStraddlingSegmentBoundaries) {
  // Build a payload whose u32 spans two segments (2 bytes in each).
  Payload left(Bytes{0xAA, 0xBB, 0x01, 0x02});
  Payload right(Bytes{0x03, 0x04, 0xCC});
  Payload joined;
  joined.append(left);
  joined.append(right);
  ASSERT_EQ(joined.segment_count(), 2u);

  PayloadCursor r(joined);
  ASSERT_TRUE(r.u16().ok());
  auto v = r.u32();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 0x01020304u);
  auto last = r.u8();
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last.value(), 0xCC);
}

TEST(PayloadDeathTest, DataOnAMultiSegmentPayloadAbortsInEveryBuildType) {
  Payload joined(Bytes{1, 2});
  joined.append(Payload(Bytes{3}));
  ASSERT_EQ(joined.segment_count(), 2u);
  // Reading only the first segment would be a silent short read; the
  // check does not depend on NDEBUG.
  EXPECT_DEATH((void)joined.data(), "not contiguous");
}

TEST(Payload, CursorReadsSignedAndFloatFieldsLikeByteReader) {
  ByteWriter w;
  w.i32(-7);
  w.i64(-1234567890123LL);
  w.f64(2.5);
  Payload p(std::move(w).take());
  PayloadCursor r(p);
  EXPECT_EQ(r.i32().value(), -7);
  EXPECT_EQ(r.i64().value(), -1234567890123LL);
  EXPECT_EQ(r.f64().value(), 2.5);
  EXPECT_FALSE(r.u8().ok());
}

Payload::Digest digest_of(std::uint8_t fill) {
  Payload::Digest d;
  d.fill(fill);
  return d;
}

TEST(Seal, DigestRidesInTheControlBlock) {
  Payload::Buffer sealed = Payload::seal(Bytes(64, 0x11), digest_of(0xAB));
  ASSERT_NE(Payload::sealed_digest(sealed), nullptr);
  EXPECT_EQ(*Payload::sealed_digest(sealed), digest_of(0xAB));
  EXPECT_EQ(Payload::sealed_digest(std::make_shared<const Bytes>(Bytes(64, 0x11))), nullptr);

  // A whole sealed buffer, or slices that coalesce back into it, carries the
  // digest; a shorter slice or a prefixed payload does not.
  EXPECT_NE(Payload(sealed).proven_digest(), nullptr);
  EXPECT_EQ(Payload(sealed, 0, 63).proven_digest(), nullptr);
  Payload two = Payload(sealed, 0, 32);
  two.append(Payload(sealed, 32, 32));  // adjacent slices coalesce back whole
  EXPECT_NE(two.proven_digest(), nullptr);
  Payload prefixed(Bytes{0});
  prefixed.append(Payload(sealed));
  EXPECT_EQ(prefixed.proven_digest(), nullptr);
}

TEST(Seal, BufferReallocatedAtTheSameAddressGetsNoDigest) {
  const std::uint8_t* freed = nullptr;
  {
    Payload::Buffer sealed = Payload::seal(Bytes(4096, 0x22), digest_of(0xCD));
    freed = sealed->data();
  }
  // The allocator usually hands the freed block straight back (a memo
  // keyed by that address would now vouch for different bytes); whether or
  // not it does, the new buffer has its own control block and no digest.
  std::vector<Bytes> misses;
  Bytes fresh(4096, 0x33);
  while (fresh.data() != freed && misses.size() < 8) {
    misses.push_back(std::move(fresh));
    fresh = Bytes(4096, 0x33);
  }
  Payload::Buffer reused = std::make_shared<const Bytes>(std::move(fresh));
  EXPECT_EQ(Payload::sealed_digest(reused), nullptr);
  EXPECT_EQ(Payload(reused).proven_digest(), nullptr);
}

TEST(Seal, CowXorClonesASealedBufferEvenWhenItIsTheSoleOwner) {
  Payload::Buffer sealed = Payload::seal(Bytes{1, 2, 3, 4}, digest_of(0x5A));
  Payload in_flight(sealed);
  sealed.reset();  // the stored copy is gone: the packet is the only owner
  ASSERT_EQ(in_flight.segment(0).buf.use_count(), 1);
  const std::uint8_t* before = in_flight.data();
  in_flight.cow_xor(2, 0xFF);
  // A write in place would leave the digest describing bytes that changed.
  EXPECT_NE(in_flight.data(), before);
  EXPECT_EQ(in_flight.proven_digest(), nullptr);
  EXPECT_EQ(in_flight.to_bytes(), (Bytes{1, 2, static_cast<std::uint8_t>(3 ^ 0xFF), 4}));
}

TEST(Seal, SealingAnExistingBufferSharesItsBytesAndPinsIt) {
  Payload original(Bytes{9, 8, 7});
  Payload::Buffer sealed = Payload::seal(original.segment(0).buf, digest_of(0x01));
  EXPECT_EQ(sealed->data(), original.data());  // no copy
  EXPECT_EQ(*Payload::sealed_digest(sealed), digest_of(0x01));
  // The wrapper holds a reference, so the original is never a sole owner
  // that cow_xor could write through under the sealed view.
  original.cow_xor(0, 0x0F);
  EXPECT_NE(original.data(), sealed->data());
  EXPECT_EQ(Payload(sealed).to_bytes(), (Bytes{9, 8, 7}));
  // The wrapper alone keeps the bytes alive.
  original = Payload();
  EXPECT_EQ(Payload(sealed).to_bytes(), (Bytes{9, 8, 7}));
}

}  // namespace
}  // namespace snipe
