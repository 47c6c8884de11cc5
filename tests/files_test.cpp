// Tests for SNIPE file servers: sink/source I/O, replication daemons,
// RC location registration, closest-replica selection, failover, and
// integrity verification.
#include <gtest/gtest.h>

#include "files/fileserver.hpp"
#include "obs/fleet.hpp"
#include "simnet/fault.hpp"

namespace snipe::files {
namespace {

using simnet::Address;
using simnet::World;

Bytes pattern(std::size_t n, std::uint32_t seed = 1) {
  Bytes b(n);
  std::uint32_t x = seed;
  for (std::size_t i = 0; i < n; ++i) {
    x = x * 1664525u + 1013904223u;
    b[i] = static_cast<std::uint8_t>(x >> 16);
  }
  return b;
}

/// The value `host`'s registry reports for `name` (-1 when absent).
double reported(simnet::Host& host, const std::string& name) {
  for (const auto& m : host.metrics().snapshot())
    if (m.name == name) return m.value;
  return -1;
}

struct FilesFixture : ::testing::Test {
  FilesFixture() : world(41) {
    world.create_network("lan", simnet::ethernet100());
    for (const char* name : {"rc", "fs1", "fs2", "app"})
      world.attach(world.create_host(name), *world.network("lan"));
    rc = std::make_unique<rcds::RcServer>(*world.host("rc"));

    FileServerConfig cfg;
    cfg.replication_factor = 2;
    fs1 = std::make_unique<FileServer>(*world.host("fs1"), replicas(), FileServer::kDefaultPort,
                                       cfg);
    fs2 = std::make_unique<FileServer>(*world.host("fs2"), replicas(), FileServer::kDefaultPort,
                                       cfg);
    fs1->set_peers({fs2->address()});
    fs2->set_peers({fs1->address()});

    app_rpc = std::make_unique<transport::RpcEndpoint>(*world.host("app"), 9200);
    client = std::make_unique<FileClient>(*app_rpc, replicas());
  }
  std::vector<Address> replicas() { return {rc->address()}; }

  World world;
  std::unique_ptr<rcds::RcServer> rc;
  std::unique_ptr<FileServer> fs1, fs2;
  std::unique_ptr<transport::RpcEndpoint> app_rpc;
  std::unique_ptr<FileClient> client;
};

TEST_F(FilesFixture, SinkWriteThenSourceRead) {
  Bytes content = pattern(300'000);
  Result<void> wrote(Errc::state_error, "unset");
  client->write(fs1->address(), "lifn://utk.edu/data/1", content,
                [&](Result<void> r) { wrote = r; });
  world.engine().run();
  ASSERT_TRUE(wrote.ok());
  EXPECT_TRUE(fs1->has("lifn://utk.edu/data/1"));

  Result<Bytes> read(Errc::state_error, "unset");
  client->read("lifn://utk.edu/data/1", [&](Result<Bytes> r) { read = r; });
  world.engine().run();
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), content);
  EXPECT_GE(fs1->stats().sink_sessions, 1u);
}

TEST_F(FilesFixture, ReplicationDaemonCopiesAndRegistersBothLocations) {
  client->write(fs1->address(), "lifn://utk.edu/data/2", pattern(10'000),
                [](Result<void>) {});
  world.engine().run();
  EXPECT_TRUE(fs2->has("lifn://utk.edu/data/2"));  // replication_factor = 2
  auto locations = rc->get("lifn://utk.edu/data/2");
  int location_count = 0;
  for (const auto& a : locations)
    if (a.name == rcds::names::kLifnLocation) ++location_count;
  EXPECT_EQ(location_count, 2);
}

TEST_F(FilesFixture, ReadFailsOverToSurvivingReplica) {
  Bytes content = pattern(50'000);
  client->write(fs1->address(), "lifn://utk.edu/data/3", content, [](Result<void>) {});
  world.engine().run();
  ASSERT_TRUE(fs2->has("lifn://utk.edu/data/3"));

  world.host("fs1")->set_up(false);
  Result<Bytes> read(Errc::state_error, "unset");
  client->read("lifn://utk.edu/data/3", [&](Result<Bytes> r) { read = r; });
  world.engine().run_for(duration::seconds(10));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), content);
  EXPECT_GE(fs2->stats().source_sessions, 1u);
}

TEST_F(FilesFixture, CorruptReplicaDetectedByHash) {
  client->write(fs1->address(), "lifn://utk.edu/data/4", pattern(1000), [](Result<void>) {});
  world.engine().run();
  // Corrupt both replicas in place (announce=false keeps the registered
  // hash describing the original content).
  fs1->store_local("lifn://utk.edu/data/4", pattern(1000, 999), /*announce=*/false);
  fs2->store_local("lifn://utk.edu/data/4", pattern(1000, 999), /*announce=*/false);
  Result<Bytes> read(Errc::state_error, "unset");
  client->read("lifn://utk.edu/data/4", [&](Result<Bytes> r) { read = r; });
  world.engine().run();
  EXPECT_EQ(read.code(), Errc::corrupt);
}

// The next tests store buffers sealed with a digest that is *not* theirs.
// Against a correct seal, trusting it and re-hashing look the same; a seal
// that lies shows which one ran: a component that trusted the seal
// announces or accepts the lie, one that hashed sees the true digest.
std::string catalog_hash(rcds::RcServer& rc, const std::string& lifn) {
  std::string hash;
  for (const auto& a : rc.get(lifn))
    if (a.name == rcds::names::kLifnHash && !a.tombstone) hash = a.value;
  return hash;
}

TEST_F(FilesFixture, ReplicaPushedByReplicateKeepsTheSealWithoutRehashing) {
  const std::string lifn = "lifn://utk.edu/sealed/replica";
  const Bytes content = pattern(20'000, 3);
  const crypto::Digest256 lie = crypto::sha256(pattern(10, 4));
  fs1->store_local(lifn, Payload(Payload::seal(content, lie)));  // pushed to fs2
  world.engine().run();
  ASSERT_EQ(fs2->stats().replicas_received, 1u);
  EXPECT_EQ(fs2->read(lifn).value(), content);
  // fs2 announced after fs1; had it hashed the pushed bytes, the catalog
  // would now hold their true digest.
  EXPECT_EQ(catalog_hash(*rc, lifn), crypto::digest_hex(lie));
  // The replica is counted like any stored file.
  EXPECT_EQ(reported(*world.host("fs1"), "files.bytes_stored"), 20'000);
  EXPECT_EQ(reported(*world.host("fs2"), "files.bytes_stored"), 20'000);
}

TEST_F(FilesFixture, StripedReadOfTheStoredBufferIsVerifiedByItsSeal) {
  // Chunks are slices of the stored buffer, and the client's offset-ordered
  // slices coalesce back into it: finish_read then takes the seal and
  // hashes no byte.  Had it hashed, the lie would fail the read as corrupt.
  const std::string lifn = "lifn://utk.edu/sealed/striped";
  const Bytes content = pattern(100'003, 5);
  const crypto::Digest256 lie = crypto::sha256(pattern(10, 6));
  fs1->store_local(lifn, Payload(Payload::seal(content, lie)));
  world.engine().run();
  ASSERT_EQ(catalog_hash(*rc, lifn), crypto::digest_hex(lie));
  FileClientConfig cfg;
  cfg.chunk = 8192;
  cfg.stripes = 4;
  FileClient striped(*app_rpc, replicas(), cfg);
  Result<Bytes> read(Errc::state_error, "unset");
  striped.read(lifn, [&](Result<Bytes> r) { read = r; });
  world.engine().run();
  ASSERT_TRUE(read.ok()) << read.error().to_string();
  EXPECT_EQ(read.value(), content);
  EXPECT_GE(fs1->stats().source_sessions, 1u);
  EXPECT_GE(fs2->stats().source_sessions, 1u);  // stripes from both replicas
}

TEST_F(FilesFixture, ByteFlippedInFlightFailsAStripedReadAsCorrupt) {
  // Every other path hashes in full: one byte of file data flipped in a
  // datagram (checksums are off by default, so it is delivered) lands on a
  // clone that carries no seal.
  const std::string lifn = "lifn://utk.edu/flipped";
  const Bytes content = pattern(100'003, 8);
  fs1->store_local(lifn, content);
  world.engine().run();
  FileClientConfig cfg;
  cfg.chunk = 8192;
  cfg.stripes = 4;
  FileClient striped(*app_rpc, replicas(), cfg);
  simnet::FaultProfile flip;
  flip.corrupt = 0.01;
  flip.corrupt_max_bytes = 1;
  simnet::FaultPlan plan(world, 2);
  plan.inject("lan", flip);
  Result<Bytes> read(Errc::state_error, "unset");
  striped.read(lifn, [&](Result<Bytes> r) { read = r; });
  world.engine().run_for(duration::seconds(30));
  // Seeded so that exactly one datagram is hit: a data fragment from fs1.
  EXPECT_EQ(plan.injector("lan")->stats().corrupted.load(), 1u);
  EXPECT_EQ(read.code(), Errc::corrupt) << (read.ok() ? "ok" : read.error().to_string());
  // The flips never reached the stored buffers.
  EXPECT_EQ(fs1->read(lifn).value(), content);
  EXPECT_EQ(fs2->read(lifn).value(), content);
}

// The fleet shape: each server stores its *own* copy of the file, sealed
// separately (no replication), and a 4-stripe read alternates between the
// two copies chunk by chunk.  The size leaves a 100-byte last chunk, under
// RPC framing's 512-byte splice minimum, so it arrives copied into a header
// chunk, not as a slice of either copy.
struct TwoSealedCopies : FilesFixture {
  static constexpr std::size_t kChunk = 8192;
  const std::string lifn = "lifn://utk.edu/sealed/two-copies";
  const Bytes content = pattern(12 * kChunk + 100, 9);

  void store_both(const crypto::Digest256& seal) {
    fs1->set_peers({});
    fs2->set_peers({});
    fs1->store_local(lifn, Payload(Payload::seal(content, seal)));
    fs2->store_local(lifn, Payload(Payload::seal(content, seal)));
    world.engine().run();
  }
  FileClientConfig striped_config() const {
    FileClientConfig cfg;
    cfg.chunk = kChunk;
    cfg.stripes = 4;
    return cfg;
  }
};

TEST_F(TwoSealedCopies, StripedReadOfTwoSeparatelySealedCopiesHashesNoByte) {
  // Both copies are sealed with the same lie: had any byte been hashed, the
  // read would fail as corrupt.
  const crypto::Digest256 lie = crypto::sha256(pattern(10, 10));
  store_both(lie);
  ASSERT_EQ(fs2->stats().replicas_received, 0u);
  ASSERT_EQ(catalog_hash(*rc, lifn), crypto::digest_hex(lie));
  FileClient striped(*app_rpc, replicas(), striped_config());
  Result<Bytes> read(Errc::state_error, "unset");
  striped.read(lifn, [&](Result<Bytes> r) { read = r; });
  world.engine().run();
  ASSERT_TRUE(read.ok()) << read.error().to_string();
  EXPECT_EQ(read.value(), content);
  EXPECT_GE(fs1->stats().source_sessions, 1u);
  EXPECT_GE(fs2->stats().source_sessions, 1u);  // stripes from both copies
}

TEST_F(TwoSealedCopies, ByteFlippedInFlightFailsAReadOfTwoSealedCopiesAsCorrupt) {
  // True seals this time: the flipped byte lands on an unsealed clone whose
  // bytes differ from the first copy's, so the read is hashed and rejected.
  store_both(crypto::sha256(content));
  FileClient striped(*app_rpc, replicas(), striped_config());
  simnet::FaultProfile flip;
  flip.corrupt = 0.01;
  flip.corrupt_max_bytes = 1;
  simnet::FaultPlan plan(world, 2);
  plan.inject("lan", flip);
  Result<Bytes> read(Errc::state_error, "unset");
  striped.read(lifn, [&](Result<Bytes> r) { read = r; });
  world.engine().run_for(duration::seconds(30));
  // Seeded so that exactly one datagram is hit: a data fragment.
  EXPECT_EQ(plan.injector("lan")->stats().corrupted.load(), 1u);
  EXPECT_EQ(read.code(), Errc::corrupt) << (read.ok() ? "ok" : read.error().to_string());
  EXPECT_EQ(fs1->read(lifn).value(), content);
  EXPECT_EQ(fs2->read(lifn).value(), content);
}

TEST_F(FilesFixture, MissingLifnReportsNotFound) {
  Result<Bytes> read(Errc::state_error, "unset");
  client->read("lifn://utk.edu/ghost", [&](Result<Bytes> r) { read = r; });
  world.engine().run();
  EXPECT_EQ(read.code(), Errc::not_found);
}

TEST_F(FilesFixture, EmptyFileRoundTrips) {
  Result<void> wrote(Errc::state_error, "unset");
  client->write(fs1->address(), "lifn://utk.edu/empty", Bytes{},
                [&](Result<void> r) { wrote = r; });
  world.engine().run();
  ASSERT_TRUE(wrote.ok());
  Result<Bytes> read(Errc::state_error, "unset");
  client->read("lifn://utk.edu/empty", [&](Result<Bytes> r) { read = r; });
  world.engine().run();
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.value().empty());
}

TEST(FilesDistance, ClosestReplicaIsPreferred) {
  // app shares a LAN with fs_near; fs_far is only reachable over the WAN.
  World world(43);
  world.create_network("lan", simnet::ethernet100());
  world.create_network("wan", simnet::wan_t3());
  auto& rc_host = world.create_host("rc");
  auto& near_host = world.create_host("fs_near");
  auto& far_host = world.create_host("fs_far");
  auto& app_host = world.create_host("app");
  world.attach(rc_host, *world.network("lan"));
  world.attach(rc_host, *world.network("wan"));
  world.attach(near_host, *world.network("lan"));
  world.attach(far_host, *world.network("wan"));
  world.attach(app_host, *world.network("lan"));
  world.attach(app_host, *world.network("wan"));

  rcds::RcServer rc(rc_host);
  FileServer near_server(near_host, {rc.address()});
  FileServer far_server(far_host, {rc.address()});

  EXPECT_EQ(world.net_distance("app", "app"), 0);
  EXPECT_LT(world.net_distance("app", "fs_near"), world.net_distance("app", "fs_far"));
  // Hosts never forward: with no router between them, fs_near and fs_far
  // are mutually unreachable even though app can talk to both.
  EXPECT_EQ(world.net_distance("fs_near", "fs_far"), simnet::World::kUnreachable);

  // Same file on both servers; the client must read from the near one.
  Bytes content{1, 2, 3, 4};
  near_server.store_local("lifn://x/f", content);
  far_server.store_local("lifn://x/f", content);
  world.engine().run();

  transport::RpcEndpoint rpc(app_host, 9200);
  FileClient client(rpc, {rc.address()});
  Result<Bytes> read(Errc::state_error, "unset");
  client.read("lifn://x/f", [&](Result<Bytes> r) { read = r; });
  world.engine().run();
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(near_server.stats().source_sessions, 1u);
  EXPECT_EQ(far_server.stats().source_sessions, 0u);
}

TEST_F(FilesFixture, ReplicationDaemonRepairsLostReplica) {
  // §3.2: the replication daemons maintain the redundancy target.  Kill
  // one replica after the initial write; the survivor's repair tick must
  // retract the dead location and... there being only one peer, re-push
  // once the peer returns.
  client->write(fs1->address(), "lifn://utk.edu/data/repair", pattern(8000),
                [](Result<void>) {});
  world.engine().run();
  ASSERT_TRUE(fs2->has("lifn://utk.edu/data/repair"));

  // fs2 dies and loses its disk (fresh process on reboot).
  world.host("fs2")->set_up(false);
  world.engine().run_for(duration::seconds(20));  // a repair tick passes
  // The dead replica's location was retracted from RC.
  int live_locations = 0;
  for (const auto& a : rc->get("lifn://utk.edu/data/repair"))
    if (a.name == rcds::names::kLifnLocation) ++live_locations;
  EXPECT_EQ(live_locations, 1);

  // The peer returns (empty); the next repair round re-pushes the copy.
  world.host("fs2")->set_up(true);
  world.engine().run_for(duration::seconds(40));
  EXPECT_GE(fs1->stats().repairs, 1u);
  int locations_after = 0;
  for (const auto& a : rc->get("lifn://utk.edu/data/repair"))
    if (a.name == rcds::names::kLifnLocation) ++locations_after;
  EXPECT_EQ(locations_after, 2);
}

TEST_F(FilesFixture, StripedWriteThenStripedReadRoundTrips) {
  // 4 stripes, small chunks, a size that is not a chunk multiple: the last
  // chunk is short and every stripe owns a different byte count.
  FileClientConfig cfg;
  cfg.chunk = 4096;
  cfg.stripes = 4;
  FileClient striped(*app_rpc, replicas(), cfg);
  Bytes content = pattern(300'001, 7);
  Result<void> wrote(Errc::state_error, "unset");
  striped.write(fs1->address(), "lifn://utk.edu/striped/1", content,
                [&](Result<void> r) { wrote = r; });
  world.engine().run();
  ASSERT_TRUE(wrote.ok());
  EXPECT_EQ(fs1->read("lifn://utk.edu/striped/1").value(), content);

  Result<Bytes> read(Errc::state_error, "unset");
  striped.read("lifn://utk.edu/striped/1", [&](Result<Bytes> r) { read = r; });
  world.engine().run();
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), content);
  // With two live replicas, round-robin spread means both served stripes.
  EXPECT_GE(fs1->stats().source_sessions, 1u);
  EXPECT_GE(fs2->stats().source_sessions, 1u);
}

TEST_F(FilesFixture, StripedReadSurvivesMidStreamReplicaCrash) {
  // The pre-stripe bug: a replica dying after kOpenSource but before the
  // last kSourceData chunk wedged the read forever.  Now the stalled
  // stripes' progress timers re-issue them from the survivor.
  FileClientConfig cfg;
  cfg.chunk = 8192;
  cfg.stripes = 2;
  FileClient striped(*app_rpc, replicas(), cfg);
  Bytes content = pattern(400'000, 9);
  striped.write(fs1->address(), "lifn://utk.edu/striped/crash", content,
                [](Result<void>) {});
  world.engine().run();
  ASSERT_TRUE(fs2->has("lifn://utk.edu/striped/crash"));

  Result<Bytes> read(Errc::state_error, "unset");
  striped.read("lifn://utk.edu/striped/crash", [&](Result<Bytes> r) { read = r; });
  // Kill fs1 while its stripe stream is in flight.
  world.engine().schedule(duration::milliseconds(3),
                          [&] { world.host("fs1")->set_up(false); });
  world.engine().run_for(duration::seconds(30));
  ASSERT_TRUE(read.ok()) << read.error().to_string();
  EXPECT_EQ(read.value(), content);
}

TEST_F(FilesFixture, AbandonedSinkExpiresAfterTtl) {
  // A writer opens a sink, sends part of the data, and dies.  The sink's
  // idle TTL must reap it (pre-TTL it leaked forever) without storing the
  // partial file.
  ByteWriter open;
  open.str("lifn://utk.edu/abandoned");
  open.u64(10'000);
  open.u32(1);
  Result<Bytes> opened(Errc::state_error, "unset");
  app_rpc->call(fs1->address(), tags::kOpenSink, std::move(open).take(),
                [&](Result<Bytes> r) { opened = r; });
  world.engine().run();
  ASSERT_TRUE(opened.ok());
  std::uint64_t sink_id = ByteReader(opened.value()).u64().value();

  ByteWriter data;
  data.u64(sink_id);
  data.u64(0);
  data.blob(pattern(1000));
  app_rpc->notify(fs1->address(), tags::kSinkData, std::move(data).take());
  world.engine().run();
  EXPECT_EQ(fs1->open_sinks(), 1u);

  world.engine().run_for(duration::seconds(120));  // default TTL is 60 s
  EXPECT_EQ(fs1->open_sinks(), 0u);
  EXPECT_GE(fs1->stats().sinks_expired, 1u);
  EXPECT_FALSE(fs1->has("lifn://utk.edu/abandoned"));
}

TEST_F(FilesFixture, CloseSinkWithMissingBytesIsRejected) {
  ByteWriter open;
  open.str("lifn://utk.edu/short");
  open.u64(5000);
  open.u32(1);
  Result<Bytes> opened(Errc::state_error, "unset");
  app_rpc->call(fs1->address(), tags::kOpenSink, std::move(open).take(),
                [&](Result<Bytes> r) { opened = r; });
  world.engine().run();
  ASSERT_TRUE(opened.ok());
  std::uint64_t sink_id = ByteReader(opened.value()).u64().value();

  ByteWriter data;
  data.u64(sink_id);
  data.u64(0);
  data.blob(pattern(1000));
  app_rpc->notify(fs1->address(), tags::kSinkData, std::move(data).take());

  ByteWriter close;
  close.u64(sink_id);
  Result<Bytes> closed(Errc::state_error, "unset");
  app_rpc->call(fs1->address(), tags::kCloseSink, std::move(close).take(),
                [&](Result<Bytes> r) { closed = r; });
  world.engine().run();
  EXPECT_EQ(closed.code(), Errc::state_error);
  EXPECT_EQ(fs1->stats().sinks_incomplete, 1u);
  EXPECT_EQ(fs1->open_sinks(), 0u);
  EXPECT_FALSE(fs1->has("lifn://utk.edu/short"));
}

TEST(FilesRepair, RepairDoesNotChurnWhenOnlyLivePeersRemain) {
  // Replication factor 3 with only two servers: the target is permanently
  // unreachable.  The old repair loop pushed a fresh copy to the *already
  // registered* peer every tick — endless churn with no replica-count
  // progress.  The repair pass must skip peers that are live replicas.
  World world(47);
  world.create_network("lan", simnet::ethernet100());
  for (const char* name : {"rc", "fs1", "fs2", "app"})
    world.attach(world.create_host(name), *world.network("lan"));
  rcds::RcServer rc(*world.host("rc"));
  FileServerConfig cfg;
  cfg.replication_factor = 3;
  FileServer fs1(*world.host("fs1"), {rc.address()}, FileServer::kDefaultPort, cfg);
  FileServer fs2(*world.host("fs2"), {rc.address()}, FileServer::kDefaultPort, cfg);
  fs1.set_peers({fs2.address()});
  fs2.set_peers({fs1.address()});

  transport::RpcEndpoint rpc(*world.host("app"), 9200);
  FileClient client(rpc, {rc.address()});
  client.write(fs1.address(), "lifn://utk.edu/churn", pattern(4000), [](Result<void>) {});
  world.engine().run();
  ASSERT_TRUE(fs2.has("lifn://utk.edu/churn"));
  std::uint64_t received_after_write = fs2.stats().replicas_received;

  world.engine().run_for(duration::seconds(90));  // several repair periods
  EXPECT_EQ(fs1.stats().repairs, 0u);
  EXPECT_EQ(fs2.stats().repairs, 0u);
  EXPECT_EQ(fs2.stats().replicas_received, received_after_write);
}

TEST_F(FilesFixture, OverwriteDoesNotDoubleCountStoredBytes) {
  fs1->store_local("lifn://utk.edu/ow", pattern(1000), /*announce=*/false);
  EXPECT_EQ(fs1->stats().bytes_stored, 1000u);
  fs1->store_local("lifn://utk.edu/ow", pattern(400), /*announce=*/false);
  EXPECT_EQ(fs1->stats().bytes_stored, 400u);
  fs1->store_local("lifn://utk.edu/ow2", pattern(50), /*announce=*/false);
  EXPECT_EQ(fs1->stats().bytes_stored, 450u);
}

TEST_F(FilesFixture, FleetTotalFollowsStoredBytesDown) {
  // files.bytes_stored is a level: a beacon after an overwrite with fewer
  // bytes must bring the collector's fleet total down with it.
  obs::BeaconBuilder::Options opt;
  opt.host = "fs1";
  opt.period_ns = 1'000'000'000;
  opt.registry = &world.host("fs1")->metrics();
  obs::BeaconBuilder builder(opt);
  obs::FleetStore store;
  fs1->store_local("lifn://utk.edu/level", pattern(1000), /*announce=*/false);
  store.apply(builder.build(1), 1);
  EXPECT_DOUBLE_EQ(store.merged_value("files.bytes_stored"), 1000);
  fs1->store_local("lifn://utk.edu/level", pattern(400), /*announce=*/false);
  store.apply(builder.build(2), 2);
  EXPECT_DOUBLE_EQ(store.merged_value("files.bytes_stored"), 400);
  EXPECT_EQ(reported(*world.host("fs1"), "files.bytes_stored"), 400);
}

TEST_F(FilesFixture, DeleteReleasesItsStoredBytes) {
  fs1->store_local("lifn://utk.edu/del", pattern(1000), /*announce=*/false);
  fs1->store_local("lifn://utk.edu/keep", pattern(50), /*announce=*/false);
  ByteWriter w;
  w.str("lifn://utk.edu/del");
  Result<Bytes> deleted(Errc::state_error, "unset");
  app_rpc->call(fs1->address(), tags::kDelete, std::move(w).take(),
                [&](Result<Bytes> r) { deleted = r; });
  world.engine().run();
  ASSERT_TRUE(deleted.ok()) << deleted.error().to_string();
  EXPECT_FALSE(fs1->has("lifn://utk.edu/del"));
  EXPECT_EQ(fs1->stats().bytes_stored, 50u);
}

TEST_F(FilesFixture, OverwriteAnnouncesDigestOfNewBytes) {
  // Each server hashes a file once, when its bytes arrive, and every later
  // (re-)announce reuses that digest; an overwrite must replace it, on the
  // writer and on a replica the new bytes are pushed to.
  const std::string lifn = "lifn://utk.edu/rewritten";
  auto catalog_hash = [&] {
    std::string hash;
    for (const auto& a : rc->get(lifn))
      if (a.name == rcds::names::kLifnHash && !a.tombstone) hash = a.value;
    return hash;
  };
  auto hash_of = [](const Bytes& b) { return crypto::digest_hex(crypto::sha256(b)); };
  fs1->store_local(lifn, pattern(4000, 1));  // replicated to fs2
  world.engine().run();
  EXPECT_EQ(catalog_hash(), hash_of(pattern(4000, 1)));

  // The writer alone: its announce is the catalog's only update.
  fs1->set_peers({});
  fs1->store_local(lifn, pattern(3000, 2));
  world.engine().run();
  EXPECT_EQ(catalog_hash(), hash_of(pattern(3000, 2)));

  // Pushed to fs2, which still holds version 1: fs2 re-announces after
  // fs1, so a stale digest there would win the catalog.
  fs1->set_peers({fs2->address()});
  fs1->store_local(lifn, pattern(2000, 3));
  world.engine().run();
  EXPECT_EQ(catalog_hash(), hash_of(pattern(2000, 3)));
  EXPECT_EQ(fs2->read(lifn).value(), pattern(2000, 3));
  Result<Bytes> read(Errc::state_error, "unset");
  client->read(lifn, [&](Result<Bytes> r) { read = r; });
  world.engine().run();
  ASSERT_TRUE(read.ok()) << read.error().to_string();
  EXPECT_EQ(read.value(), pattern(2000, 3));
}

}  // namespace
}  // namespace snipe::files
