// Tests for the RC metadata service: LWW merge algebra, the RPC layer,
// master-master replication, anti-entropy repair, client failover, the
// single-master ablation mode, and signed metadata subsets.
#include <gtest/gtest.h>

#include "crypto/hash.hpp"
#include "rcds/client.hpp"
#include "rcds/server.hpp"
#include "rcds/signed.hpp"

namespace snipe::rcds {
namespace {

using simnet::Address;
using simnet::World;

// ---- Assertion / Record algebra (pure unit tests) ----

TEST(Assertion, NewerOrdering) {
  Assertion a{"n", "v", 10, "s1", false};
  Assertion b{"n", "v", 20, "s1", false};
  EXPECT_TRUE(Assertion::newer(b, a));
  EXPECT_FALSE(Assertion::newer(a, b));
  // Timestamp tie: origin breaks it deterministically.
  Assertion c{"n", "v", 10, "s2", false};
  EXPECT_TRUE(Assertion::newer(c, a));
  EXPECT_FALSE(Assertion::newer(a, c));
  // Perfect tie: removal wins.
  Assertion d{"n", "v", 10, "s1", true};
  EXPECT_TRUE(Assertion::newer(d, a));
}

TEST(Assertion, EncodeDecodeRoundTrip) {
  Assertion a{"proc:address", "snipe://x:1/y", 123456789, "srv:7100", true};
  auto b = decode<Assertion>(encode(a)).value();
  EXPECT_EQ(b.name, a.name);
  EXPECT_EQ(b.value, a.value);
  EXPECT_EQ(b.timestamp, a.timestamp);
  EXPECT_EQ(b.origin, a.origin);
  EXPECT_EQ(b.tombstone, a.tombstone);
}

TEST(Record, MergeIsIdempotentAndCommutative) {
  Assertion a{"n", "v1", 10, "s1", false};
  Assertion b{"n", "v1", 20, "s2", true};
  Record r1, r2;
  EXPECT_TRUE(r1.merge(a));
  EXPECT_TRUE(r1.merge(b));
  EXPECT_FALSE(r1.merge(a));  // stale write changes nothing
  EXPECT_FALSE(r1.merge(b));  // idempotent
  r2.merge(b);
  r2.merge(a);
  EXPECT_EQ(r1.values("n"), r2.values("n"));
  EXPECT_TRUE(r1.values("n").empty());  // tombstoned
  EXPECT_EQ(r1.latest(), 20);
}

TEST(Record, MultiValuedNames) {
  Record r;
  r.merge({"loc", "url1", 1, "s", false});
  r.merge({"loc", "url2", 2, "s", false});
  r.merge({"other", "x", 3, "s", false});
  EXPECT_EQ(r.values("loc"), (std::vector<std::string>{"url1", "url2"}));
  EXPECT_EQ(r.value("other").value(), "x");
  EXPECT_FALSE(r.value("absent").has_value());
  EXPECT_EQ(r.live().size(), 3u);
}

TEST(Op, RoundTripAndValidation) {
  auto op = decode<Op>(encode(op_set("name", "value"))).value();
  EXPECT_EQ(op.kind, Op::Kind::set);
  EXPECT_EQ(op.name, "name");

  ByteWriter bad;
  bad.u8(9);
  bad.str("n");
  bad.str("v");
  EXPECT_FALSE(decode<Op>(bad.bytes()).ok());
}

// ---- RPC layer ----

struct RpcFixture : ::testing::Test {
  RpcFixture() : world(11) {
    world.create_network("lan", simnet::ethernet100());
    for (const char* name : {"client", "server"})
      world.attach(world.create_host(name), *world.network("lan"));
  }
  World world;
};

TEST_F(RpcFixture, CallResponseAndError) {
  transport::RpcEndpoint server(*world.host("server"), 9000);
  transport::RpcEndpoint client(*world.host("client"), 9001);
  server.serve(1, [](const Address&, const Bytes& body) -> Result<Bytes> {
    Bytes echoed = body;
    echoed.push_back('!');
    return echoed;
  });
  server.serve(2, [](const Address&, const Bytes&) -> Result<Bytes> {
    return Result<Bytes>(Errc::quota_exceeded, "too much");
  });

  Result<Bytes> got1(Errc::state_error, "unset");
  Result<Bytes> got2(Errc::state_error, "unset");
  client.call(server.address(), 1, to_bytes("hi"), [&](Result<Bytes> r) { got1 = r; });
  client.call(server.address(), 2, {}, [&](Result<Bytes> r) { got2 = r; });
  world.engine().run();

  ASSERT_TRUE(got1.ok());
  EXPECT_EQ(to_string(got1.value()), "hi!");
  EXPECT_EQ(got2.code(), Errc::quota_exceeded);
  EXPECT_EQ(got2.error().message, "too much");
  EXPECT_EQ(client.stats().calls_ok, 1u);
  EXPECT_EQ(client.stats().calls_error, 1u);
}

TEST_F(RpcFixture, UnknownTagReported) {
  transport::RpcEndpoint server(*world.host("server"), 9000);
  transport::RpcEndpoint client(*world.host("client"), 9001);
  Result<Bytes> got(Errc::state_error, "unset");
  client.call(server.address(), 77, {}, [&](Result<Bytes> r) { got = r; });
  world.engine().run();
  EXPECT_EQ(got.code(), Errc::not_found);
}

TEST_F(RpcFixture, TimeoutWhenServerDown) {
  transport::RpcEndpoint server(*world.host("server"), 9000);
  transport::RpcEndpoint client(*world.host("client"), 9001);
  world.host("server")->set_up(false);
  Result<Bytes> got(Errc::state_error, "unset");
  client.call(server.address(), 1, {}, [&](Result<Bytes> r) { got = r; },
              duration::seconds(1));
  world.engine().run_for(duration::seconds(2));
  EXPECT_EQ(got.code(), Errc::timeout);
  EXPECT_EQ(client.stats().calls_timeout, 1u);
}

TEST_F(RpcFixture, SharedSecretAuthentication) {
  transport::RpcConfig good;
  good.shared_secret = "sesame";
  transport::RpcConfig bad;
  bad.shared_secret = "wrong";

  transport::RpcEndpoint server(*world.host("server"), 9000, good);
  transport::RpcEndpoint authorized(*world.host("client"), 9001, good);
  transport::RpcEndpoint impostor(*world.host("client"), 9002, bad);
  server.serve(1, [](const Address&, const Bytes&) -> Result<Bytes> { return Bytes{1}; });

  Result<Bytes> ok_result_(Errc::state_error, "unset"), bad_result(Errc::state_error, "unset");
  authorized.call(server.address(), 1, {}, [&](Result<Bytes> r) { ok_result_ = r; });
  impostor.call(server.address(), 1, {}, [&](Result<Bytes> r) { bad_result = r; });
  world.engine().run();

  EXPECT_TRUE(ok_result_.ok());
  EXPECT_EQ(bad_result.code(), Errc::permission_denied);
  EXPECT_EQ(server.stats().requests_rejected_auth, 1u);
}

TEST_F(RpcFixture, AuthenticatorIsMd5OfSecretAndBody) {
  transport::RpcConfig keyed;
  keyed.shared_secret = "sesame";
  Bytes body(200);
  for (std::size_t i = 0; i < body.size(); ++i) body[i] = static_cast<std::uint8_t>(i * 7);

  // Capture the request on the wire: kind, id, tag, body blob, auth blob.
  transport::SrudpEndpoint tap(*world.host("server"), 9000);
  Bytes wire;
  tap.set_handler([&](const Address&, Payload m) { wire = m.to_bytes(); });
  transport::RpcEndpoint client(*world.host("client"), 9001, keyed);
  client.call(tap.address(), 1, body, [](Result<Bytes>) {}, duration::seconds(1));
  world.engine().run();
  ByteReader r(wire);
  ASSERT_TRUE(r.u8() && r.u64() && r.u32());
  auto sent_body = r.blob();
  auto auth = r.blob();
  ASSERT_TRUE(sent_body && auth);
  ASSERT_EQ(sent_body.value(), body);
  Bytes joined = to_bytes("sesame");
  joined.insert(joined.end(), body.begin(), body.end());
  auto want = crypto::md5(joined);
  EXPECT_EQ(auth.value(), Bytes(want.begin(), want.end()));

  // Replay the captured request to a keyed server, once as sent and once
  // with one body byte flipped under the same authenticator.
  transport::RpcEndpoint server(*world.host("server"), 9010, keyed);
  int served = 0;
  server.serve(1, [&](const Address&, const Bytes&) -> Result<Bytes> {
    ++served;
    return Bytes{};
  });
  transport::SrudpEndpoint forger(*world.host("client"), 9002);
  Bytes tampered = wire;
  tampered[1 + 8 + 4 + 4 + 100] ^= 0x01;  // inside the body blob
  forger.send(server.address(), wire);
  forger.send(server.address(), tampered);
  world.engine().run();
  EXPECT_EQ(served, 1);
  EXPECT_EQ(server.stats().requests_served, 1u);
  EXPECT_EQ(server.stats().requests_rejected_auth, 1u);
}

TEST_F(RpcFixture, NotifyIsDelivered) {
  transport::RpcEndpoint server(*world.host("server"), 9000);
  transport::RpcEndpoint client(*world.host("client"), 9001);
  std::vector<std::string> got;
  server.on_notify(5, [&](const Address&, const Payload& b) { got.push_back(to_string(b)); });
  client.notify(server.address(), 5, to_bytes("event"));
  world.engine().run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "event");
}

// ---- RC server + client ----

struct RcFixture : ::testing::Test {
  static constexpr int kReplicas = 3;

  RcFixture() : world(21) {
    world.create_network("lan", simnet::ethernet100());
    for (int i = 0; i < kReplicas; ++i) {
      auto& h = world.create_host("rc" + std::to_string(i));
      world.attach(h, *world.network("lan"));
      servers.push_back(std::make_unique<RcServer>(h));
    }
    std::vector<Address> all;
    for (auto& s : servers) all.push_back(s->address());
    for (std::size_t i = 0; i < servers.size(); ++i) {
      std::vector<Address> peers;
      for (std::size_t j = 0; j < all.size(); ++j)
        if (j != i) peers.push_back(all[j]);
      servers[i]->set_peers(peers);
    }
    auto& ch = world.create_host("client");
    world.attach(ch, *world.network("lan"));
    client_rpc = std::make_unique<transport::RpcEndpoint>(ch, 9100);
    client = std::make_unique<RcClient>(*client_rpc, all);
  }

  World world;
  std::vector<std::unique_ptr<RcServer>> servers;
  std::unique_ptr<transport::RpcEndpoint> client_rpc;
  std::unique_ptr<RcClient> client;
};

TEST_F(RcFixture, SetAndLookupThroughClient) {
  Result<void> wrote(Errc::state_error, "unset");
  client->set("urn:snipe:proc:p1", names::kProcState, "running",
              [&](Result<void> r) { wrote = r; });
  world.engine().run();
  ASSERT_TRUE(wrote.ok());

  Result<std::vector<std::string>> values(Errc::state_error, "unset");
  client->lookup("urn:snipe:proc:p1", names::kProcState,
                 [&](Result<std::vector<std::string>> r) { values = r; });
  world.engine().run();
  ASSERT_TRUE(values.ok());
  EXPECT_EQ(values.value(), (std::vector<std::string>{"running"}));
}

TEST_F(RcFixture, SetReplacesPreviousValue) {
  client->set("u", "k", "v1", [](Result<void>) {});
  world.engine().run();
  client->set("u", "k", "v2", [](Result<void>) {});
  world.engine().run();
  Result<std::vector<std::string>> values(Errc::state_error, "unset");
  client->lookup("u", "k", [&](auto r) { values = r; });
  world.engine().run();
  EXPECT_EQ(values.value(), (std::vector<std::string>{"v2"}));
}

TEST_F(RcFixture, AddAccumulatesAndRemoveRetracts) {
  client->add("u", "loc", "url1", [](Result<void>) {});
  client->add("u", "loc", "url2", [](Result<void>) {});
  world.engine().run();
  client->remove("u", "loc", "url1", [](Result<void>) {});
  world.engine().run();
  Result<std::vector<std::string>> values(Errc::state_error, "unset");
  client->lookup("u", "loc", [&](auto r) { values = r; });
  world.engine().run();
  EXPECT_EQ(values.value(), (std::vector<std::string>{"url2"}));
}

TEST_F(RcFixture, WritesReplicateToAllMasters) {
  client->set("u", "k", "v", [](Result<void>) {});
  world.engine().run();
  for (auto& server : servers) {
    auto record = server->get("u");
    ASSERT_EQ(record.size(), 1u) << server->server_id();
    EXPECT_EQ(record[0].value, "v");
    EXPECT_GT(record[0].timestamp, 0);  // auto-timestamped (§3.1)
  }
}

TEST_F(RcFixture, LookupMissingUriYieldsEmpty) {
  Result<std::vector<Assertion>> got(Errc::state_error, "unset");
  client->get("urn:snipe:proc:ghost", [&](auto r) { got = r; });
  world.engine().run();
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.value().empty());
}

TEST_F(RcFixture, ClientFailsOverWhenPreferredReplicaDies) {
  world.host("rc0")->set_up(false);
  Result<void> wrote(Errc::state_error, "unset");
  client->set("u", "k", "v", [&](Result<void> r) { wrote = r; });
  world.engine().run_for(duration::seconds(10));
  ASSERT_TRUE(wrote.ok());
  EXPECT_GE(client->stats().failovers, 1u);

  // Surviving replicas hold the write.
  EXPECT_EQ(servers[1]->get("u").size(), 1u);
  EXPECT_EQ(servers[2]->get("u").size(), 1u);
}

TEST_F(RcFixture, DeadReplicaConvergesViaBufferedReplication) {
  // rc2 is down briefly — shorter than the transport's message TTL, so the
  // peers' buffered replication updates reach it on reboot, no anti-entropy
  // needed.
  world.host("rc2")->set_up(false);
  client->set("u", "k", "v", [](Result<void>) {});
  world.engine().run_for(duration::seconds(5));
  EXPECT_TRUE(servers[2]->get("u").empty());
  world.host("rc2")->set_up(true);
  world.engine().run_for(duration::seconds(10));
  ASSERT_EQ(servers[2]->get("u").size(), 1u);
  EXPECT_EQ(servers[2]->get("u")[0].value, "v");
}

TEST_F(RcFixture, LongDeadReplicaConvergesViaAntiEntropy) {
  // rc2 is down *longer* than the transport TTL (30 s): push replication
  // expires, and only the periodic digest exchange can repair it.
  world.host("rc2")->set_up(false);
  client->set("u", "k", "v", [](Result<void>) {});
  world.engine().run_for(duration::seconds(40));
  EXPECT_TRUE(servers[2]->get("u").empty());
  world.host("rc2")->set_up(true);
  world.engine().run_for(duration::seconds(25));  // two anti-entropy rounds
  ASSERT_EQ(servers[2]->get("u").size(), 1u);
  EXPECT_EQ(servers[2]->get("u")[0].value, "v");
  std::uint64_t repairs = 0;
  for (auto& s : servers) repairs += s->stats().anti_entropy_repairs;
  EXPECT_GT(repairs, 0u);
}

TEST_F(RcFixture, ConcurrentWritesConvergeIdentically) {
  // Two different masters accept conflicting writes in the same instant;
  // all replicas must converge to the same winner (§2.1's availability-over-
  // serializability trade).
  servers[0]->apply("u", {op_set("k", "from0")});
  servers[1]->apply("u", {op_set("k", "from1")});
  world.engine().run_for(duration::seconds(15));
  auto v0 = servers[0]->get("u");
  auto v1 = servers[1]->get("u");
  auto v2 = servers[2]->get("u");
  ASSERT_FALSE(v0.empty());
  // All replicas agree on the same set of surviving values.
  auto values_of = [](const std::vector<Assertion>& as) {
    std::vector<std::string> v;
    for (const auto& a : as) v.push_back(a.value);
    return v;
  };
  EXPECT_EQ(values_of(v0), values_of(v1));
  EXPECT_EQ(values_of(v1), values_of(v2));
}

TEST_F(RcFixture, ClientsSeeServerTimestampsForAgeDecisions) {
  // §3.1: "Automatic time stamping of metadata by the RC servers also
  // helps temporally dis-joint tasks communication by allowing them to
  // decide for themselves the age and therefore relevance of any metadata
  // previously stored."  A later reader compares stamps across epochs.
  client->set("urn:snipe:proc:sensor", "last-reading", "17", [](Result<void>) {});
  world.engine().run();
  world.engine().run_until(world.now() + duration::minutes(10));
  client->set("urn:snipe:proc:sensor", "calibration", "0.97", [](Result<void>) {});
  world.engine().run();

  Result<std::vector<Assertion>> record(Errc::state_error, "unset");
  client->get("urn:snipe:proc:sensor", [&](auto r) { record = r; });
  world.engine().run();
  ASSERT_TRUE(record.ok());
  SimTime reading_ts = 0, calibration_ts = 0;
  for (const auto& a : record.value()) {
    if (a.name == "last-reading") reading_ts = a.timestamp;
    if (a.name == "calibration") calibration_ts = a.timestamp;
  }
  ASSERT_GT(reading_ts, 0);
  ASSERT_GT(calibration_ts, 0);
  // The consumer can tell the reading is ~10 minutes stale relative to the
  // calibration entry.
  EXPECT_GE(calibration_ts - reading_ts, duration::minutes(9));
}

TEST_F(RcFixture, TimestampsAreMonotonePerServer) {
  auto w1 = servers[0]->apply("u", {op_add("k", "a")});
  auto w2 = servers[0]->apply("u", {op_add("k", "b")});
  ASSERT_FALSE(w1.empty());
  ASSERT_FALSE(w2.empty());
  EXPECT_LT(w1[0].timestamp, w2[0].timestamp);
}

TEST(RcSingleMaster, ReplicaForwardsWritesToMaster) {
  // The LDAP-style ablation: only the master accepts writes; a client
  // talking to a replica gets referred and retries at the master.
  World world(31);
  world.create_network("lan", simnet::ethernet100());
  auto& m = world.create_host("master");
  auto& r = world.create_host("replica");
  auto& c = world.create_host("client");
  for (auto* h : {&m, &r, &c}) world.attach(*h, *world.network("lan"));

  RcServerConfig cfg;
  cfg.single_master = true;
  RcServer master(m, RcServer::kDefaultPort, cfg);
  RcServer replica(r, RcServer::kDefaultPort, cfg);
  master.set_peers({master.address(), replica.address()});
  replica.set_peers({master.address(), replica.address()});

  transport::RpcEndpoint rpc(c, 9100);
  // Client deliberately prefers the replica.
  RcClient client(rpc, {replica.address(), master.address()});
  Result<void> wrote(Errc::state_error, "unset");
  client.set("u", "k", "v", [&](Result<void> res) { wrote = res; });
  world.engine().run_for(duration::seconds(5));
  ASSERT_TRUE(wrote.ok());
  EXPECT_GE(replica.stats().forwards, 1u);
  EXPECT_EQ(master.get("u").size(), 1u);
  // The master still replicates reads-only copies outward.
  world.engine().run_for(duration::seconds(5));
  EXPECT_EQ(replica.get("u").size(), 1u);
}

// ---- Signed subsets ----

TEST(SignedSubset, SignVerifyTamper) {
  Rng rng(55);
  auto signer = crypto::Principal::create("urn:snipe:user:moore", rng);
  auto subset = SignedSubset::sign(signer, "urn:snipe:proc:p",
                                   {{"proc:address", "snipe://a:1/x"}, {"proc:state", "ok"}});
  EXPECT_TRUE(subset.verify_with(signer.keys.pub));

  auto tampered = subset;
  tampered.entries[0].second = "snipe://evil:1/x";
  EXPECT_FALSE(tampered.verify_with(signer.keys.pub));
}

TEST(SignedSubset, OrderInsensitiveCanonicalForm) {
  Rng rng(56);
  auto signer = crypto::Principal::create("u", rng);
  auto s1 = SignedSubset::sign(signer, "r", {{"a", "1"}, {"b", "2"}});
  auto s2 = SignedSubset::sign(signer, "r", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(s1.canonical_bytes(), s2.canonical_bytes());
}

TEST(SignedSubset, StoresAsAssertionAndDecodes) {
  Rng rng(57);
  auto signer = crypto::Principal::create("urn:snipe:rm:grm1", rng);
  auto subset = SignedSubset::sign(signer, "lifn://utk.edu/code/agent",
                                   {{"lifn:sha256", "abc123"}});
  Op op = subset.to_op("code");
  EXPECT_EQ(op.name, "rcds:sig:code");
  auto decoded = SignedSubset::from_assertion_value(op.value).value();
  EXPECT_EQ(decoded.uri, subset.uri);
  EXPECT_EQ(decoded.signer, signer.uri);
  EXPECT_TRUE(decoded.verify_with(signer.keys.pub));
}

}  // namespace
}  // namespace snipe::rcds
