// Figure 1: "Bandwidth in MegaBytes/Second offered to SNIPE client
// applications on various media."
//
// The paper's only performance figure compares the comms module's
// protocols (the selective re-send UDP protocol and TCP) on 100 Mb
// Ethernet and 155 Mb ATM.  This harness regenerates the figure's series —
// bandwidth vs message size per (protocol, medium) — and extends it with
// Myrinet and a lossy-WAN sweep as ablations.  Expected shape (paper):
// both protocols approach the media limit for large messages, SNIPE's
// SRUDP delivers slightly more of it than TCP (no handshake, selective
// retransmission, leaner acking), and ATM outruns Ethernet once messages
// amortize per-packet costs.
//
// Metrics are virtual-time: sim_MBps is what Fig. 1's y-axis shows.  The
// scenario bodies live in scenarios.hpp, where claims_test asserts the
// figure's ordering on the same numbers.
#include "bench_util.hpp"
#include "simnet/topo.hpp"

namespace {

using namespace snipe;
using namespace snipe::bench;

void BM_Fig1(benchmark::State& state) {
  const auto protocol = static_cast<Protocol>(state.range(0));
  const int media_index = static_cast<int>(state.range(1));
  const std::size_t size = static_cast<std::size_t>(state.range(2));

  double mbps = 0;
  for (auto _ : state) {
    reset_metrics();
    mbps = fig1_MBps(protocol, media_by_index(media_index), size);
    if (mbps <= 0) {
      state.SkipWithError("transfer incomplete");
      return;
    }
  }
  state.counters["sim_MBps"] = mbps;
  state.counters["msg_bytes"] = static_cast<double>(size);
  // Retained totals survive the endpoints (destroyed inside the scenario), so
  // the snapshot still carries the whole transfer: retransmit count, RTT
  // percentiles, delivered bytes.
  if (protocol == Protocol::srudp) embed_metrics(state, "srudp.");
  state.SetLabel(std::string(protocol == Protocol::srudp ? "SNIPE-srudp" : "TCP") + "/" +
                 media_name(media_index));
}

void fig1_args(benchmark::internal::Benchmark* b) {
  for (int protocol : {0, 1})  // Protocol::srudp, Protocol::tcp
    for (int media : {1, 2, 3})  // eth100, atm155, myrinet (Fig. 1 + extension)
      for (std::int64_t size : {256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304})
        b->Args({protocol, media, size});
}

BENCHMARK(BM_Fig1)->Apply(fig1_args)->Iterations(1)->Unit(benchmark::kMillisecond);

// Small-message latency companion (the left edge of Fig. 1's curves).
void BM_Fig1Latency(benchmark::State& state) {
  const auto protocol = static_cast<Protocol>(state.range(0));
  const int media_index = static_cast<int>(state.range(1));
  double rtt = 0;
  for (auto _ : state) {
    rtt = fig1_rtt_seconds(protocol, media_by_index(media_index));
    if (rtt <= 0) {
      state.SkipWithError("ping-pong incomplete");
      return;
    }
  }
  state.counters["sim_rtt_us"] = rtt * 1e6;
  state.SetLabel(std::string(protocol == Protocol::srudp ? "SNIPE-srudp" : "TCP") + "/" +
                 media_name(media_index));
}

BENCHMARK(BM_Fig1Latency)
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({0, 2})
    ->Args({1, 2})
    ->Args({0, 4})
    ->Args({1, 4})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// Fig. 1 re-run across a datacenter topology: the same SRUDP size sweep,
// but sender and receiver sit in *different racks* of a fat-tree, so every
// fragment pays four serialize+propagate hops (rack -> uplink -> uplink ->
// rack) through ToR and spine routers instead of one shared segment.  The
// embedded srudp.delivery_ms histogram makes the per-hop latency tax
// visible next to the flat-Fig.-1 rows; goodput converges to the thinnest
// link on the path (the uplinks, equal media here) minus the extra hops'
// framing.
void BM_Fig1Datacenter(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  const int count = static_cast<int>(std::max<std::int64_t>(1, kFig1TransferBytes / size));
  double secs = 0;
  for (auto _ : state) {
    reset_metrics();
    simnet::World world(42);
    simnet::FatTreeOptions opt;  // 2 racks, 2 hosts each, 2 spines, all eth100
    simnet::build_fat_tree(world, "dc", opt);
    transport::SrudpEndpoint tx(*world.host("dc/h0_0"), 7001);
    transport::SrudpEndpoint rx(*world.host("dc/h1_0"), 7002);
    int delivered = 0;
    rx.set_handler([&](const simnet::Address&, Payload) { ++delivered; });
    SimTime start = world.now();
    for (int i = 0; i < count; ++i) tx.send(rx.address(), Bytes(size, 0x5a));
    world.engine().run();
    secs = to_seconds(world.now() - start);
    if (delivered != count) {
      state.SkipWithError("transfer incomplete");
      return;
    }
  }
  double bytes = static_cast<double>(size) * count;
  state.counters["sim_MBps"] = bytes / secs / 1e6;
  state.counters["msg_bytes"] = static_cast<double>(size);
  embed_metrics(state, "srudp.");
  state.SetLabel("SNIPE-srudp/fat-tree-cross-rack");
}

BENCHMARK(BM_Fig1Datacenter)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Arg(65536)
    ->Arg(262144)
    ->Arg(1048576)
    ->Arg(4194304)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// Loss ablation: selective re-send vs cumulative-ack streams under loss —
// the design rationale for SRUDP (DESIGN.md §5.2).
void BM_LossAblation(benchmark::State& state) {
  const auto protocol = static_cast<Protocol>(state.range(0));
  const double loss = static_cast<double>(state.range(1)) / 1000.0;
  double secs = 0;
  for (auto _ : state) {
    reset_metrics();
    secs = transfer_seconds(protocol, simnet::wan_t3(), 65536, 64, loss);
    if (secs <= 0) {
      state.SkipWithError("transfer incomplete");
      return;
    }
  }
  state.counters["sim_MBps"] = 64.0 * 65536 / secs / 1e6;
  state.counters["loss_pct"] = loss * 100;
  if (protocol == Protocol::srudp) embed_metrics(state, "srudp.");
  state.SetLabel(protocol == Protocol::srudp ? "SNIPE-srudp" : "TCP");
}

BENCHMARK(BM_LossAblation)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 10})
    ->Args({1, 10})
    ->Args({0, 30})
    ->Args({1, 30})
    ->Args({0, 50})
    ->Args({1, 50})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
