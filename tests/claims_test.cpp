// The paper's performance claims as tier-1 assertions (ctest label
// `claims`).  Each case runs the scenario body its bench runs
// (bench/scenarios.hpp) and asserts on virtual time only, so a claim that
// holds here holds in every bench run, on every machine.
#include <gtest/gtest.h>

#include "scenarios.hpp"
#include "simnet/media.hpp"

namespace snipe::bench {
namespace {

struct Medium {
  const char* name;
  simnet::MediaModel (*model)();
};

// Fig. 1's two media plus the Myrinet extension (EXPERIMENTS.md, Fig. 1).
const Medium kFig1Media[] = {
    {"eth100", simnet::ethernet100},
    {"atm155", simnet::atm155},
    {"myrinet", simnet::myrinet},
};

// Fig. 1 (§6): SNIPE's selective re-send protocol delivers at least TCP's
// bandwidth once messages are large.  Up to 4 KiB (16 KiB on Ethernet and
// Myrinet) TCP still leads: its byte stream packs messages into full
// segments, where SRUDP ends each message with a short datagram.  So the
// claim is asserted from 64 KiB up.
TEST(Fig1, SrudpAtLeastTcpForLargeMessages) {
  for (const Medium& m : kFig1Media) {
    for (std::size_t size : {std::size_t{64} << 10, std::size_t{1} << 20}) {
      const double srudp = fig1_MBps(Protocol::srudp, m.model(), size);
      const double tcp = fig1_MBps(Protocol::tcp, m.model(), size);
      ASSERT_GT(srudp, 0) << m.name << " " << size;
      ASSERT_GT(tcp, 0) << m.name << " " << size;
      EXPECT_GE(srudp, tcp) << m.name << " " << size << " B: SRUDP " << srudp << " MB/s, TCP "
                            << tcp << " MB/s";
    }
  }
}

// Fig. 1's left edge: no handshake and a one-datagram message give SRUDP
// the lower one-byte round trip on every medium, WAN included.
TEST(Fig1, SrudpRoundTripBelowTcp) {
  const Medium media[] = {
      {"eth100", simnet::ethernet100}, {"atm155", simnet::atm155}, {"wan_t3", simnet::wan_t3}};
  for (const Medium& m : media) {
    const double srudp = fig1_rtt_seconds(Protocol::srudp, m.model());
    const double tcp = fig1_rtt_seconds(Protocol::tcp, m.model());
    ASSERT_GT(srudp, 0) << m.name;
    ASSERT_GT(tcp, 0) << m.name;
    EXPECT_LT(srudp, tcp) << m.name << ": SRUDP " << srudp * 1e6 << " us, TCP " << tcp * 1e6
                          << " us";
  }
}

// The deviation EXPERIMENTS.md admits: at 256 B a message is one short
// datagram and a whole-message ack, where the stream packs many messages
// per segment, so TCP leads.  If this flips, the write-up is out of date.
TEST(Fig1, TcpLeadsOnSmallMessages) {
  for (const Medium& m : kFig1Media) {
    const double srudp = fig1_MBps(Protocol::srudp, m.model(), 256);
    const double tcp = fig1_MBps(Protocol::tcp, m.model(), 256);
    ASSERT_GT(srudp, 0) << m.name;
    EXPECT_GT(tcp, srudp) << m.name << ": SRUDP " << srudp << " MB/s, TCP " << tcp << " MB/s";
  }
}

}  // namespace
}  // namespace snipe::bench
