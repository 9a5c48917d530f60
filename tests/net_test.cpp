// Unit tests for the link layer: media timing, promiscuous delivery,
// per-receiver loss, and point-to-point queueing.
#include <gtest/gtest.h>

#include <vector>

#include "net/frame.hpp"
#include "net/medium.hpp"
#include "net/nic.hpp"
#include "sim/simulator.hpp"

namespace tfo::net {
namespace {

struct RxRecord {
  std::string nic;
  bool to_us;
  std::size_t len;
  SimTime at;
};

struct NetFixture : ::testing::Test {
  sim::Simulator sim;
  SharedMediumParams mp;
  std::unique_ptr<SharedMedium> wire;
  std::unique_ptr<Nic> a, b, c;
  std::vector<RxRecord> rx;

  void build() {
    wire = std::make_unique<SharedMedium>(sim, mp);
    a = make_nic("a", 1);
    b = make_nic("b", 2);
    c = make_nic("c", 3);
  }

  std::unique_ptr<Nic> make_nic(const std::string& name, std::uint32_t id) {
    NicParams np;
    np.rx_processing = 0;  // timing tests want raw wire time
    auto nic = std::make_unique<Nic>(sim, name, MacAddress::from_id(id), np);
    nic->set_rx_handler([this, name](const EthernetFrame& f, bool to_us) {
      rx.push_back({name, to_us, f.payload.size(), sim.now()});
    });
    nic->attach(*wire);
    return nic;
  }

  EthernetFrame frame_to(const Nic& dst, std::size_t len) {
    EthernetFrame f;
    f.dst = dst.mac();
    f.payload = Bytes(len, 0xab);
    return f;
  }
};

TEST_F(NetFixture, UnicastReachesOnlyAddressee) {
  build();
  a->send(frame_to(*b, 100));
  sim.run();
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx[0].nic, "b");
  EXPECT_TRUE(rx[0].to_us);
}

TEST_F(NetFixture, BroadcastReachesAll) {
  build();
  EthernetFrame f;
  f.dst = MacAddress::broadcast();
  f.payload = Bytes(10, 1);
  a->send(std::move(f));
  sim.run();
  EXPECT_EQ(rx.size(), 2u);  // b and c, not the sender
}

TEST_F(NetFixture, PromiscuousSeesForeignFrames) {
  build();
  c->set_promiscuous(true);
  a->send(frame_to(*b, 64));
  sim.run();
  ASSERT_EQ(rx.size(), 2u);
  // b got it addressed; c snooped it.
  bool saw_b = false, saw_c_promisc = false;
  for (const auto& r : rx) {
    if (r.nic == "b" && r.to_us) saw_b = true;
    if (r.nic == "c" && !r.to_us) saw_c_promisc = true;
  }
  EXPECT_TRUE(saw_b);
  EXPECT_TRUE(saw_c_promisc);
}

TEST_F(NetFixture, DisabledNicIsSilent) {
  build();
  b->set_enabled(false);
  a->send(frame_to(*b, 64));
  b->send(frame_to(*a, 64));
  sim.run();
  EXPECT_TRUE(rx.empty());
}

TEST_F(NetFixture, WireTimeMatchesBandwidth) {
  mp.bandwidth_bps = 100'000'000;
  mp.propagation = 0;
  build();
  // 1000B payload: frame = 14 + 1000 + 4 = 1018, +20 overhead = 1038 octets
  // = 8304 bits at 100 Mb/s = 83040 ns.
  a->send(frame_to(*b, 1000));
  sim.run();
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx[0].at, 83040u);
}

TEST_F(NetFixture, MinimumFramePadding) {
  mp.bandwidth_bps = 100'000'000;
  mp.propagation = 0;
  build();
  // 1B payload pads to 46: frame = 64, wire = 84 octets = 6720 ns.
  a->send(frame_to(*b, 1));
  sim.run();
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx[0].at, 6720u);
}

TEST_F(NetFixture, HalfDuplexSerializesTransmissions) {
  mp.bandwidth_bps = 100'000'000;
  mp.propagation = 0;
  build();
  a->send(frame_to(*c, 1000));
  b->send(frame_to(*c, 1000));  // same instant: must wait for the wire
  sim.run();
  ASSERT_EQ(rx.size(), 2u);
  EXPECT_EQ(rx[0].at, 83040u);
  EXPECT_EQ(rx[1].at, 2 * 83040u);
  EXPECT_EQ(wire->deferrals(), 1u);
}

TEST_F(NetFixture, FullDuplexDoesNotContend) {
  mp.bandwidth_bps = 100'000'000;
  mp.propagation = 0;
  mp.half_duplex = false;
  build();
  a->send(frame_to(*c, 1000));
  b->send(frame_to(*c, 1000));
  sim.run();
  ASSERT_EQ(rx.size(), 2u);
  EXPECT_EQ(rx[0].at, rx[1].at);
}

TEST_F(NetFixture, PerReceiverLossRule) {
  build();
  // Drop everything addressed to b, while promiscuous c still hears it —
  // the asymmetric loss the paper's §4 analysis needs.
  c->set_promiscuous(true);
  wire->set_loss_fn([this](const Nic&, const Nic& rxr, const EthernetFrame&) {
    return rxr.name() == "b";
  });
  a->send(frame_to(*b, 64));
  sim.run();
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx[0].nic, "c");
}

TEST_F(NetFixture, UniformLossDropsSomeFrames) {
  mp.impairment.loss = 0.5;
  mp.impairment.seed = 7;
  build();
  for (int i = 0; i < 100; ++i) a->send(frame_to(*b, 64));
  sim.run();
  EXPECT_GT(rx.size(), 20u);
  EXPECT_LT(rx.size(), 80u);
}

TEST_F(NetFixture, CountersTrackTraffic) {
  build();
  a->send(frame_to(*b, 500));
  sim.run();
  EXPECT_EQ(a->tx_frames(), 1u);
  EXPECT_EQ(a->tx_bytes(), 500u);
  EXPECT_EQ(b->rx_frames(), 1u);
  EXPECT_EQ(b->rx_bytes(), 500u);
}

// ------------------------------------------------------- rx batching

/// Two NICs on a wire, the receiver batching: every frame it hands up is
/// recorded by its first payload byte.
NicParams batching_params() {
  NicParams np;
  np.rx_processing = microseconds(10);
  np.rx_batch_max = 16;
  np.rx_batch_window = milliseconds(1);
  return np;
}

struct BatchFixture : ::testing::Test {
  sim::Simulator sim;
  SharedMedium wire{sim, SharedMediumParams{}};
  Nic tx{sim, "tx", MacAddress::from_id(1)};
  Nic rx{sim, "rx", MacAddress::from_id(2), batching_params()};
  std::vector<int> seen;
  int crash_on = -1;

  BatchFixture() {
    tx.attach(wire);
    rx.attach(wire);
    rx.set_rx_handler([this](const EthernetFrame& f, bool) {
      seen.push_back(f.payload[0]);
      if (f.payload[0] == crash_on) rx.set_enabled(false);
    });
  }
  void send(int mark) {
    EthernetFrame f;
    f.dst = rx.mac();
    f.type = EtherType::kArp;  // never a GRO candidate: one frame, one hand-up
    f.payload = Bytes(100, static_cast<std::uint8_t>(mark));
    tx.send(std::move(f));
  }
};

TEST_F(BatchFixture, CrashMidBatchLeavesNothingForTheNextFlush) {
  crash_on = 2;
  for (int m = 1; m <= 5; ++m) send(m);
  sim.run();
  EXPECT_EQ(rx.batch_stats().rx_batches, 1u);  // all five rode one batch
  EXPECT_EQ(seen, (std::vector<int>{1, 2}));    // the crash cut it short

  // Back up: the next flush carries the new frame and nothing of the old
  // batch's undelivered tail.
  rx.set_enabled(true);
  send(9);
  sim.run();
  EXPECT_EQ(rx.batch_stats().rx_batches, 2u);
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 9}));
}

TEST_F(BatchFixture, BatchFlushedWhileDownIsDropped) {
  for (int m = 1; m <= 3; ++m) send(m);
  sim.run_for(microseconds(100));  // staged, the flush not yet due
  rx.set_enabled(false);
  sim.run();                       // the flush finds the host down
  EXPECT_TRUE(seen.empty());
  rx.set_enabled(true);
  send(7);
  sim.run();
  EXPECT_EQ(seen, (std::vector<int>{7}));
}

TEST(PointToPoint, DeliversWithLatencyAndBandwidth) {
  sim::Simulator sim;
  PointToPointParams pp;
  pp.bandwidth_bps = 8'000'000;  // 1 byte/us
  pp.propagation = milliseconds(5);
  PointToPointLink link(sim, pp);
  NicParams np;
  np.rx_processing = 0;
  Nic a(sim, "a", MacAddress::from_id(1), np), b(sim, "b", MacAddress::from_id(2), np);
  a.attach(link);
  b.attach(link);
  SimTime got = 0;
  b.set_rx_handler([&](const EthernetFrame&, bool) { got = sim.now(); });
  EthernetFrame f;
  f.dst = b.mac();
  f.payload = Bytes(980, 1);  // wire 1018 octets -> 1018us
  a.send(std::move(f));
  sim.run();
  EXPECT_EQ(got, 1018u * 1000 + 5'000'000u);
}

TEST(PointToPoint, QueueLimitDropsTail) {
  sim::Simulator sim;
  PointToPointParams pp;
  pp.bandwidth_bps = 1'000'000;
  pp.queue_limit = 4;
  PointToPointLink link(sim, pp);
  NicParams np;
  np.rx_processing = 0;
  Nic a(sim, "a", MacAddress::from_id(1), np), b(sim, "b", MacAddress::from_id(2), np);
  a.attach(link);
  b.attach(link);
  int got = 0;
  b.set_rx_handler([&](const EthernetFrame&, bool) { ++got; });
  for (int i = 0; i < 10; ++i) {
    EthernetFrame f;
    f.dst = b.mac();
    f.payload = Bytes(1000, 1);
    a.send(std::move(f));
  }
  sim.run();
  EXPECT_EQ(got, 4);
  EXPECT_EQ(link.drops_queue(), 6u);
}

TEST(PointToPoint, UniformLossIsSeeded) {
  // The fig6 WAN link's uniform loss: the drop schedule is a function of
  // the seed alone, so the count for a fixed frame sequence is pinned.
  sim::Simulator sim;
  PointToPointParams pp;
  pp.bandwidth_bps = 1'500'000;
  pp.impairment.loss = 0.002;
  pp.impairment.seed = 43;
  pp.queue_limit = 40;
  PointToPointLink link(sim, pp);
  NicParams np;
  np.rx_processing = 0;
  Nic a(sim, "a", MacAddress::from_id(1), np), b(sim, "b", MacAddress::from_id(2), np);
  a.attach(link);
  b.attach(link);
  std::uint64_t got = 0;
  b.set_rx_handler([&](const EthernetFrame&, bool) { ++got; });
  constexpr std::uint64_t kFrames = 20000;
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    EthernetFrame f;
    f.dst = b.mac();
    f.payload = Bytes(64, 1);
    a.send(std::move(f));
    sim.run();  // one frame in flight at a time: no queue drops
  }
  EXPECT_EQ(link.drops_queue(), 0u);
  EXPECT_EQ(link.drops_loss(), 46u);
  EXPECT_EQ(got + link.drops_loss(), kFrames);
}

}  // namespace
}  // namespace tfo::net
