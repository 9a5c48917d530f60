// The primary bridge's expiry sweep (§8 tombstones and the handshake
// watch): when each deadline fires, what it reaps, which deadline wins
// after a rekey or a re-tombstone, and how often the sweep timer runs.
#include <gtest/gtest.h>

#include <algorithm>

#include "failover_fixture.hpp"
#include "tcp/segment.hpp"

namespace tfo::core {
namespace {

using test::kEchoPort;
using test::make_replicated_lan;
using test::run_until;

constexpr std::uint16_t kClientPort = 40000;
constexpr std::uint32_t kClientIsn = 1000;

SimTime tombstone_ttl(apps::Host& primary) {
  return static_cast<SimTime>(4 * primary.tcp().params().msl);
}

std::uint64_t counter(apps::Host& h, const char* name) {
  return h.obs().registry.counter_value(name);
}

/// The secondary never hears the service port, so the bridge never sees
/// its SYN-ACK and no handshake through the bridge completes.
void deafen_secondary(test::ReplicatedLan& r) {
  r.secondary().tcp().add_inbound_tap(
      [](tcp::TcpSegment& seg, ip::Ipv4&, ip::Ipv4&, const ip::RxMeta&) {
        return seg.dst_port == kEchoPort ? tcp::TapVerdict::kDrop
                                         : tcp::TapVerdict::kContinue;
      });
}

/// Sends one hand-built client segment from `from` (no client TCP state,
/// so nothing answers the server's replies).
void send_from(apps::Host& from, ip::Ipv4 to, tcp::TcpSegment seg) {
  seg.src_port = kClientPort;
  seg.dst_port = kEchoPort;
  seg.window = 65535;
  from.ip().send(ip::Proto::kTcp, from.address(), to,
                 seg.serialize(from.address(), to));
}

/// Simulated time at which the primary bridge logged `kind` for `key`
/// (the first such event); -1 when it never did.
SimTime event_time(apps::Host& primary, obs::EventKind kind,
                   const tcp::ConnKey& key) {
  for (const obs::Event& e : primary.obs().timeline.filter(kind)) {
    if (e.conn == key.str()) return static_cast<SimTime>(e.t);
  }
  return -1;
}

/// Sends an unanswered client SYN and returns the bridge-side key once
/// the bridge has created its connection.
tcp::ConnKey open_embryonic(test::ReplicatedLan& r) {
  deafen_secondary(r);
  tcp::TcpSegment syn;
  syn.seq = kClientIsn;
  syn.flags = tcp::Flags::kSyn;
  send_from(r.client(), r.primary().address(), syn);
  const tcp::ConnKey key{r.primary().address(), kEchoPort, r.client().address(),
                         kClientPort};
  EXPECT_TRUE(run_until(r.sim(), [&] {
    return r.group->primary_bridge().find(key) != nullptr;
  }, milliseconds(50)));
  return key;
}

TEST(BridgeSweep, UnansweredSynIsReapedExactlyAtTheWatchDeadline) {
  auto r = make_replicated_lan();
  PrimaryBridge& bridge = r->group->primary_bridge();
  const tcp::ConnKey key = open_embryonic(*r);
  const SimTime created =
      event_time(r->primary(), obs::EventKind::kConnCreated, key);
  ASSERT_GE(created, 0);
  const SimTime deadline = created + tombstone_ttl(r->primary());

  r->sim().run_until(deadline - 1);
  ASSERT_NE(bridge.find(key), nullptr);
  EXPECT_FALSE(bridge.find(key)->handshake_done());
  EXPECT_EQ(counter(r->primary(), "bridge.embryonic_reaped"), 0u);

  r->sim().run_until(deadline);
  EXPECT_EQ(bridge.connection_count(), 0u);
  EXPECT_EQ(counter(r->primary(), "bridge.embryonic_reaped"), 1u);
}

TEST(BridgeSweep, CompletedHandshakeIsNeverReaped) {
  auto r = make_replicated_lan();
  PrimaryBridge& bridge = r->group->primary_bridge();
  test::EchoDriver d(r->client(), r->primary().address(), kEchoPort, 1000, 500);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(10)));
  const tcp::ConnKey key{r->primary().address(), kEchoPort,
                         r->client().address(), d.connection().key().local_port};
  ASSERT_NE(bridge.find(key), nullptr);

  // Well past the watch deadline, the idle but open connection remains.
  r->sim().run_for(static_cast<SimDuration>(3 * tombstone_ttl(r->primary())));
  ASSERT_NE(bridge.find(key), nullptr);
  EXPECT_TRUE(bridge.find(key)->handshake_done());
  EXPECT_EQ(counter(r->primary(), "bridge.embryonic_reaped"), 0u);
  EXPECT_GE(counter(r->primary(), "bridge.sweep_scanned"), 1u);
}

TEST(BridgeSweep, MigratedEmbryonicIsReapedAtTheOriginalDeadline) {
  auto r = make_replicated_lan();
  PrimaryBridge& bridge = r->group->primary_bridge();
  apps::Host& moved = r->add_host("moved", "10.0.0.77", 77);
  const tcp::ConnKey old_key = open_embryonic(*r);
  const SimTime created =
      event_time(r->primary(), obs::EventKind::kConnCreated, old_key);
  ASSERT_GE(created, 0);
  const SimTime deadline = created + tombstone_ttl(r->primary());

  // Halfway through the watch, the client reappears at a new address
  // (Mosh-style: the old address rides in the migrate_from option). The
  // segment carries no ACK, so it cannot complete the handshake.
  r->sim().run_until(created + tombstone_ttl(r->primary()) / 2);
  tcp::TcpSegment moved_seg;
  moved_seg.seq = kClientIsn + 1;
  moved_seg.migrate_from = r->client().address();
  send_from(moved, r->primary().address(), moved_seg);
  const tcp::ConnKey new_key{r->primary().address(), kEchoPort, moved.address(),
                             kClientPort};
  ASSERT_TRUE(run_until(r->sim(), [&] { return bridge.find(new_key) != nullptr; },
                        milliseconds(50)));
  EXPECT_EQ(bridge.find(old_key), nullptr);
  EXPECT_EQ(counter(r->primary(), "bridge.client_migrated"), 1u);

  // The deadline moved with the connection: not later, not earlier.
  r->sim().run_until(deadline - 1);
  ASSERT_NE(bridge.find(new_key), nullptr);
  EXPECT_FALSE(bridge.find(new_key)->handshake_done());
  r->sim().run_until(deadline);
  EXPECT_EQ(bridge.find(new_key), nullptr);
  EXPECT_EQ(bridge.connection_count(), 0u);
  EXPECT_EQ(counter(r->primary(), "bridge.embryonic_reaped"), 1u);
}

TEST(BridgeSweep, RetombstonedKeyExpiresAtTheLaterDeadline) {
  auto r = make_replicated_lan();
  PrimaryBridge& bridge = r->group->primary_bridge();
  const SimTime ttl = tombstone_ttl(r->primary());
  const tcp::ConnKey key{r->primary().address(), kEchoPort, r->client().address(),
                         kClientPort};
  const auto expiries = [&] {
    return std::count_if(
        r->primary().obs().timeline.events().begin(),
        r->primary().obs().timeline.events().end(), [&](const obs::Event& e) {
          return e.kind == obs::EventKind::kTombstoneExpired && e.conn == key.str();
        });
  };

  const SimTime first = r->sim().now();
  bridge.fully_closed(key);
  r->sim().run_until(first + ttl / 2);
  const SimTime second = r->sim().now();
  bridge.fully_closed(key);  // e.g. a divergence reset racing the close

  // The first deadline is stale: the tombstone must still answer.
  r->sim().run_until(first + ttl);
  EXPECT_EQ(bridge.tombstone_count(), 1u);
  EXPECT_EQ(expiries(), 0);

  r->sim().run_until(second + ttl - 1);
  EXPECT_EQ(bridge.tombstone_count(), 1u);
  r->sim().run_until(second + ttl);
  EXPECT_EQ(bridge.tombstone_count(), 0u);
  EXPECT_EQ(expiries(), 1);
  EXPECT_EQ(event_time(r->primary(), obs::EventKind::kTombstoneExpired, key),
            second + ttl);
  // Both queue entries were popped once: the live one and the stale one.
  EXPECT_EQ(counter(r->primary(), "bridge.sweep_scanned"), 2u);
}

// A bridge on an otherwise idle LAN (no detectors, no traffic), so every
// simulator event is the bridge's own: one deferred-removal event per
// instant that closed connections, plus one per sweep.
TEST(BridgeSweep, SweepFiresOncePerDistinctLiveDeadline) {
  auto lan = apps::make_lan();
  FailoverConfig cfg;
  cfg.ports = {kEchoPort};
  cfg.primary_addr = lan->primary->address();
  cfg.secondary_addr = lan->secondary->address();
  PrimaryBridge bridge(*lan->primary, cfg);
  const SimTime ttl = tombstone_ttl(*lan->primary);
  lan->sim.run_for(seconds(1));
  const std::uint64_t fired_before = lan->sim.stats().fired;

  // Three close instants of 8 connections each (deadlines D0 < D1 < D2);
  // ports descend so that insertion order, hash order and key order all
  // differ. A fourth instant closes the D1 batch again, moving it to D3.
  constexpr int kBatches = 3, kPerBatch = 8;
  std::vector<std::vector<tcp::ConnKey>> batches(kBatches);
  for (int i = 0; i < kBatches; ++i) {
    for (int j = 0; j < kPerBatch; ++j) {
      batches[i].push_back({lan->primary->address(), kEchoPort,
                            lan->client->address(),
                            static_cast<std::uint16_t>(50000 - i * kPerBatch - j)});
      bridge.fully_closed(batches[i].back());
    }
    lan->sim.run_for(milliseconds(1));
  }
  for (const tcp::ConnKey& k : batches[1]) bridge.fully_closed(k);
  EXPECT_EQ(bridge.tombstone_count(), static_cast<std::size_t>(kBatches * kPerBatch));

  lan->sim.run_for(static_cast<SimDuration>(ttl) + seconds(1));
  EXPECT_EQ(bridge.tombstone_count(), 0u);
  // Four deadlines were set but D1 went stale before it came due: the
  // timer fires at D0, D2 and D3 only.
  const std::uint64_t removal_events = kBatches + 1;
  EXPECT_EQ(lan->sim.stats().fired - fired_before - removal_events, 3u);
  // Every queue entry is popped exactly once, the 8 stale ones included.
  EXPECT_EQ(counter(*lan->primary, "bridge.sweep_scanned"),
            static_cast<std::uint64_t>((kBatches + 1) * kPerBatch));

  // Expiries that share a sweep are logged in (deadline, key) order.
  std::vector<std::string> expected_order;
  for (int i : {0, 2, 1}) {
    std::sort(batches[i].begin(), batches[i].end());
    for (const tcp::ConnKey& k : batches[i]) expected_order.push_back(k.str());
  }
  std::vector<std::string> expired_order;
  for (const obs::Event& e :
       lan->primary->obs().timeline.filter(obs::EventKind::kTombstoneExpired)) {
    expired_order.push_back(e.conn);
  }
  EXPECT_EQ(expired_order, expected_order);
}

}  // namespace
}  // namespace tfo::core
