// Reintegration of replacement replicas — the paper's other named-but-
// out-of-scope item ("Reintegration of failed servers is beyond the scope
// of this paper"). Scope here: a fresh recruit becomes the new secondary;
// connections established after reintegration are fully replicated again;
// connections predating it keep running unreplicated on the survivor.
#include <gtest/gtest.h>

#include "failover_fixture.hpp"

namespace tfo::core {
namespace {

using test::kEchoPort;
using test::make_replicated_lan;
using test::run_until;

struct ReintegrationFixture : ::testing::Test {
  std::unique_ptr<test::ReplicatedLan> r;
  apps::Host* recruit = nullptr;
  std::unique_ptr<apps::EchoServer> echo_recruit;

  void build() {
    r = make_replicated_lan();
    recruit = &r->add_host("recruit", "10.0.0.30", 303);
    echo_recruit = std::make_unique<apps::EchoServer>(recruit->tcp(), kEchoPort);
  }
};

TEST_F(ReintegrationFixture, AfterSecondaryFailureNewConnectionsReplicate) {
  build();
  // Lose the secondary; the primary recovers per §6.
  r->group->crash_secondary();
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return r->group->primary_bridge().secondary_failed();
  }, seconds(10)));

  // A connection opened while unreplicated...
  test::EchoDriver old_conn(r->client(), r->primary().address(), kEchoPort, 5000, 500);
  ASSERT_TRUE(run_until(r->sim(), [&] { return old_conn.done(); }, seconds(60)));

  r->group->reintegrate_secondary(*recruit);
  r->sim().run_for(milliseconds(100));

  // ...keeps working after reintegration (still unreplicated),
  old_conn.pump();
  test::EchoDriver new_conn(r->client(), r->primary().address(), kEchoPort, 20000, 2000);
  ASSERT_TRUE(run_until(r->sim(), [&] { return new_conn.done(); }, seconds(120)));
  EXPECT_TRUE(new_conn.verify());
  // ...while the new connection is served by BOTH replicas.
  EXPECT_EQ(echo_recruit->bytes_echoed(), 20000u);
  EXPECT_GE(r->group->primary_bridge().merged_segments_sent(), 1u);
}

TEST_F(ReintegrationFixture, NewConnectionsSurviveNextPrimaryCrash) {
  build();
  r->group->crash_secondary();
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return r->group->primary_bridge().secondary_failed();
  }, seconds(10)));
  r->group->reintegrate_secondary(*recruit);
  r->sim().run_for(milliseconds(100));

  test::EchoDriver d(r->client(), r->primary().address(), kEchoPort, 80 * 1024, 4096);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.received().size() > 30 * 1024; },
                        seconds(120)));
  // Second failure in the system's lifetime: the original primary dies;
  // the recruit takes over.
  r->group->crash_primary();
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(300)));
  EXPECT_TRUE(d.verify());
  EXPECT_TRUE(r->group->secondary_bridge().taken_over());
  EXPECT_TRUE(recruit->ip().is_local(r->primary().address()));
}

TEST_F(ReintegrationFixture, AfterPrimaryFailureSurvivorPairsWithRecruit) {
  build();
  // The primary dies; the old secondary takes over the service address.
  test::EchoDriver old_conn(r->client(), r->primary().address(), kEchoPort, 20000, 2000);
  ASSERT_TRUE(run_until(r->sim(), [&] { return old_conn.received().size() > 5000; }));
  r->group->crash_primary();
  ASSERT_TRUE(run_until(r->sim(), [&] { return old_conn.done(); }, seconds(120)));
  EXPECT_TRUE(old_conn.verify());
  // A connection the survivor serves alone is mid-transfer at the repair.
  test::EchoDriver pre_repair(r->client(), r->primary().address(), kEchoPort, 20000,
                              2000);
  ASSERT_TRUE(run_until(r->sim(), [&] { return pre_repair.received().size() >= 6000; }));

  r->group->reintegrate_secondary(*recruit);
  EXPECT_EQ(&r->group->current_server(), r->lan->secondary.get());
  r->sim().run_for(milliseconds(100));

  // The surviving old connection still flows, unreplicated.
  old_conn.pump();
  // New connections are replicated on (survivor, recruit).
  test::EchoDriver new_conn(r->client(), r->primary().address(), kEchoPort, 30000, 2000);
  ASSERT_TRUE(run_until(r->sim(), [&] { return new_conn.done(); }, seconds(120)));
  EXPECT_TRUE(new_conn.verify());
  EXPECT_EQ(echo_recruit->bytes_echoed(), 30000u);
  // The pre-repair connection finishes too, unbridged and byte-exact.
  ASSERT_TRUE(run_until(r->sim(), [&] { return pre_repair.done(); }, seconds(120)));
  EXPECT_TRUE(pre_repair.verify());
  EXPECT_FALSE(pre_repair.close_reason().has_value());
}

TEST_F(ReintegrationFixture, FullRepairCycleSurvivesTwoFailures) {
  build();
  // Failure #1: primary dies; survivor takes over; recruit reintegrates.
  r->group->crash_primary();
  ASSERT_TRUE(run_until(r->sim(), [&] {
    return r->group->secondary_bridge().taken_over();
  }, seconds(10)));
  r->sim().run_for(milliseconds(100));
  r->group->reintegrate_secondary(*recruit);
  r->sim().run_for(milliseconds(100));

  test::EchoDriver d(r->client(), r->primary().address(), kEchoPort, 60 * 1024, 4096);
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.received().size() > 20 * 1024; },
                        seconds(120)));
  // Failure #2: the current server (the first failover's survivor) dies;
  // the recruit performs the *second* takeover of the same service
  // address and carries the connection home.
  r->group->current_server().fail();
  ASSERT_TRUE(run_until(r->sim(), [&] { return d.done(); }, seconds(300)));
  EXPECT_TRUE(d.verify());
  EXPECT_TRUE(recruit->ip().is_local(r->primary().address()));
}

}  // namespace
}  // namespace tfo::core
