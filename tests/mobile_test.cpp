// Mobile/intermittent-connectivity mission family: seeded disconnection
// epochs with correlated burst loss, base-station handoffs that re-home a
// node's stable store mid-mission, and the monitor's graceful-degradation
// hooks (delivery-bound deferral during declared epochs, unacked-log
// bound, reconnect drain).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/system.hpp"
#include "analysis/checkers.hpp"
#include "inject/fault_schedule.hpp"
#include "inject/faulty_network.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "storage/stable_store.hpp"

namespace synergy {
namespace {

TEST(FaultEventKindTest, ToStringFromStringRoundTripsExhaustively) {
  for (FaultEvent::Kind k : kAllFaultEventKinds) {
    const auto back = fault_event_kind_from_string(to_string(k));
    ASSERT_TRUE(back.has_value()) << to_string(k);
    EXPECT_EQ(*back, k);
  }
  EXPECT_FALSE(fault_event_kind_from_string("bogus").has_value());
  EXPECT_FALSE(fault_event_kind_from_string("").has_value());
}

// ---- Schedule generation ---------------------------------------------------

InjectorRates mobile_only_rates() {
  InjectorRates r;
  r.timed.hw_fault_mean_gap = Duration::zero();  // timed defaults off
  r.mobile.disconnect_mean_gap = Duration::seconds(60);
  r.mobile.disconnect_mean_len = Duration::seconds(15);
  r.mobile.handoff_mean_gap = Duration::seconds(120);
  return r;
}

TEST(MobileScheduleTest, DisconnectionEpochsArePairedAndOrdered) {
  const FaultSchedule schedule = FaultSchedule::generate(
      99, mobile_only_rates(), TimePoint::origin(), Duration::seconds(600),
      1e-5, 3);
  std::size_t downs = 0, ups = 0, handoffs = 0;
  TimePoint prev = TimePoint::origin();
  for (const FaultEvent& e : schedule.events()) {
    EXPECT_GE(e.at, prev);  // stable time order
    prev = e.at;
    switch (e.kind) {
      case FaultEvent::Kind::kLinkDown:
        ++downs;
        // Every epoch hits at least one direction; blackout epochs carry
        // the full flag, degraded ones a usable burst-loss fraction.
        EXPECT_NE(e.noise & (kLinkRx | kLinkTx), 0u);
        if ((e.noise & kLinkFull) == 0) {
          EXPECT_GT(e.drift, 0.0);
          EXPECT_LE(e.drift, 1.0);
        }
        EXPECT_LT(e.target, 3u);
        break;
      case FaultEvent::Kind::kLinkUp: ++ups; break;
      case FaultEvent::Kind::kHandoff: ++handoffs; break;
      default: ADD_FAILURE() << "unexpected kind " << to_string(e.kind);
    }
  }
  EXPECT_GT(downs, 3u);
  EXPECT_EQ(downs, ups);  // every epoch ends
  EXPECT_GT(handoffs, 0u);
}

TEST(MobileScheduleTest, GenerationIsDeterministicAndGatedOnRates) {
  const FaultSchedule a = FaultSchedule::generate(
      5, mobile_only_rates(), TimePoint::origin(), Duration::seconds(300),
      1e-5, 3);
  const FaultSchedule b = FaultSchedule::generate(
      5, mobile_only_rates(), TimePoint::origin(), Duration::seconds(300),
      1e-5, 3);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].at, b.events()[i].at);
    EXPECT_EQ(a.events()[i].target, b.events()[i].target);
    EXPECT_EQ(a.events()[i].noise, b.events()[i].noise);
  }
  EXPECT_EQ(a.to_json(), b.to_json());
  // Mobile rates off: no link events, and the JSON omits the mobile block
  // (pre-mobile schedule descriptions stay byte-compatible).
  InjectorRates off_rates;
  off_rates.timed.hw_fault_mean_gap = Duration::zero();
  const FaultSchedule off = FaultSchedule::generate(
      5, off_rates, TimePoint::origin(), Duration::seconds(300), 1e-5, 3);
  EXPECT_TRUE(off.events().empty());
  EXPECT_EQ(off.to_json().find("mobile"), std::string::npos);
  EXPECT_NE(a.to_json().find("mobile"), std::string::npos);
}

// ---- Link-state faults in the network --------------------------------------

NetworkParams fast_net() {
  NetworkParams p;
  p.tmin = Duration::millis(1);
  p.tmax = Duration::millis(5);
  return p;
}

Message msg(std::uint32_t from, std::uint32_t to) {
  Message m;
  m.sender = ProcessId{from};
  m.receiver = ProcessId{to};
  return m;
}

TEST(LinkFaultTest, BlackoutDropsEverythingUntilRestored) {
  Simulator sim;
  FaultyNetwork net(sim, fast_net(), NetFaultParams{}, Rng(1));
  std::size_t delivered = 0;
  net.attach(ProcessId{1}, [&](const Message&) { ++delivered; });

  net.set_link_down(ProcessId{1}, /*rx=*/true, /*tx=*/true, /*full=*/true,
                    0.0);
  EXPECT_TRUE(net.link_impaired(ProcessId{1}));
  for (int i = 0; i < 20; ++i) net.send(msg(0, 1));
  sim.run();
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(net.disconnect_drops(), 20u);
  EXPECT_EQ(net.link_epochs(), 1u);

  net.set_link_up(ProcessId{1});
  EXPECT_FALSE(net.link_impaired(ProcessId{1}));
  EXPECT_EQ(net.link_last_restored(ProcessId{1}), sim.now());
  for (int i = 0; i < 20; ++i) net.send(msg(0, 1));
  sim.run();
  EXPECT_EQ(delivered, 20u);
}

TEST(LinkFaultTest, DirectionsAreAsymmetric) {
  Simulator sim;
  FaultyNetwork net(sim, fast_net(), NetFaultParams{}, Rng(2));
  std::size_t to_one = 0, to_zero = 0;
  net.attach(ProcessId{1}, [&](const Message&) { ++to_one; });
  net.attach(ProcessId{0}, [&](const Message&) { ++to_zero; });

  // Node 1 can still hear (rx up) but cannot speak (tx blackout).
  net.set_link_down(ProcessId{1}, /*rx=*/false, /*tx=*/true, /*full=*/true,
                    0.0);
  for (int i = 0; i < 10; ++i) net.send(msg(0, 1));
  for (int i = 0; i < 10; ++i) net.send(msg(1, 0));
  sim.run();
  EXPECT_EQ(to_one, 10u);
  EXPECT_EQ(to_zero, 0u);
  EXPECT_EQ(net.disconnect_drops(), 10u);
}

TEST(LinkFaultTest, DegradedEpochLosesInCorrelatedBursts) {
  Simulator sim;
  FaultyNetwork net(sim, fast_net(), NetFaultParams{}, Rng(3));
  std::size_t delivered = 0;
  net.attach(ProcessId{1}, [&](const Message&) { ++delivered; });

  net.set_link_down(ProcessId{1}, /*rx=*/true, /*tx=*/false, /*full=*/false,
                    /*burst_loss=*/0.5);
  const int kSent = 400;
  for (int i = 0; i < kSent; ++i) net.send(msg(0, 1));
  sim.run();
  // Neither a blackout nor lossless: the Gilbert-Elliott chain drops a
  // substantial correlated fraction and passes the rest.
  EXPECT_GT(net.burst_drops(), static_cast<std::size_t>(kSent) / 5);
  EXPECT_GT(delivered, static_cast<std::size_t>(kSent) / 5);
  EXPECT_EQ(delivered + net.burst_drops(), static_cast<std::size_t>(kSent));
  EXPECT_EQ(net.disconnect_drops(), 0u);
}

// ---- Stable-store handoff --------------------------------------------------

CheckpointRecord handoff_record(std::uint64_t ndc) {
  CheckpointRecord rec;
  rec.kind = CkptKind::kStable;
  rec.owner = kP2;
  rec.ndc = ndc;
  rec.app_state = Bytes{1, 2, 3};
  return rec;
}

StableStoreParams handoff_store_params() {
  StableStoreParams p;
  p.write_base_latency = Duration::millis(10);
  p.write_per_kib = Duration::zero();
  return p;
}

TEST(StableStoreHandoffTest, NearlyCompleteWriteDrains) {
  Simulator sim;
  StableStore store(sim, handoff_store_params());
  store.begin_write(handoff_record(1));
  // Commit expected at +10ms, well inside a 20ms drain window.
  const auto out = store.handoff(/*keep_depth=*/4, Duration::millis(20));
  EXPECT_TRUE(out.write_drained);
  EXPECT_FALSE(out.write_abandoned);
  EXPECT_TRUE(store.write_in_progress());
  sim.run();
  ASSERT_TRUE(store.latest_committed().has_value());
  EXPECT_EQ(store.latest_committed()->ndc, 1u);
  EXPECT_EQ(store.handoffs(), 1u);
}

TEST(StableStoreHandoffTest, SlowWriteIsAbandonedAndClaimable) {
  Simulator sim;
  StableStore store(sim, handoff_store_params());
  store.begin_write(handoff_record(7));
  // The handoff gap closes in 2ms; the write needs 10ms: abandon it.
  const auto out = store.handoff(/*keep_depth=*/4, Duration::millis(2));
  EXPECT_FALSE(out.write_drained);
  EXPECT_TRUE(out.write_abandoned);
  EXPECT_FALSE(store.write_in_progress());
  EXPECT_EQ(store.failed_writes(), 1u);
  sim.run();
  EXPECT_FALSE(store.latest_committed().has_value());
  // The abandoned record rides the same watchdog path as a retry-exhausted
  // write: the monitor claims it and forces it through at the new home.
  const auto abandoned = store.take_abandoned();
  ASSERT_TRUE(abandoned.has_value());
  EXPECT_EQ(abandoned->ndc, 7u);
}

TEST(StableStoreHandoffTest, MigrationKeepsNewestHistory) {
  Simulator sim;
  StableStore store(sim, handoff_store_params());
  for (std::uint64_t ndc = 1; ndc <= 5; ++ndc) {
    store.commit_now(handoff_record(ndc));
  }
  const auto out = store.handoff(/*keep_depth=*/2, Duration::millis(20));
  EXPECT_EQ(out.dropped, 3u);
  EXPECT_EQ(out.migrated, 2u);
  EXPECT_FALSE(store.committed_for(3).has_value());
  ASSERT_TRUE(store.committed_for(4).has_value());
  ASSERT_TRUE(store.committed_for(5).has_value());
  EXPECT_EQ(store.latest_committed()->ndc, 5u);
}

// ---- Handoff in the full system --------------------------------------------

TEST(SystemHandoffTest, HandoffAbandonsSlowWriteAndRecoveryLineSurvives) {
  // Writes take ~seconds (per-KiB latency dominates); the handoff lands
  // right after a TB boundary, mid-write, with a drain window of only
  // 2 x base latency — the in-progress checkpoint must be abandoned, then
  // forced through by the monitor's write-timeout watchdog at the new
  // home, and the mission-end recovery line must still validate.
  SystemConfig c;
  c.scheme = Scheme::kCoordinated;
  c.seed = 11;
  c.tb.interval = Duration::seconds(10);
  c.sstore.write_base_latency = Duration::millis(5);
  c.sstore.write_per_kib = Duration::seconds(1);
  c.enable_monitor = true;

  System system(c);
  system.schedule_handoff(TimePoint::origin() + Duration::seconds(10) +
                              Duration::millis(50),
                          ProcessId{2});
  system.start(TimePoint::origin() + Duration::seconds(60));
  system.run();

  EXPECT_EQ(system.handoffs(), 1u);
  EXPECT_EQ(system.handoff_aborted_writes(), 1u);
  ASSERT_NE(system.monitor(), nullptr);
  // The abandoned record was claimed and forced through.
  EXPECT_GE(system.monitor()->stats().write_timeouts, 1u);
  EXPECT_GE(system.monitor()->stats().forced_write_throughs, 1u);

  const GlobalState line = system.stable_line_state();
  EXPECT_TRUE(check_consistency(line).empty());
  EXPECT_TRUE(check_recoverability(line).empty());
}

// ---- Campaign integration --------------------------------------------------

CampaignConfig mobile_campaign() {
  CampaignConfig config;
  config.seed = 1;
  config.reps = 6;
  config.mission = Duration::seconds(200);
  config.rates.mobile.disconnect_mean_gap = Duration::seconds(80);
  config.rates.mobile.disconnect_mean_len = Duration::seconds(12);
  config.rates.mobile.handoff_mean_gap = Duration::seconds(150);
  return config;
}

TEST(MobileCampaignTest, CommittedMissionSurvivesEpochsAndHandoff) {
  // The committed mobile replay seed: >= 3 disconnection epochs and a
  // base-station handoff in one mission, clean oracle verdict. Replay
  // (one command line):
  //   synergy chaos --replay 12966619160104079557 --duration 300
  //     --disconnect-gap 90 --disconnect-len 12 --handoff-gap 150
  CampaignConfig config;
  config.mission = Duration::seconds(300);
  config.rates.mobile.disconnect_mean_gap = Duration::seconds(90);
  config.rates.mobile.disconnect_mean_len = Duration::seconds(12);
  config.rates.mobile.handoff_mean_gap = Duration::seconds(150);
  const MissionReport r = run_mission(config, 12966619160104079557u);
  EXPECT_TRUE(r.ok) << (r.failures.empty() ? "" : r.failures.front());
  EXPECT_GE(r.link_epochs, 3u);
  EXPECT_GE(r.handoffs, 1u);
  EXPECT_GT(r.disconnect_drops + r.burst_drops, 0u);
}

TEST(MobileCampaignTest, MonitorDefersDeliveryBoundDuringEpochs) {
  const CampaignResult result = run_campaign(mobile_campaign(), nullptr);
  std::uint64_t deferred = 0, epochs = 0;
  for (const MissionReport& r : result.missions) {
    EXPECT_TRUE(r.ok) << "seed " << r.seed;
    deferred += r.monitor.disconnect_deferrals;
    epochs += r.link_epochs;
  }
  EXPECT_GT(epochs, 0u);
  // Parked traffic during declared epochs defers instead of tripping the
  // delivery-bound violation.
  EXPECT_GT(deferred, 0u);
}

TEST(MobileCampaignTest, DeferralsAreNeitherViolationsNorDegradations) {
  MonitorStats stats;
  const auto violations = stats.violations();
  const auto degradations = stats.degradations();
  stats.disconnect_deferrals = 42;
  EXPECT_EQ(stats.violations(), violations);
  EXPECT_EQ(stats.degradations(), degradations);
  // The unacked bound, by contrast, is a real monitored violation.
  stats.unacked_overflows = 1;
  EXPECT_EQ(stats.violations(), violations + 1);
}

TEST(MobileCampaignTest, UnackedLogIsBoundedUnderMultiEpochPartition) {
  // Heavy traffic into long blackout epochs: senders pointing at the
  // downed node grow their unacked logs past the monitored bound, which
  // must be counted and drained rather than growing without limit.
  CampaignConfig config;
  config.seed = 3;
  config.reps = 4;
  config.mission = Duration::seconds(240);
  config.base.workload.p1_internal_rate = 12.0;
  config.base.workload.p2_internal_rate = 12.0;
  config.rates.mobile.disconnect_mean_gap = Duration::seconds(70);
  config.rates.mobile.disconnect_mean_len = Duration::seconds(45);
  config.rates.mobile.disconnect_full_fraction = 1.0;
  const CampaignResult result = run_campaign(config, nullptr);

  std::uint64_t overflows = 0, high_water = 0;
  for (const MissionReport& r : result.missions) {
    overflows += r.monitor.unacked_overflows;
    high_water = std::max(high_water, r.unacked_high_water);
  }
  EXPECT_GT(high_water, 256u);  // the bound was genuinely exercised...
  EXPECT_GT(overflows, 0u);     // ...and the monitor saw the excursion
}

TEST(MobileCampaignTest, JobsFourMatchesJobsOneFieldForField) {
  CampaignConfig seq_config = mobile_campaign();
  seq_config.verbose = true;
  CampaignConfig par_config = seq_config;
  seq_config.jobs = 1;
  par_config.jobs = 4;

  std::ostringstream seq_out, par_out;
  const CampaignResult seq = run_campaign(seq_config, &seq_out);
  const CampaignResult par = run_campaign(par_config, &par_out);
  ASSERT_EQ(seq.missions.size(), par.missions.size());
  for (std::size_t i = 0; i < seq.missions.size(); ++i) {
    EXPECT_TRUE(seq.missions[i] == par.missions[i]) << "mission " << i;
  }
  std::string seq_text = seq_out.str(), par_text = par_out.str();
  seq_text.resize(seq_text.rfind("timing:"));
  par_text.resize(par_text.rfind("timing:"));
  EXPECT_EQ(seq_text, par_text);
}

TEST(MobileCampaignTest, ReportEqualityCoversMobileCounters) {
  MissionReport a, b;
  EXPECT_TRUE(a == b);
  b.link_epochs = 1;
  EXPECT_FALSE(a == b);
  b = a;
  b.handoff_aborted_writes = 1;
  EXPECT_FALSE(a == b);
  b = a;
  b.unacked_high_water = 9;
  EXPECT_FALSE(a == b);
  b = a;
  b.monitor.unacked_overflows = 1;
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace synergy
