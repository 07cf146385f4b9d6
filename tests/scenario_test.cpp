// Scripted scenarios reproducing the paper's illustrative figures as
// machine-checked event sequences (Figures 1, 3; Figure 2 and 4 hazards
// are exercised in tb/hw tests and the benches).
#include <gtest/gtest.h>

#include "core/system.hpp"
#include "trace/timeline.hpp"

namespace synergy {
namespace {

SystemConfig scenario_config(Scheme scheme) {
  SystemConfig c;
  c.scheme = scheme;
  c.seed = 100;
  c.workload = WorkloadParams{0, 0, 0, 0, 0};
  c.tb.interval = Duration::seconds(1'000);
  return c;
}

/// The Figure 1 / Figure 3 message script:
///   m1: P1act -> P2 (internal)      ... B_k at P2 (Type-1)
///   m2: P2 -> component 1 (internal)
///   m3: P1act -> P2 (internal)
///   M1: P2 external, AT passes      ... validations broadcast
///   m4: P2 -> component 1 (internal)
///   m5: P1act -> P2 (internal)      ... B_{k+2} at P2
///   M2: P1act external, AT passes
struct FigureScript {
  System& system;

  void c1_send(bool external, std::uint64_t input) {
    system.p1act().on_app_send(external, input);
    system.p1sdw().on_app_send(external, input);
  }
  void settle() {
    system.run_until(system.sim().now() + Duration::seconds(1));
  }
  void run() {
    c1_send(false, 1);  // m1
    settle();
    system.p2().on_app_send(false, 2);  // m2
    settle();
    c1_send(false, 3);  // m3
    settle();
    system.p2().on_app_send(true, 4);  // M1 (AT)
    settle();
    system.p2().on_app_send(false, 5);  // m4
    settle();
    c1_send(false, 6);  // m5
    settle();
    c1_send(true, 7);  // M2 (AT at P1act)
    settle();
  }
};

TEST(ScenarioFig1Test, OriginalMdcdCheckpointPlacement) {
  System system(scenario_config(Scheme::kNaive));  // original MDCD
  system.start(TimePoint::origin() + Duration::seconds(10'000));
  FigureScript{system}.run();

  const auto ckpts = system.trace().of_kind(TraceKind::kCkptVolatile);
  // P2: Type-1 at m1, Type-2 at M1's AT pass, Type-1 at m5, Type-2 at M2's
  // notification.
  std::vector<std::string> p2_kinds;
  for (const auto& e : ckpts) {
    if (e.process == kP2) p2_kinds.push_back(e.detail);
  }
  EXPECT_EQ(p2_kinds,
            (std::vector<std::string>{"type1", "type2", "type1", "type2"}));

  // P1act exempt from checkpointing under the original protocol.
  EXPECT_EQ(system.trace().count(TraceKind::kCkptVolatile, kP1Act), 0u);

  // P1sdw: contaminated via m4 (dirty multicast from... m4 was sent while
  // P2 was clean, post-AT) — in this script P1sdw becomes dirty via m2
  // (P2 dirty after m1), then validates at M1 (Type-2).
  EXPECT_GE(system.trace().count(TraceKind::kCkptVolatile, kP1Sdw), 2u);
}

TEST(ScenarioFig3Test, ModifiedMdcdEliminatesType2AndAddsPseudo) {
  System system(scenario_config(Scheme::kCoordinated));
  system.start(TimePoint::origin() + Duration::seconds(10'000));
  FigureScript{system}.run();

  const auto ckpts = system.trace().of_kind(TraceKind::kCkptVolatile);
  std::size_t pseudo = 0, type1 = 0, type2 = 0;
  for (const auto& e : ckpts) {
    if (e.detail == "pseudo") ++pseudo;
    if (e.detail == "type1") ++type1;
    if (e.detail == "type2") ++type2;
  }
  // Pseudo checkpoints: C_i before m1 (first internal send after start)
  // and C_{i+1} before m5 (first after M1's validation).
  EXPECT_EQ(pseudo, 2u);
  EXPECT_EQ(type2, 0u);  // eliminated by the modified protocol
  EXPECT_GE(type1, 2u);  // B_k, B_{k+2} at P2 (plus P1sdw's)

  // Pseudo dirty bit transitions: set at m1 and m5, cleared at M1 and M2.
  EXPECT_EQ(system.trace().count(TraceKind::kPseudoDirtySet, kP1Act), 2u);
  EXPECT_EQ(system.trace().count(TraceKind::kPseudoDirtyClear, kP1Act), 2u);
}

TEST(ScenarioFig3Test, TimelineRendersTheFigure) {
  System system(scenario_config(Scheme::kCoordinated));
  system.start(TimePoint::origin() + Duration::seconds(10'000));
  FigureScript{system}.run();
  const std::string timeline =
      render_timeline(system.trace(), {kP1Act, kP1Sdw, kP2});
  // Lane markers present: pseudo ckpt (P), type-1 (1), AT pass (A).
  EXPECT_NE(timeline.find('P'), std::string::npos);
  EXPECT_NE(timeline.find('1'), std::string::npos);
  EXPECT_NE(timeline.find('A'), std::string::npos);
  EXPECT_NE(timeline.find("P1act"), std::string::npos);
}

TEST(ScenarioDirtyBitPiggybackTest, CleanP2MessagesDoNotContaminate) {
  System system(scenario_config(Scheme::kCoordinated));
  system.start(TimePoint::origin() + Duration::seconds(10'000));
  // P2 clean: its internal multicast must not dirty component 1.
  system.p2().on_app_send(false, 1);
  system.run_until(system.sim().now() + Duration::seconds(1));
  EXPECT_FALSE(system.p1sdw().dirty());
  EXPECT_EQ(system.trace().count(TraceKind::kCkptVolatile, kP1Sdw), 0u);
}

TEST(ScenarioValidityViewsTest, ViewsUpgradeOnValidation) {
  System system(scenario_config(Scheme::kCoordinated));
  system.start(TimePoint::origin() + Duration::seconds(10'000));
  FigureScript script{system};
  script.c1_send(false, 1);
  script.settle();
  // P2's receipt of m1 is suspect.
  ASSERT_EQ(system.p2().recv_views().size(), 1u);
  EXPECT_TRUE(system.p2().recv_views()[0].suspect);
  // After P2's own AT pass, the view upgrades.
  system.p2().on_app_send(true, 2);
  EXPECT_FALSE(system.p2().recv_views()[0].suspect);
  script.settle();
  // And P1act's sent view upgrades on the notification.
  ASSERT_GE(system.p1act().sent_views().size(), 1u);
  EXPECT_FALSE(system.p1act().sent_views()[0].suspect);
}

}  // namespace
}  // namespace synergy
