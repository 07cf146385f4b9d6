// Anchor-ring behaviour of the generalized engine (DESIGN.md §7, finding
// 6): prefix validations promote intermediate anchors, promotion
// normalizes frozen view flags, and fail-over knowledge survives
// rollbacks.
#include <gtest/gtest.h>

#include "general/system.hpp"

namespace synergy {
namespace {

Topology quiet(Topology t) {
  std::vector<ComponentSpec> specs = t.components();
  for (auto& s : specs) {
    s.internal_rate = 0.0;
    s.external_rate = 0.0;
  }
  return Topology(std::move(specs));
}

class AnchorFixture : public ::testing::Test {
 protected:
  void build(Topology t, std::uint64_t seed = 1) {
    GeneralConfig c;
    c.seed = seed;
    c.tb.interval = Duration::seconds(1'000'000);
    system_ = std::make_unique<GeneralSystem>(quiet(std::move(t)), c);
    system_->start(TimePoint::origin() + Duration::seconds(1'000'000));
  }
  void component_send(std::uint32_t c, bool external,
                      std::uint64_t input = 1) {
    system_->engine(system_->topology().active_of(c))
        .on_app_send(external, input);
    if (system_->topology().has_shadow(c)) {
      system_->engine(system_->topology().shadow_of(c))
          .on_app_send(external, input);
    }
  }
  void settle() {
    system_->run_until(system_->sim().now() + Duration::seconds(1));
  }
  std::unique_ptr<GeneralSystem> system_;
};

TEST_F(AnchorFixture, PrefixValidationPromotesIntermediateAnchor) {
  build(Topology::dual_guarded());
  // S absorbs A's contamination, then B's.
  component_send(0, false);  // A -> S  (anchor candidate before {A:1})
  settle();
  const TimePoint after_a = system_->sim().now();
  settle();
  component_send(1, false);  // B -> S  (candidate before {A:1,B:1})
  settle();
  GeneralEngine& shared = system_->engine(ProcessId{2});
  ASSERT_TRUE(shared.dirty());

  // A validates: S's dirt w.r.t. A is covered, B's is not — the promoted
  // anchor must be the state just before absorbing B (which already
  // reflects consuming A's message).
  component_send(0, true);
  settle();
  ASSERT_TRUE(shared.dirty());  // B still uncovered
  const auto& anchor = shared.latest_volatile();
  ASSERT_TRUE(anchor.has_value());
  EXPECT_GT(anchor->state_time, after_a)
      << "anchor should have advanced past A's absorption";
  // The promoted anchor is a clean state (its dependencies are covered).
  EXPECT_FALSE(anchor->dirty_bit);
  const ProcessFacts facts = general_facts_from_record(*anchor);
  EXPECT_FALSE(facts.dirty);
  // ... and it reflects the receipt of A's message with a VALID view
  // (normalization upgraded the frozen suspect flag).
  bool found = false;
  for (std::size_t i = 0; i < facts.recv.size(); ++i) {
    const MsgView v = facts.recv[i];
    if (v.peer == ProcessId{0}) {
      found = true;
      EXPECT_FALSE(v.suspect);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(AnchorFixture, FullValidationClearsEverything) {
  build(Topology::dual_guarded());
  component_send(0, false);
  component_send(1, false);
  settle();
  component_send(0, true);
  component_send(1, true);
  settle();
  GeneralEngine& shared = system_->engine(ProcessId{2});
  EXPECT_FALSE(shared.dirty());
  EXPECT_TRUE(shared.absorbed().empty());
}

TEST_F(AnchorFixture, ActiveAnchorsBeforeEverySend) {
  build(Topology::canonical());
  GeneralEngine& active = system_->engine(ProcessId{0});
  component_send(0, false);  // sn 1
  component_send(0, false);  // sn 2
  settle();
  // A validation covering only sn 1 promotes the anchor captured before
  // send 2 — possible only because every send captured a candidate.
  Message note;
  note.kind = MsgKind::kPassedAt;
  note.sender = ProcessId{1};
  note.receiver = ProcessId{0};
  note.transport_seq = 990'001;
  {
    ByteWriter w;
    contam_serialize(ContamVector{{0, 1}}, w);
    note.aux = w.take();
  }
  active.on_message(note);
  ASSERT_TRUE(active.pseudo_dirty());  // sn 2 uncovered
  const auto& anchor = active.latest_volatile();
  ASSERT_TRUE(anchor.has_value());
  const ProcessFacts facts = general_facts_from_record(*anchor);
  // The anchor reflects send 1 (valid after normalization), not send 2.
  std::size_t sends_to_peer = 0;
  for (std::size_t i = 0; i < facts.sent.size(); ++i) {
    const MsgView v = facts.sent[i];
    if (v.kind == MsgKind::kInternal && v.peer == ProcessId{1}) {
      ++sends_to_peer;
      EXPECT_FALSE(v.suspect);
    }
  }
  EXPECT_EQ(sends_to_peer, 1u);
}

TEST_F(AnchorFixture, FailOverKnowledgeStopsTrafficToRetiredActives) {
  build(Topology::canonical());
  component_send(0, false);
  settle();
  system_->schedule_sw_error(system_->sim().now() + Duration::seconds(1), 0);
  settle();
  ASSERT_TRUE(system_->sw_recovery().has_value());
  // The high component now multicasts only to the shadow-turned-active.
  const auto sent_before =
      system_->engine(ProcessId{1}).sent_views().size();
  system_->engine(ProcessId{1}).on_app_send(false, 9);
  settle();
  const auto& views = system_->engine(ProcessId{1}).sent_views();
  ASSERT_GT(views.size(), sent_before);
  for (std::size_t i = sent_before; i < views.size(); ++i) {
    EXPECT_NE(views[i].peer, ProcessId{0}) << "sent to a retired active";
  }
  // The new active consumed it.
  EXPECT_GT(system_->engine(ProcessId{2}).recv_views().size(), 0u);
}

TEST_F(AnchorFixture, AnchorRingBoundedUnderSustainedContamination) {
  build(Topology::canonical());
  // 200 dirty messages with no validation: the candidate ring must stay
  // bounded and the promoted anchor remain the pre-contamination state.
  for (int i = 0; i < 200; ++i) component_send(0, false, i);
  settle();
  GeneralEngine& high = system_->engine(ProcessId{1});
  ASSERT_TRUE(high.dirty());
  const auto& anchor = high.latest_volatile();
  ASSERT_TRUE(anchor.has_value());
  const ProcessFacts facts = general_facts_from_record(*anchor);
  EXPECT_EQ(facts.recv.size(), 0u)
      << "promoted anchor must predate all uncovered contamination";
}

}  // namespace
}  // namespace synergy
