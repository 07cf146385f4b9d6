// Engine corner cases: blocking deferral order, epoch fencing,
// per-role state serialization, gate modes, watermark filtering,
// validation-gated acknowledgments.
#include <gtest/gtest.h>

#include "core/system.hpp"

namespace synergy {
namespace {

SystemConfig quiet(Scheme scheme, std::uint64_t seed = 1) {
  SystemConfig c;
  c.scheme = scheme;
  c.seed = seed;
  c.workload = WorkloadParams{0, 0, 0, 0, 0};
  c.tb.interval = Duration::seconds(1'000'000);
  return c;
}

class EngineEdgeFixture : public ::testing::Test {
 protected:
  void build(Scheme scheme, std::uint64_t seed = 1,
             SystemConfig (*tweak)(SystemConfig) = nullptr) {
    SystemConfig c = quiet(scheme, seed);
    if (tweak) c = tweak(c);
    system_ = std::make_unique<System>(c);
    system_->start(TimePoint::origin() + Duration::seconds(1'000'000));
  }
  void c1_send(bool external, std::uint64_t input = 1) {
    system_->p1act().on_app_send(external, input);
    system_->p1sdw().on_app_send(external, input);
  }
  void settle() {
    system_->run_until(system_->sim().now() + Duration::seconds(1));
  }
  std::unique_ptr<System> system_;
};

TEST_F(EngineEdgeFixture, BlockingDefersOperationsInArrivalOrder) {
  build(Scheme::kCoordinated);
  MdcdEngine& p2 = system_->p2();
  p2.begin_blocking();
  // Interleave sends, steps and a delivered message while blocked.
  p2.on_app_send(false, 1);
  p2.on_local_step(2);
  Message m;
  m.kind = MsgKind::kInternal;
  m.sender = kP1Act;
  m.receiver = kP2;
  m.transport_seq = 900'500;
  m.sn = 1;
  m.dirty = true;
  m.contam_sn = 1;
  p2.on_message(m);
  p2.on_app_send(false, 3);
  EXPECT_EQ(p2.deferred_ops(), 4u);
  EXPECT_EQ(system_->trace().count(TraceKind::kDeliverApp, kP2), 0u);
  EXPECT_EQ(p2.msg_sn(), 0u);  // nothing sent yet

  p2.end_blocking();
  settle();
  // All four operations ran: two sends, one step, one delivery.
  EXPECT_EQ(p2.msg_sn(), 2u);
  EXPECT_EQ(system_->trace().count(TraceKind::kDeliverApp, kP2), 1u);
}

TEST_F(EngineEdgeFixture, DeadEngineIgnoresEverything) {
  build(Scheme::kCoordinated);
  system_->p1act().kill();
  system_->p1act().on_app_send(false, 1);
  system_->p1act().on_local_step(2);
  Message m;
  m.kind = MsgKind::kInternal;
  m.sender = kP2;
  m.receiver = kP1Act;
  m.transport_seq = 900'501;
  system_->p1act().on_message(m);
  settle();
  EXPECT_EQ(system_->p1act().msg_sn(), 0u);
  EXPECT_EQ(system_->trace().count(TraceKind::kDeliverApp, kP1Act), 0u);
}

TEST_F(EngineEdgeFixture, EpochFenceDropsAllWhenFencedAll) {
  build(Scheme::kCoordinated);
  MdcdEngine& p2 = system_->p2();
  p2.set_epoch(3);
  p2.fence_all_below(3);
  Message clean;
  clean.kind = MsgKind::kInternal;
  clean.sender = kP1Sdw;
  clean.receiver = kP2;
  clean.transport_seq = 900'502;
  clean.epoch = 2;  // stale incarnation
  p2.on_message(clean);
  EXPECT_EQ(system_->trace().count(TraceKind::kStaleDrop, kP2), 1u);
  EXPECT_EQ(system_->trace().count(TraceKind::kDeliverApp, kP2), 0u);

  clean.transport_seq = 900'503;
  clean.epoch = 3;  // current incarnation passes
  p2.on_message(clean);
  EXPECT_EQ(system_->trace().count(TraceKind::kDeliverApp, kP2), 1u);
}

TEST_F(EngineEdgeFixture, DirtyFenceDropsOnlyDirtyMessages) {
  build(Scheme::kCoordinated);
  MdcdEngine& p2 = system_->p2();
  p2.set_epoch(2);
  p2.fence_dirty_below(2);

  Message stale_clean;
  stale_clean.kind = MsgKind::kInternal;
  stale_clean.sender = kP1Sdw;
  stale_clean.receiver = kP2;
  stale_clean.transport_seq = 900'504;
  stale_clean.epoch = 1;
  p2.on_message(stale_clean);
  EXPECT_EQ(system_->trace().count(TraceKind::kDeliverApp, kP2), 1u);

  Message stale_dirty = stale_clean;
  stale_dirty.transport_seq = 900'505;
  stale_dirty.dirty = true;
  stale_dirty.contam_sn = 99;
  p2.on_message(stale_dirty);
  EXPECT_EQ(system_->trace().count(TraceKind::kStaleDrop, kP2), 1u);
}

TEST_F(EngineEdgeFixture, WatermarkFiltersStaleDirtyFlags) {
  build(Scheme::kCoordinated);
  // Validate P1act's messages up to sn 5 first.
  Message note;
  note.kind = MsgKind::kPassedAt;
  note.sender = kP1Act;
  note.receiver = kP2;
  note.transport_seq = 900'506;
  note.sn = 5;
  system_->p2().on_message(note);

  // A dirty message whose contamination is covered: the raw flag still
  // contaminates (anchor alignment with the sender's copy contents), but
  // the validity VIEW records it as already valid.
  Message covered;
  covered.kind = MsgKind::kInternal;
  covered.sender = kP1Act;
  covered.receiver = kP2;
  covered.transport_seq = 900'507;
  covered.sn = 4;
  covered.dirty = true;
  covered.contam_sn = 4;
  system_->p2().on_message(covered);
  EXPECT_TRUE(system_->p2().dirty());
  EXPECT_EQ(system_->trace().count(TraceKind::kStaleDirtyIgnored, kP2), 1u);
  const ViewLog& recv = system_->p2().recv_views();
  ASSERT_GT(recv.size(), 0u);
  EXPECT_FALSE(recv[recv.size() - 1].suspect);

  // The false-alarm dirt is covered, so the next validation event clears
  // it (validation_covers_dirt holds trivially).
  Message note2 = covered;
  note2.kind = MsgKind::kPassedAt;
  note2.transport_seq = 900'508;
  note2.sn = 5;
  note2.dirty = false;
  system_->p2().on_message(note2);
  EXPECT_FALSE(system_->p2().dirty());

  // An uncovered dirty message contaminates and records a suspect view.
  Message fresh = covered;
  fresh.transport_seq = 900'509;
  fresh.sn = 6;
  fresh.contam_sn = 6;
  system_->p2().on_message(fresh);
  EXPECT_TRUE(system_->p2().dirty());
  EXPECT_TRUE(recv[recv.size() - 1].suspect);
}

TEST_F(EngineEdgeFixture, PartialValidationDoesNotClearDirt) {
  build(Scheme::kCoordinated);
  c1_send(false);  // sn 1
  c1_send(false);  // sn 2
  settle();
  ASSERT_TRUE(system_->p2().dirty());
  // A validation covering only sn 1 leaves sn 2's contamination in place.
  Message note;
  note.kind = MsgKind::kPassedAt;
  note.sender = kP1Act;
  note.receiver = kP2;
  note.transport_seq = 900'509;
  note.sn = 1;
  system_->p2().on_message(note);
  EXPECT_TRUE(system_->p2().dirty());
  // Covering both clears.
  note.transport_seq = 900'510;
  note.sn = 2;
  system_->p2().on_message(note);
  EXPECT_FALSE(system_->p2().dirty());
}

TEST_F(EngineEdgeFixture, ValidationGatedAcksDeferWhileDirty) {
  build(Scheme::kCoordinated);
  c1_send(false);  // contaminates P2
  settle();
  ASSERT_TRUE(system_->p2().dirty());
  // P1act's internal message is consumed but NOT acked: still unacked.
  EXPECT_EQ(system_->node(kP1Act).endpoint().unacked_count(), 1u);

  // The validation clears P2's dirt and flushes the deferred ack.
  system_->p2().on_app_send(true, 9);  // AT pass
  settle();
  EXPECT_EQ(system_->node(kP1Act).endpoint().unacked_count(), 0u);
}

TEST_F(EngineEdgeFixture, PaperTrackingAcksImmediately) {
  build(Scheme::kCoordinated, 1, [](SystemConfig c) {
    c.tracking = ContaminationTracking::kPaperDirtyBit;
    return c;
  });
  c1_send(false);
  settle();
  ASSERT_TRUE(system_->p2().dirty());
  EXPECT_EQ(system_->node(kP1Act).endpoint().unacked_count(), 0u);
}

TEST_F(EngineEdgeFixture, RoleStateSerializationRoundTripsP1Sdw) {
  build(Scheme::kCoordinated);
  c1_send(false);
  c1_send(false);
  settle();
  P1SdwEngine& sdw = *system_->node(kP1Sdw).p1sdw();
  ASSERT_EQ(sdw.suppressed_log().size(), 2u);
  const Bytes snap = sdw.snapshot_protocol_state();

  c1_send(false);
  EXPECT_EQ(sdw.suppressed_log().size(), 3u);
  sdw.restore_protocol_state(snap);
  EXPECT_EQ(sdw.suppressed_log().size(), 2u);
  EXPECT_EQ(sdw.suppressed_log()[1].sn, 2u);
  EXPECT_FALSE(sdw.active());
}

TEST_F(EngineEdgeFixture, RoleStateSerializationRoundTripsP1Act) {
  build(Scheme::kCoordinated);
  c1_send(false);
  ASSERT_TRUE(system_->p1act().pseudo_dirty());
  const Bytes snap = system_->p1act().snapshot_protocol_state();
  c1_send(true);  // clears pseudo
  EXPECT_FALSE(system_->p1act().pseudo_dirty());
  system_->p1act().restore_protocol_state(snap);
  EXPECT_TRUE(system_->p1act().pseudo_dirty());
}

TEST_F(EngineEdgeFixture, BlockingAwareGateAcceptsPredecessorLineOnlyWhenDirtyBlocking) {
  build(Scheme::kCoordinated);
  MdcdEngine& p2 = system_->p2();
  // Make P2 dirty, then simulate an in-progress establishment by starting
  // a blocking period (the gate keys on blocking + contamination).
  c1_send(false);
  settle();
  ASSERT_TRUE(p2.dirty());

  // Not blocking: only the equal Ndc is accepted (both are 0 here).
  Message note;
  note.kind = MsgKind::kPassedAt;
  note.sender = kP1Act;
  note.receiver = kP2;
  note.transport_seq = 900'520;
  note.sn = system_->node(kP2).p2()->p1act_sn_seen();
  note.ndc = 7;  // mismatched
  p2.on_message(note);
  EXPECT_TRUE(p2.dirty());
  EXPECT_EQ(system_->trace().count(TraceKind::kNdcGateReject, kP2), 1u);
}

TEST_F(EngineEdgeFixture, ContaminationFlagOfP1ActCoversReceivedDirt) {
  build(Scheme::kCoordinated);
  c1_send(false);  // sn 1: pseudo set
  c1_send(true);   // sn 2: AT pass clears pseudo
  ASSERT_FALSE(system_->p1act().pseudo_dirty());
  const auto ckpts_before =
      system_->trace().count(TraceKind::kCkptVolatile, kP1Act);

  // A dirty message from P2 carrying *uncovered* contamination: P1act
  // absorbs received dirt even though its pseudo bit is clear.
  Message m;
  m.kind = MsgKind::kInternal;
  m.sender = kP2;
  m.receiver = kP1Act;
  m.transport_seq = 900'530;
  m.sn = 1;
  m.dirty = true;
  m.contam_sn = 7;  // beyond P1act's validated watermark (2)
  system_->p1act().on_message(m);

  EXPECT_FALSE(system_->p1act().pseudo_dirty());
  EXPECT_TRUE(system_->p1act().recv_dirty());
  EXPECT_TRUE(system_->p1act().contamination_flag());
  // A Type-1 checkpoint anchored the received contamination.
  EXPECT_EQ(system_->trace().count(TraceKind::kCkptVolatile, kP1Act),
            ckpts_before + 1);
}

}  // namespace
}  // namespace synergy
