// Version-stamped snapshot caching: every mutating entry point must bump
// the source's version, so a cached encoded blob handed to a checkpoint
// record is never stale. The central oracle: after ANY driven event
// sequence, the cached blob must equal a fresh encode — a mismatch means a
// mutation path forgot its version bump (a stale checkpoint bug, paper-
// level incorrect recovery content). Cache-hit behaviour is asserted via
// SharedBytes::shares_buffer_with, not timing.
#include <gtest/gtest.h>

#include "app/state.hpp"
#include "core/system.hpp"
#include "net/transport_core.hpp"

namespace synergy {
namespace {

TEST(AppSnapshotCacheTest, RepeatedSnapshotsShareOneBuffer) {
  ApplicationState app(1);
  const SharedBytes first = app.snapshot_shared();
  const SharedBytes second = app.snapshot_shared();
  EXPECT_TRUE(first.shares_buffer_with(second));
  EXPECT_EQ(first, app.snapshot());
  EXPECT_EQ(app.snapshot_cache_misses(), 1u);
  EXPECT_EQ(app.snapshot_cache_hits(), 1u);
}

TEST(AppSnapshotCacheTest, EveryMutatorInvalidates) {
  ApplicationState app(1);
  const auto expect_fresh = [&app](const char* what) {
    const std::uint64_t before = app.version();
    const SharedBytes cached = app.snapshot_shared();
    EXPECT_EQ(cached, app.snapshot()) << "stale cache after " << what;
    EXPECT_EQ(app.version(), before) << "snapshot must not mutate";
  };
  expect_fresh("construction");

  const SharedBytes before = app.snapshot_shared();
  app.apply_message(42, /*payload_tainted=*/false);
  EXPECT_FALSE(app.snapshot_shared().shares_buffer_with(before));
  expect_fresh("apply_message");

  app.local_step(7);
  expect_fresh("local_step");

  app.corrupt(99);
  expect_fresh("corrupt");

  const Bytes clean = app.snapshot();
  app.corrupt(123);
  app.restore(clean);
  expect_fresh("restore");
  EXPECT_EQ(app.snapshot(), clean);
}

TEST(TransportCoreSnapshotCacheTest, EveryMutatorInvalidates) {
  TransportCore core(kP1Act);
  const auto expect_fresh = [&core](const char* what) {
    EXPECT_EQ(core.snapshot_state_shared(), core.snapshot_state())
        << "stale cache after " << what;
  };
  expect_fresh("construction");

  Message m;
  m.kind = MsgKind::kInternal;
  m.receiver = kP2;
  const Message stamped = core.prepare_send(m);
  expect_fresh("prepare_send");  // send counter is snapshotted state

  Message recv = stamped;
  recv.sender = kP2;
  core.mark_consumed(recv);
  expect_fresh("mark_consumed");

  const Bytes state = core.snapshot_state();
  core.mark_consumed([&] {
    Message other = recv;
    other.transport_seq = 999;
    return other;
  }());
  core.restore_state(state);
  expect_fresh("restore_state");

  const Message log[] = {stamped};
  core.restore_unacked(log);
  expect_fresh("restore_unacked");
}

TEST(TransportCoreSnapshotCacheTest, UnchangedStateHitsCache) {
  TransportCore core(kP1Act);
  const SharedBytes a = core.snapshot_state_shared();
  const SharedBytes b = core.snapshot_state_shared();
  EXPECT_TRUE(a.shares_buffer_with(b));
  EXPECT_EQ(core.snapshot_cache_hits(), 1u);
  EXPECT_EQ(core.snapshot_cache_misses(), 1u);
}

// ---- Engine-level: records built from cached blobs are never stale ---------

SystemConfig quiet_config(std::uint64_t seed = 1) {
  SystemConfig c;
  c.scheme = Scheme::kCoordinated;
  c.seed = seed;
  c.workload = WorkloadParams{0, 0, 0, 0, 0};  // manual driving only
  c.tb.interval = Duration::seconds(1'000'000);  // keep TB out of the way
  return c;
}

class SnapshotCacheFixture : public ::testing::Test {
 protected:
  void build() {
    system_ = std::make_unique<System>(quiet_config());
    system_->start(TimePoint::origin() + Duration::seconds(1'000'000));
  }

  void c1_send(bool external, std::uint64_t input = 1) {
    system_->p1act().on_app_send(external, input);
    system_->p1sdw().on_app_send(external, input);
  }

  void settle() {
    system_->sim().run_until(system_->sim().now() + Duration::seconds(1));
  }

  /// The stale-hit oracle: a record built from the caches must match
  /// fresh encodes of all three snapshot sources.
  void expect_records_fresh(const char* what) {
    for (ProcessId p : {kP1Act, kP1Sdw, kP2}) {
      ProcessNode& n = system_->node(p);
      const CheckpointRecord rec = n.engine().make_record(CkptKind::kStable);
      EXPECT_EQ(rec.app_state, n.app().snapshot())
          << "stale app blob for P" << p.value() << " after " << what;
      EXPECT_EQ(rec.protocol_state, n.engine().snapshot_protocol_state())
          << "stale protocol blob for P" << p.value() << " after " << what;
      EXPECT_EQ(rec.transport_state, n.endpoint().snapshot_state())
          << "stale transport blob for P" << p.value() << " after " << what;
    }
  }

  std::unique_ptr<System> system_;
};

TEST_F(SnapshotCacheFixture, CleanStateRecordsShareBuffers) {
  build();
  // Two records of an unchanged process alias the same immutable blobs —
  // the clean-state TB-expiry path establishes records without
  // re-serializing anything.
  const CheckpointRecord a = system_->p2().make_record(CkptKind::kStable);
  const CheckpointRecord b = system_->p2().make_record(CkptKind::kStable);
  EXPECT_TRUE(a.app_state.shares_buffer_with(b.app_state));
  EXPECT_TRUE(a.protocol_state.shares_buffer_with(b.protocol_state));
  EXPECT_TRUE(a.transport_state.shares_buffer_with(b.transport_state));
  expect_records_fresh("repeated clean records");
}

TEST_F(SnapshotCacheFixture, MessageTrafficInvalidates) {
  build();
  const CheckpointRecord before = system_->p2().make_record(CkptKind::kStable);
  c1_send(false);  // P1act dirties P2 (Type-1 + state application)
  settle();
  const CheckpointRecord after = system_->p2().make_record(CkptKind::kStable);
  EXPECT_FALSE(before.app_state.shares_buffer_with(after.app_state));
  EXPECT_FALSE(before.protocol_state.shares_buffer_with(after.protocol_state));
  EXPECT_FALSE(
      before.transport_state.shares_buffer_with(after.transport_state));
  expect_records_fresh("internal send + delivery");
}

TEST_F(SnapshotCacheFixture, ValidationAndClearPathsInvalidate) {
  build();
  c1_send(false);
  settle();
  // External send: AT pass, note_validation, pseudo/recv dirty clears,
  // passed-AT broadcast and its consumption at P1sdw/P2.
  c1_send(true);
  settle();
  expect_records_fresh("AT pass + passed-AT broadcast");
}

TEST_F(SnapshotCacheFixture, CorruptionAndRestoreInvalidate) {
  build();
  c1_send(false);
  settle();
  ProcessNode& p2node = system_->node(kP2);
  const CheckpointRecord rec = system_->p2().make_record(CkptKind::kStable);

  p2node.app().corrupt(0xBEEF);
  expect_records_fresh("app corruption");

  system_->p2().restore_from_record(rec);
  expect_records_fresh("restore_from_record");
}

TEST_F(SnapshotCacheFixture, ProtocolSnapshotIsSizedExactly) {
  build();
  c1_send(false);
  c1_send(false);
  settle();
  ASSERT_GT(system_->p1sdw().suppressed_log().size(), 0u);
  // Every role's snapshot reserves its exact encoded size up front: a
  // short reservation would reallocate and leave spare capacity.
  for (ProcessId p : {kP1Act, kP1Sdw, kP2}) {
    const Bytes snap = system_->node(p).engine().snapshot_protocol_state();
    ASSERT_GT(snap.size(), 0u);
    EXPECT_EQ(snap.capacity(), snap.size()) << "P" << p.value();
  }
}

TEST_F(SnapshotCacheFixture, TakeoverInvalidates) {
  build();
  c1_send(false);  // shadow logs a suppressed message (serialized role state)
  settle();
  system_->p1act().kill();
  system_->p1sdw().set_guarded(false);
  system_->p1sdw().takeover();
  settle();
  expect_records_fresh("shadow takeover");
}

}  // namespace
}  // namespace synergy
