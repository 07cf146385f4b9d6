#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "storage/stable_store.hpp"
#include "storage/volatile_store.hpp"

namespace synergy {
namespace {

CheckpointRecord sample_record(std::uint64_t ndc = 1) {
  CheckpointRecord rec;
  rec.kind = CkptKind::kStable;
  rec.owner = kP2;
  rec.established_at = TimePoint{1000};
  rec.state_time = TimePoint{900};
  rec.dirty_bit = true;
  rec.ndc = ndc;
  rec.app_state = Bytes{1, 2, 3};
  rec.protocol_state = Bytes{4, 5};
  rec.transport_state = Bytes{6};
  Message m;
  m.sender = kP2;
  m.receiver = kP1Sdw;
  m.transport_seq = 9;
  rec.unacked.push_back(m);
  return rec;
}

TEST(CheckpointTest, SerializationRoundTrip) {
  const CheckpointRecord rec = sample_record();
  ByteWriter w;
  rec.serialize(w);
  ByteReader r(w.data());
  const CheckpointRecord back = CheckpointRecord::deserialize(r);
  EXPECT_EQ(back.kind, rec.kind);
  EXPECT_EQ(back.owner, rec.owner);
  EXPECT_EQ(back.established_at, rec.established_at);
  EXPECT_EQ(back.state_time, rec.state_time);
  EXPECT_EQ(back.dirty_bit, rec.dirty_bit);
  EXPECT_EQ(back.ndc, rec.ndc);
  EXPECT_EQ(back.app_state, rec.app_state);
  EXPECT_EQ(back.protocol_state, rec.protocol_state);
  EXPECT_EQ(back.transport_state, rec.transport_state);
  ASSERT_EQ(back.unacked.size(), 1u);
  EXPECT_EQ(back.unacked[0].transport_seq, 9u);
}

// encoded_size() backs StableStore::write_latency_for, so a drift between it
// and serialize() silently changes simulated commit timing. Checkpoint.cpp
// promises this test keeps the two in lock-step.
TEST(CheckpointTest, EncodedSizeMatchesSerializedSize) {
  CheckpointRecord empty;
  ByteWriter we;
  empty.serialize(we);
  EXPECT_EQ(we.data().size(), empty.encoded_size());

  CheckpointRecord rec = sample_record();
  rec.unacked[0].aux = Bytes{9, 8, 7, 6, 5};
  Message extra;
  extra.sender = kP1Act;
  extra.receiver = kP2;
  extra.transport_seq = 17;
  rec.unacked.push_back(extra);
  ByteWriter w;
  rec.serialize(w);
  EXPECT_EQ(w.data().size(), rec.encoded_size());

  // Serializing into a dirty reused writer appends exactly encoded_size().
  w.u32(0xDEADBEEF);
  const std::size_t before = w.data().size();
  rec.serialize(w);
  EXPECT_EQ(w.data().size() - before, rec.encoded_size());
}

TEST(VolatileStoreTest, KeepsOnlyLatest) {
  VolatileStore store;
  EXPECT_FALSE(store.latest().has_value());
  store.save(sample_record(1));
  store.save(sample_record(2));
  ASSERT_TRUE(store.latest().has_value());
  EXPECT_EQ(store.latest()->ndc, 2u);
  EXPECT_EQ(store.saves(), 2u);
}

TEST(VolatileStoreTest, CrashErasesContents) {
  VolatileStore store;
  store.save(sample_record());
  store.crash_erase();
  EXPECT_FALSE(store.latest().has_value());
}

class StableStoreFixture : public ::testing::Test {
 protected:
  StableStoreFixture() : store_(sim_, params()) {}
  static StableStoreParams params() {
    StableStoreParams p;
    p.write_base_latency = Duration::millis(10);
    p.write_per_kib = Duration::zero();
    return p;
  }
  Simulator sim_;
  StableStore store_;
};

TEST_F(StableStoreFixture, WriteCommitsAfterLatency) {
  bool committed = false;
  store_.begin_write(sample_record(),
                     [&](const CheckpointRecord&) { committed = true; });
  EXPECT_TRUE(store_.write_in_progress());
  EXPECT_FALSE(store_.latest_committed().has_value());
  sim_.run();
  EXPECT_TRUE(committed);
  EXPECT_FALSE(store_.write_in_progress());
  ASSERT_TRUE(store_.latest_committed().has_value());
  EXPECT_EQ(store_.latest_committed()->ndc, 1u);
  EXPECT_EQ(sim_.now(), TimePoint{10'000});
}

TEST_F(StableStoreFixture, ReplaceInProgressSwapsContents) {
  store_.begin_write(sample_record(1));
  sim_.run_until(TimePoint{5'000});
  store_.replace_in_progress(sample_record(2));
  sim_.run();
  ASSERT_TRUE(store_.latest_committed().has_value());
  EXPECT_EQ(store_.latest_committed()->ndc, 2u);
  EXPECT_EQ(store_.aborts(), 1u);
  EXPECT_EQ(store_.commits(), 1u);
  // Replacement restarts the write latency.
  EXPECT_EQ(sim_.now(), TimePoint{15'000});
}

TEST_F(StableStoreFixture, CrashLosesInProgressKeepsCommitted) {
  store_.begin_write(sample_record(1));
  sim_.run();
  store_.begin_write(sample_record(2));
  sim_.run_until(sim_.now() + Duration::millis(5));
  store_.crash_abort_in_progress();
  sim_.run();
  ASSERT_TRUE(store_.latest_committed().has_value());
  EXPECT_EQ(store_.latest_committed()->ndc, 1u);
}

TEST_F(StableStoreFixture, CommitNowIsSynchronous) {
  store_.begin_write(sample_record(1));
  store_.commit_now(sample_record(7));
  EXPECT_FALSE(store_.write_in_progress());
  ASSERT_TRUE(store_.latest_committed().has_value());
  EXPECT_EQ(store_.latest_committed()->ndc, 7u);
}

TEST_F(StableStoreFixture, TrailingGarbageRejectedAtRecordBoundary) {
  // A stored blob is exactly one record. Bytes appended after a CRC-clean
  // record (overlong torn read, appended garbage on untrusted storage)
  // must fail the read, not silently decode the record and ignore the
  // junk — the reader has to land exactly on the record boundary.
  store_.commit_now(sample_record(1));
  store_.commit_now(sample_record(2));
  ASSERT_TRUE(store_.pad_retained(2, 5));
  EXPECT_FALSE(store_.has_valid(2));
  EXPECT_TRUE(store_.has_valid(1));
  // Fallback behaves exactly like any other corruption: skip to the
  // newest intact record.
  ASSERT_TRUE(store_.latest_committed().has_value());
  EXPECT_EQ(store_.latest_committed()->ndc, 1u);
  EXPECT_EQ(store_.latest_valid_ndc(), 1u);
  ASSERT_TRUE(store_.best_valid_at_most(2).has_value());
  EXPECT_EQ(store_.best_valid_at_most(2)->ndc, 1u);
  EXPECT_FALSE(store_.committed_for(2).has_value());
  EXPECT_GE(store_.corrupt_reads(), 1u);
}

TEST_F(StableStoreFixture, CommittedSurvivesAsBytes) {
  // latest_committed hands out a copy of the decoded record: mutating it
  // must not affect the store (or its decode memo).
  store_.commit_now(sample_record(3));
  auto rec = store_.latest_committed();
  rec->ndc = 999;
  EXPECT_EQ(store_.latest_committed()->ndc, 3u);
}

// ---- Decode memo invalidation ----------------------------------------
//
// Every read is served from a per-entry decode memo. Each test warms the
// memo, mutates the stored bytes one way, and checks every read against a
// from-scratch decode of the raw bytes.

CheckpointRecord distinct_record(std::uint64_t ndc, std::int64_t stamp) {
  CheckpointRecord rec = sample_record(ndc);
  rec.state_time = TimePoint{stamp};
  rec.protocol_state = Bytes(64 + ndc, static_cast<std::uint8_t>(stamp));
  return rec;
}

std::optional<CheckpointRecord> fresh_decode(const StableStore& store,
                                             StableSeq ndc) {
  const Bytes* bytes = store.stored_bytes(ndc);
  if (bytes == nullptr) return std::nullopt;
  ByteReader r(*bytes);
  auto rec = CheckpointRecord::try_deserialize(r);
  if (rec && !r.exhausted()) rec.reset();
  return rec;
}

// Every read agrees with a from-scratch decode, and each failing
// committed_for call counts exactly one corrupt read.
void expect_fresh(const StableStore& store) {
  StableSeq newest_valid = 0;
  for (const StableSeq ndc : store.retained_ndcs()) {
    SCOPED_TRACE("ndc " + std::to_string(ndc));
    const auto want = fresh_decode(store, ndc);
    if (want) newest_valid = ndc;
    EXPECT_EQ(store.has_valid(ndc), want.has_value());
    for (int call = 0; call < 2; ++call) {
      const std::uint64_t before = store.corrupt_reads();
      const auto got = store.committed_for(ndc);
      ASSERT_EQ(got.has_value(), want.has_value());
      EXPECT_EQ(store.corrupt_reads() - before, want ? 0u : 1u);
      if (got) {
        EXPECT_EQ(got->state_time, want->state_time);
        EXPECT_EQ(got->protocol_state, want->protocol_state);
      }
    }
    EXPECT_EQ(store.valid_id(ndc) != 0, want.has_value());
  }
  EXPECT_EQ(store.latest_valid_ndc(), newest_valid);
}

TEST_F(StableStoreFixture, LatentFlipResetsMemo) {
  StableStoreParams p = params();
  p.faults.latent_corruption_probability = 1.0;
  StableStore store(sim_, p);
  store.seed_faults(Rng(7));
  for (std::uint64_t ndc = 1; ndc <= 6; ++ndc) {
    expect_fresh(store);  // warm the memo before the next flip
    store.begin_write(distinct_record(ndc, static_cast<std::int64_t>(ndc)));
    sim_.run();
    EXPECT_EQ(store.latent_corruptions(), ndc);
    expect_fresh(store);
  }
}

TEST_F(StableStoreFixture, DeterministicDamageResetsMemo) {
  for (std::uint64_t ndc = 1; ndc <= 4; ++ndc) {
    store_.commit_now(distinct_record(ndc, static_cast<std::int64_t>(ndc)));
  }
  expect_fresh(store_);
  ASSERT_TRUE(store_.corrupt_retained(2));
  expect_fresh(store_);
  EXPECT_FALSE(store_.has_valid(2));
  ASSERT_TRUE(store_.truncate_retained(4, 10));
  expect_fresh(store_);
  EXPECT_EQ(store_.latest_valid_ndc(), 3u);
  ASSERT_TRUE(store_.pad_retained(3, 4));
  expect_fresh(store_);
  EXPECT_EQ(store_.latest_valid_ndc(), 1u);
}

TEST_F(StableStoreFixture, SameIndexRecommitResetsMemo) {
  store_.commit_now(distinct_record(2, 100));
  expect_fresh(store_);
  const RecordId before = store_.valid_id(2);
  store_.commit_now(distinct_record(2, 200));  // a reline at the same index
  expect_fresh(store_);
  EXPECT_NE(store_.valid_id(2), before);
  EXPECT_EQ(store_.committed_for(2)->state_time, TimePoint{200});
}

TEST_F(StableStoreFixture, HandoffResetsMemo) {
  for (std::uint64_t ndc = 1; ndc <= 5; ++ndc) {
    store_.commit_now(distinct_record(ndc, static_cast<std::int64_t>(ndc)));
  }
  ASSERT_TRUE(store_.corrupt_retained(4));
  expect_fresh(store_);
  const RecordId survivor = store_.valid_id(5);
  const auto out = store_.handoff(3, Duration::zero());
  EXPECT_EQ(out.dropped, 2u);
  EXPECT_EQ(store_.retained_ndcs(), (std::vector<StableSeq>{3, 4, 5}));
  expect_fresh(store_);
  EXPECT_NE(store_.valid_id(5), survivor);
  EXPECT_FALSE(store_.committed_for(1).has_value());
}

TEST_F(StableStoreFixture, DiscardAboveResetsMemo) {
  for (std::uint64_t ndc = 1; ndc <= 4; ++ndc) {
    store_.commit_now(distinct_record(ndc, static_cast<std::int64_t>(ndc)));
  }
  ASSERT_TRUE(store_.corrupt_retained(2));
  expect_fresh(store_);
  const RecordId survivor = store_.valid_id(1);
  store_.discard_above(2);
  EXPECT_EQ(store_.retained_ndcs(), (std::vector<StableSeq>{1, 2}));
  expect_fresh(store_);
  EXPECT_NE(store_.valid_id(1), survivor);
  EXPECT_EQ(store_.latest_valid_ndc(), 1u);
}

TEST_F(StableStoreFixture, CorruptReadsCountOncePerFailingCall) {
  store_.commit_now(distinct_record(1, 1));
  store_.commit_now(distinct_record(2, 2));
  ASSERT_TRUE(store_.corrupt_retained(2));
  const std::uint64_t base = store_.corrupt_reads();
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(store_.latest_committed());
  EXPECT_EQ(store_.corrupt_reads() - base, 3u);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(store_.best_valid_at_most(2));
  EXPECT_EQ(store_.corrupt_reads() - base, 6u);
  EXPECT_EQ(store_.latest_valid_id(), store_.valid_id(1));
  EXPECT_EQ(store_.corrupt_reads() - base, 7u);
  // Verdict-only reads never count.
  EXPECT_FALSE(store_.has_valid(2));
  EXPECT_EQ(store_.latest_valid_ndc(), 1u);
  EXPECT_EQ(store_.corrupt_reads() - base, 7u);
}

TEST_F(StableStoreFixture, WorkCountersSeparateReadsFromDecodes) {
  store_.commit_now(distinct_record(1, 1));
  const std::uint64_t size = store_.stored_bytes(1)->size();
  // The store wrote these bytes itself: the verdict needs no decode.
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(store_.has_valid(1));
  EXPECT_EQ(store_.reads(), 4u);
  EXPECT_EQ(store_.read_bytes(), 4 * size);
  EXPECT_EQ(store_.decoded_bytes(), 0u);
  // Full reads decode, on every call.
  const RecordId id = store_.valid_id(1);
  ASSERT_TRUE(store_.record(id));
  ASSERT_TRUE(store_.committed_for(1));
  EXPECT_EQ(store_.decoded_bytes(), 2 * size);
  // Damaged bytes are decoded once; the verdict answers later reads.
  store_.commit_now(distinct_record(2, 2));
  ASSERT_TRUE(store_.corrupt_retained(2));
  EXPECT_FALSE(store_.committed_for(2));
  EXPECT_FALSE(store_.committed_for(2));
  EXPECT_FALSE(store_.has_valid(2));
  EXPECT_EQ(store_.decoded_bytes(), 2 * size + store_.stored_bytes(2)->size());
  EXPECT_EQ(store_.reads(), 10u);
}

TEST(StableStoreLatencyTest, PerKibLatencyScalesWithSize) {
  Simulator sim;
  StableStoreParams p;
  p.write_base_latency = Duration::zero();
  p.write_per_kib = Duration::millis(1);
  StableStore store(sim, p);
  CheckpointRecord rec = sample_record();
  rec.app_state = Bytes(4096, 0xAA);
  const Duration latency = store.write_latency_for(rec);
  EXPECT_GE(latency, Duration::millis(4));
  EXPECT_LE(latency, Duration::millis(6));
}

}  // namespace
}  // namespace synergy
