#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "analysis/checkers.hpp"
#include "mdcd/views.hpp"

namespace synergy {
namespace {

MsgView view(ProcessId peer, std::uint64_t seq, bool suspect,
             MsgKind kind = MsgKind::kInternal) {
  return MsgView{peer, seq, seq, kind, suspect};
}

TEST(ViewLogTest, ValidateAllUpgradesSuspects) {
  ViewLog log;
  log.add(view(kP2, 1, true));
  log.add(view(kP2, 2, false));
  log.add(view(kP2, 3, true));
  EXPECT_EQ(log.validate_all(), 2u);
  for (std::size_t i = 0; i < log.size(); ++i) EXPECT_FALSE(log[i].suspect);
  EXPECT_EQ(log.validate_all(), 0u);
}

TEST(ViewLogTest, SerializationRoundTrip) {
  ViewLog log;
  log.add(view(kP2, 1, true));
  log.add(view(kP1Act, 9, false, MsgKind::kExternal));
  ByteWriter w;
  log.serialize(w);
  ByteReader r(w.data());
  const ViewLog back = ViewLog::deserialize(r);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0], log[0]);
  EXPECT_EQ(back[1], log[1]);
}

TEST(ViewLogTest, TruncatedLogFailsTheReader) {
  ViewLog log;
  log.add(view(kP2, 1, true));
  log.add(view(kP2, 2, false));
  ByteWriter w;
  log.serialize(w);
  Bytes cut = w.data();
  cut.pop_back();
  ByteReader r(cut);
  EXPECT_EQ(ViewLog::deserialize(r).size(), 0u);
  EXPECT_FALSE(r.ok());
}

// The field-by-field encoder ViewLog's wire form must match byte for byte.
Bytes reference_encode(const std::vector<MsgView>& views) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(views.size()));
  for (const auto& v : views) {
    w.u32(v.peer.value());
    w.u64(v.transport_seq);
    w.u64(v.sn);
    w.u8(static_cast<std::uint8_t>(v.kind));
    w.u8(v.suspect ? 1 : 0);
    w.u64(v.contam_sn);
  }
  return w.take();
}

Bytes encode(const ViewLog& log) {
  ByteWriter w;
  log.serialize(w);
  return w.take();
}

TEST(ViewLogTest, NonzeroSuspectByteRestoresAsOne) {
  // A hand-made record whose suspect byte is 0x02: it decodes as suspect
  // and re-encodes with the canonical 1, as a field-by-field decode and
  // re-encode would.
  const MsgView expected{kP2, 77, 5, MsgKind::kInternal, true, 4};
  Bytes raw = reference_encode({expected});
  raw[4 + ViewLog::kSuspectAt] = 0x02;
  ByteReader r(raw);
  ViewLog log = ViewLog::deserialize(r);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], expected);
  EXPECT_EQ(encode(log), reference_encode({expected}));
  EXPECT_EQ(log.validate_covered(3), 0u);
  EXPECT_EQ(log.validate_covered(4), 1u);
  EXPECT_FALSE(log[0].suspect);
}

TEST(ViewLogTest, EncodedSizeMatchesSerialize) {
  ViewLog log;
  EXPECT_EQ(log.encoded_size(), encode(log).size());
  log.add(view(kP2, 1, true));
  log.add(view(kP1Sdw, 2, false));
  EXPECT_EQ(log.encoded_size(), encode(log).size());
  EXPECT_EQ(log.encoded().size(), 2 * ViewLog::kEntryBytes);
}

// Differential fuzz: seeded random sequences of adds, validations and
// serialize/deserialize round trips against a plain vector of views and
// the field-by-field encoder. Bytes and return counts must agree after
// every step.
TEST(ViewLogTest, MatchesReferenceUnderRandomOperations) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    std::mt19937_64 rng(seed);
    auto pick = [&rng](std::uint64_t n) { return rng() % n; };
    ViewLog log;
    std::vector<MsgView> ref;
    MsgSeq sn = 0;
    for (int step = 0; step < 300; ++step) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " step " << step);
      const std::uint64_t op = pick(100);
      if (op < 60) {
        sn += 1 + pick(3);
        const MsgView v{ProcessId{static_cast<std::uint32_t>(pick(5))},
                        rng(),
                        sn,
                        pick(4) == 0 ? MsgKind::kExternal : MsgKind::kInternal,
                        pick(2) == 0,
                        sn - pick(std::min<MsgSeq>(sn, 8) + 1)};
        log.add(v);
        ref.push_back(v);
      } else if (op < 70) {
        std::size_t changed = 0;
        for (auto& v : ref) {
          if (v.suspect) ++changed;
          v.suspect = false;
        }
        EXPECT_EQ(log.validate_all(), changed);
      } else if (op < 85) {
        const MsgSeq w = sn == 0 ? 0 : sn - pick(std::min<MsgSeq>(sn, 10));
        std::size_t changed = 0;
        for (auto& v : ref) {
          if (v.suspect && v.contam_sn <= w) {
            v.suspect = false;
            ++changed;
          }
        }
        EXPECT_EQ(log.validate_covered(w), changed);
      } else if (op < 99) {
        const Bytes bytes = encode(log);
        ByteReader r(bytes);
        log = ViewLog::deserialize(r);
        EXPECT_TRUE(r.ok());
        EXPECT_TRUE(r.exhausted());
      } else {
        log = ViewLog{};
        ref.clear();
      }
      ASSERT_EQ(log.size(), ref.size());
      ASSERT_EQ(encode(log), reference_encode(ref));
      if (!ref.empty()) {
        const std::size_t i = pick(ref.size());
        EXPECT_EQ(log[i], ref[i]);
      }
    }
  }
}

class CheckerFixture : public ::testing::Test {
 protected:
  CheckerFixture() { state_.processes.reserve(8); }

  GlobalState state_;

  ProcessFacts& add_process(ProcessId id) {
    ProcessFacts f;
    f.id = id;
    state_.processes.push_back(f);
    return state_.processes.back();
  }
};

TEST_F(CheckerFixture, CleanStatePasses) {
  auto& sender = add_process(kP2);
  auto& receiver = add_process(kP1Sdw);
  sender.sent.add(view(kP1Sdw, 5, false));
  receiver.recv.add(view(kP2, 5, false));
  EXPECT_TRUE(check_consistency(state_).empty());
  EXPECT_TRUE(check_recoverability(state_).empty());
  EXPECT_TRUE(check_software_recoverability(state_).empty());
}

TEST_F(CheckerFixture, ReceivedNotSentFlagged) {
  add_process(kP2);
  auto& receiver = add_process(kP1Sdw);
  receiver.recv.add(view(kP2, 5, false));
  const auto v = check_consistency(state_);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].kind, Violation::Kind::kReceivedNotSent);
  EXPECT_NE(v[0].describe().find("does not reflect sending"),
            std::string::npos);
}

TEST_F(CheckerFixture, ValidityMismatchFlagged) {
  auto& sender = add_process(kP2);
  auto& receiver = add_process(kP1Sdw);
  sender.sent.add(view(kP1Sdw, 5, false));
  receiver.recv.add(view(kP2, 5, true));
  const auto v = check_consistency(state_);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].kind, Violation::Kind::kValidityMismatch);
}

TEST_F(CheckerFixture, LostMessageFlagged) {
  auto& sender = add_process(kP2);
  add_process(kP1Sdw);
  sender.sent.add(view(kP1Sdw, 5, false));
  const auto v = check_recoverability(state_);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].kind, Violation::Kind::kLostMessage);
}

TEST_F(CheckerFixture, UnackedMessageIsRestorable) {
  auto& sender = add_process(kP2);
  add_process(kP1Sdw);
  sender.sent.add(view(kP1Sdw, 5, false));
  Message m;
  m.sender = kP2;
  m.receiver = kP1Sdw;
  m.transport_seq = 5;
  sender.unacked.push_back(m);
  EXPECT_TRUE(check_recoverability(state_).empty());
}

TEST_F(CheckerFixture, ExternalMessagesIgnored) {
  auto& sender = add_process(kP2);
  add_process(kP1Sdw);
  sender.sent.add(view(kDeviceId, 7, false, MsgKind::kExternal));
  EXPECT_TRUE(check_recoverability(state_).empty());
}

TEST_F(CheckerFixture, PeerOutsideStateIgnored) {
  auto& receiver = add_process(kP1Sdw);
  receiver.recv.add(view(kP1Act, 3, true));  // P1act not in the state
  EXPECT_TRUE(check_consistency(state_).empty());
}

TEST_F(CheckerFixture, DirtyRestoredStateFlagged) {
  auto& p = add_process(kP2);
  p.dirty = true;
  const auto v = check_software_recoverability(state_);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].kind, Violation::Kind::kDirtyRestoredState);
}

TEST_F(CheckerFixture, CheckAllAggregates) {
  auto& sender = add_process(kP2);
  auto& receiver = add_process(kP1Sdw);
  receiver.dirty = true;
  sender.sent.add(view(kP1Sdw, 5, false));
  receiver.recv.add(view(kP2, 6, false));
  const auto v = check_all(state_);
  EXPECT_EQ(v.size(), 3u);  // lost + received-not-sent + dirty-restored
}

}  // namespace
}  // namespace synergy
