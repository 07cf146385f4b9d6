#include <gtest/gtest.h>

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
  for (const auto& v : log.entries()) EXPECT_FALSE(v.suspect);
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
  EXPECT_EQ(back.entries()[0], log.entries()[0]);
  EXPECT_EQ(back.entries()[1], log.entries()[1]);
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
