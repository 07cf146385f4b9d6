// P2 — the active process of the second, high-confidence component.
//
// Implements the Appendix A algorithm (Figure 10). P2 becomes potentially
// contaminated by consuming dirty-flagged messages from P1act (Type-1
// checkpoint immediately before); it validates its own external messages
// by AT only while potentially contaminated, and on a pass broadcasts a
// passed-AT notification carrying the last P1act message SN it has seen —
// which is how P1sdw learns which of P1act's messages are now valid.
#pragma once

#include "mdcd/engine.hpp"

namespace synergy {

class P2Engine final : public MdcdEngine {
 public:
  P2Engine(const MdcdConfig& config, ProcessServices services);

  /// Last message SN received from component 1 (paper: msg_SN_P1act).
  MsgSeq p1act_sn_seen() const { return p1act_sn_seen_; }

 protected:
  void do_app_send(bool external, std::uint64_t input) override;
  void do_passed_at(const Message& m) override;
  void do_app_message(const Message& m) override;
  void serialize_role_state(ByteWriter& w) const override;
  void deserialize_role_state(ByteReader& r) override;
  std::size_t role_state_size() const override;

 private:
  MsgSeq p1act_sn_seen_ = 0;
};

}  // namespace synergy
