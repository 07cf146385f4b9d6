// P1act — the active process of the low-confidence version.
//
// Implements the Appendix A algorithm (Figure 8). P1act's actual dirty bit
// is constant 1 during guarded operation (its state is invariably
// potentially contaminated); under the modified protocol it additionally
// maintains pseudo_dirty_bit, reset on validation events and set
// immediately before sending the first internal message since the last
// validation — at which point a *pseudo checkpoint* is established so that
// P1act can participate in stable-storage checkpointing.
#pragma once

#include "mdcd/engine.hpp"

namespace synergy {

class P1ActEngine final : public MdcdEngine {
 public:
  P1ActEngine(const MdcdConfig& config, ProcessServices services);

  /// Modified protocol: pseudo_dirty_bit (paper footnote 2) OR the
  /// received-contamination bit — a library completion: P2's dirty
  /// messages contaminate P1act's state just like they contaminate
  /// P1sdw's, and a stable checkpoint of that state must not pair a
  /// current P1act with a rolled-back P2. Original protocol: the actual
  /// dirty bit (constant 1 while guarded).
  bool contamination_flag() const override;

  bool pseudo_dirty() const { return pseudo_dirty_; }
  bool recv_dirty() const { return recv_dirty_; }

 protected:
  void do_app_send(bool external, std::uint64_t input) override;
  void do_passed_at(const Message& m) override;
  void do_app_message(const Message& m) override;
  void note_confidence_loss() override;
  void serialize_role_state(ByteWriter& w) const override;
  void deserialize_role_state(ByteReader& r) override;
  std::size_t role_state_size() const override;

 private:
  void clear_pseudo_dirty();
  void clear_recv_dirty();
  void maybe_all_clear();

  bool pseudo_dirty_ = false;
  bool recv_dirty_ = false;
};

}  // namespace synergy
