// Per-message validity views.
//
// The paper's correctness properties are stated over *views on message
// validity*: in a recovered global state, sender and receiver must agree
// on whether each reflected message is valid (validated) or suspect
// (sent from a potentially contaminated state, not yet covered by an
// acceptance test). Engines therefore keep, as part of their protocol
// state, a log of sent and received application-purpose messages together
// with the local validity view. The global-state checkers compare these
// logs across checkpoints.
#pragma once

#include <cstdint>

#include "common/serialize.hpp"
#include "common/small_vec.hpp"
#include "common/types.hpp"
#include "net/message.hpp"

namespace synergy {

struct MsgView {
  ProcessId peer;               ///< The other party (receiver for sent,
                                ///< sender for received entries).
  std::uint64_t transport_seq;  ///< Identity of the message.
  MsgSeq sn;                    ///< Protocol sequence number.
  MsgKind kind;                 ///< kInternal or kExternal.
  bool suspect;                 ///< Local view: not yet validated.
  /// Contamination watermark the entry's suspicion depends on (the
  /// message's contam_sn). A validation covering this SN upgrades it.
  MsgSeq contam_sn = 0;

  friend bool operator==(const MsgView&, const MsgView&) = default;
};

/// Append-only log of message views with bulk validation upgrades.
class ViewLog {
 public:
  void add(MsgView view) { views_.push_back(view); }

  /// A validation event (own AT pass, or accepted passed-AT notification)
  /// upgrades every suspect entry to valid. Returns how many changed.
  std::size_t validate_all();

  /// Watermark-scoped upgrade: only suspect entries whose contamination
  /// watermark is covered (contam_sn <= watermark) become valid.
  std::size_t validate_covered(MsgSeq watermark);

  /// Inline-small storage: short logs (the steady state between
  /// checkpoints) never touch the heap.
  using Entries = SmallVec<MsgView, 8>;
  const Entries& entries() const { return views_; }
  std::size_t size() const { return views_.size(); }
  void clear() { views_.clear(); }

  void serialize(ByteWriter& w) const;
  static ViewLog deserialize(ByteReader& r);

 private:
  /// peer u32, transport_seq u64, sn u64, kind u8, suspect u8, contam u64.
  static constexpr std::size_t kEncodedEntryBytes = 4 + 8 + 8 + 1 + 1 + 8;

  Entries views_;
};

}  // namespace synergy
