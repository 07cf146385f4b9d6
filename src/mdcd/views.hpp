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
///
/// The log lives in its wire form: one buffer of fixed-size little-endian
/// entries, exactly the bytes a checkpoint records. Serializing is a copy,
/// validation flips the suspect byte in place, and audits read fields
/// straight from the buffer (see encoded()).
class ViewLog {
 public:
  /// Entry layout: peer u32, transport_seq u64, sn u64, kind u8,
  /// suspect u8 (0 or 1), contam_sn u64.
  static constexpr std::size_t kPeerAt = 0;
  static constexpr std::size_t kSeqAt = 4;
  static constexpr std::size_t kSnAt = 12;
  static constexpr std::size_t kKindAt = 20;
  static constexpr std::size_t kSuspectAt = 21;
  static constexpr std::size_t kContamAt = 22;
  static constexpr std::size_t kEntryBytes = 30;

  void add(const MsgView& view);

  /// A validation event (own AT pass, or accepted passed-AT notification)
  /// upgrades every suspect entry to valid. Returns how many changed.
  std::size_t validate_all();

  /// Watermark-scoped upgrade: only suspect entries whose contamination
  /// watermark is covered (contam_sn <= watermark) become valid.
  std::size_t validate_covered(MsgSeq watermark);

  std::size_t size() const { return entries_.size() / kEntryBytes; }
  /// Entry `i`, decoded.
  MsgView operator[](std::size_t i) const;
  /// All entries in their encoded form, kEntryBytes each, in log order.
  ByteView encoded() const { return entries_; }

  /// Bytes serialize() appends: the u32 count plus the entries.
  std::size_t encoded_size() const { return 4 + entries_.size(); }
  void serialize(ByteWriter& w) const;
  static ViewLog deserialize(ByteReader& r);

 private:
  Bytes entries_;
};

}  // namespace synergy
