// Executable oracles for the paper's correctness properties (§2.1).
//
// Consistency: if a global state reflects m as received, it must reflect m
// as sent, and sender and receiver must agree on m's validity.
//
// Recoverability: if a global state reflects m as sent (to a process that
// is part of the state), m must be reflected as received with an agreeing
// validity view, or be restorable — present in the sender's saved
// unacked-message log.
//
// A third check targets the naive-combination hazard of Figure 4(a):
// software recoverability — a restored state flagged potentially
// contaminated has lost the volatile checkpoint that software error
// recovery would need.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/global_state.hpp"

namespace synergy {

struct Violation {
  enum class Kind {
    kReceivedNotSent,       ///< recv entry without matching sent entry
    kValidityMismatch,      ///< sender and receiver views disagree
    kLostMessage,           ///< sent entry neither received nor restorable
    kDirtyRestoredState,    ///< restored state is potentially contaminated
  };
  Kind kind;
  ProcessId a;  ///< Process whose log triggered the finding.
  ProcessId b;  ///< The peer.
  std::uint64_t transport_seq = 0;
  std::string describe() const;
};

/// What the checkers read of one process's facts, compacted (16 bytes a
/// view instead of a full MsgView) and ordered for merging. Built once per
/// facts; an audit cache shares it between audits of the same record.
struct AuditFacts {
  struct View {
    std::uint64_t transport_seq;
    std::uint32_t pos;  ///< Position in the original log.
    bool internal;
    bool suspect;
  };
  /// The views exchanged with one peer, in views[begin, end).
  struct Run {
    std::uint32_t peer;
    std::uint32_t begin;
    std::uint32_t end;
  };
  /// One view log sorted by (peer, transport_seq, position) and split into
  /// runs by ascending peer. Among views with the same key the first
  /// logged comes first, so a merge lands on it (first wins, as a lookup
  /// table built in log order would).
  struct Log {
    std::vector<View> views;
    std::vector<Run> runs;
    /// The run exchanged with `peer`, or null.
    const Run* run(ProcessId peer) const;
  };

  explicit AuditFacts(const ProcessFacts& facts);

  /// Whether the message is in the saved unacked log (can be re-sent).
  bool can_resend(std::uint64_t transport_seq) const;

  ProcessId id;
  TimePoint state_time;
  bool dirty;
  Log sent;
  Log recv;
  std::vector<std::uint64_t> unacked;  ///< Sorted transport seqs.
};

/// A global state as audit facts, one per process, in state order.
using AuditState = std::vector<const AuditFacts*>;

/// Both directions of the paper's consistency property.
std::vector<Violation> check_consistency(const AuditState& state);
std::vector<Violation> check_consistency(const GlobalState& state);

/// The paper's recoverability property (internal messages only; external
/// messages go to the device and are outside the recoverable world).
std::vector<Violation> check_recoverability(const AuditState& state);
std::vector<Violation> check_recoverability(const GlobalState& state);

/// Figure 4(a) hazard: any process restored with dirty == 1 can no longer
/// perform software error recovery (its volatile checkpoint died with the
/// node).
std::vector<Violation> check_software_recoverability(const AuditState& state);
std::vector<Violation> check_software_recoverability(const GlobalState& state);

/// All three checks, in that order.
std::vector<Violation> check_all(const AuditState& state);
std::vector<Violation> check_all(const GlobalState& state);

}  // namespace synergy
