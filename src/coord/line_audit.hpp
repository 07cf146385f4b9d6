// Memoized recovery-line audits.
//
// The monitor's standing self-audit, the periodic oracle audits, hardened
// recovery-line selection and the write-through cut descent all run the
// paper's checkers over sets of stored records — mostly the same records,
// audit after audit. LineAudit is the one place they share:
//   - decoded audit facts (compact, merge-ordered views), keyed by
//     StableStore record identity — a bounded LRU: a line holds ~14k views
//     at 1200 s, so only the records audits revisit stay resident;
//   - checker verdicts, keyed by the tuple of record identities, so an
//     unchanged line is never re-checked.
// Identities change whenever stored bytes change (see StableStore), so a
// hit can never serve a stale verdict. Every read is still issued through
// the store in the same order as an unmemoized audit would issue it, which
// keeps the stores' corrupt-read counts exact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "analysis/checkers.hpp"
#include "coord/node.hpp"

namespace synergy {

/// One retained record, named by its store and identity.
struct StoredRecord {
  const StableStore* store;
  RecordId id;
};

class LineAudit {
 public:
  /// `facts_capacity`: records whose facts stay resident (at least one
  /// line).
  explicit LineAudit(std::size_t facts_capacity);

  LineAudit(const LineAudit&) = delete;
  LineAudit& operator=(const LineAudit&) = delete;

  /// Like common_valid_line, but the chosen index must also pass the
  /// paper's oracles (consistency, recoverability, software
  /// recoverability) over the record set it would restore. Protects
  /// recovery from adopting a line cut while an injector had split the
  /// processes' validation knowledge (e.g. a dropped passed_AT): restoring
  /// such a pair bakes the asymmetry into the live states, where no later
  /// repair can reach it. Empty when no retained index is clean everywhere
  /// — callers fall back to common_valid_line, so schemes whose lines are
  /// *expected* to violate the oracles (ablations, the naive combination)
  /// behave exactly as before.
  std::optional<StableSeq> restorable_line(
      const std::vector<ProcessNode*>& nodes);

  /// Per-node record selection for the index-less (write-through) schemes.
  /// Write-through commits are per-node validation events, so a fault
  /// inside one node's write-latency window (or a torn newest record)
  /// leaves the nodes' newest intact records straddling in-flight traffic:
  /// the receiver remembers messages the rolled-back sender never sent.
  /// Starting from every node's newest decodable record, the node whose
  /// current record has the newest state time is rolled back one record at
  /// a time until the paper's oracles accept the cut (the classic
  /// rollback-propagation descent; it terminates because every step
  /// strictly shrinks the cut). Returns the chosen index per node, aligned
  /// with `nodes` (nullopt for retired / storage-less entries); empty when
  /// no retained combination is clean — callers then fall back to per-node
  /// latest_committed() exactly as before.
  std::vector<std::optional<StableSeq>> write_through_cut(
      const std::vector<ProcessNode*>& nodes);

  /// Consistency violations among `nodes`' records at index `line` (the
  /// monitor's self-audit); 0 when some node holds no intact record there.
  std::size_t line_consistency(const std::vector<ProcessNode*>& nodes,
                               StableSeq line);

  /// check_all() over the records of `cut`, in cut order.
  const std::vector<Violation>& violations(
      const std::vector<StoredRecord>& cut);

  /// The audit facts of one record (decoded at most once while cached).
  std::shared_ptr<const AuditFacts> facts(const StoredRecord& rec);

 private:
  struct CachedFacts {
    RecordId id = 0;
    std::uint64_t used = 0;
    std::shared_ptr<const AuditFacts> facts;
  };
  struct Verdict {
    std::vector<RecordId> key;
    std::uint64_t used = 0;
    /// check_consistency(), and check_all() which extends it.
    std::optional<std::vector<Violation>> consistency;
    std::optional<std::vector<Violation>> all;
  };
  using FactsRefs = std::vector<std::shared_ptr<const AuditFacts>>;

  Verdict& verdict(const std::vector<StoredRecord>& cut);
  const std::vector<Violation>& consistency(Verdict& v,
                                            const AuditState& state);
  /// Facts of every record in `cut`, held in `refs` while checked.
  AuditState state(const std::vector<StoredRecord>& cut, FactsRefs& refs);

  std::size_t facts_capacity_;
  std::uint64_t clock_ = 0;  ///< Use stamp for least-recently-used eviction.
  std::vector<CachedFacts> facts_;
  std::vector<Verdict> verdicts_;
};

}  // namespace synergy
