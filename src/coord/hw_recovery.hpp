// Hardware fault injection and recovery.
//
// A hardware fault crashes one node: volatile storage and the in-progress
// stable write are lost, the process terminates, in-transit messages to it
// vanish. Recovery (after a configurable repair latency) rolls *every*
// non-retired process back to its last committed stable checkpoint — the
// TB recovery line — then re-sends all unacked messages from the restored
// logs (paper §2.2). The per-process rollback distance
// (fault time − restored state_time) is the Figure 7 metric.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "app/fault.hpp"
#include "coord/line_audit.hpp"
#include "coord/node.hpp"

namespace synergy {

struct HwRecoveryStats {
  TimePoint fault_time;
  NodeId faulty_node;
  /// Rollback distance per restored process, indexed like `nodes`.
  /// Retired nodes contribute Duration::zero().
  std::vector<Duration> rollback_distance;
  /// Dirty bits of the restored states (a naive-combination hazard:
  /// restoring dirty states loses software recoverability, Figure 4(a)).
  std::vector<bool> restored_dirty;
  std::size_t resent_messages = 0;
};

/// Last checkpoint index that every non-retired node in `nodes` has
/// committed *and can still decode*. Storage faults can damage the record
/// at the naive line (min of latest indices); selection walks down through
/// the retained history until an index is intact everywhere. Empty when no
/// common intact index survives (each node then restores its own newest
/// valid record — a degraded, best-effort line).
std::optional<StableSeq> common_valid_line(
    const std::vector<ProcessNode*>& nodes);

class HardwareRecoveryManager {
 public:
  /// `repair_latency`: downtime between the fault and the coordinated
  /// restart of the system. With `oracle_filter`, line selection prefers
  /// LineAudit::restorable_line (hardened mode, through `audit`);
  /// otherwise the paper's naive common_valid_line selection is used
  /// unchanged.
  HardwareRecoveryManager(Simulator& sim, std::vector<ProcessNode*> nodes,
                          LineAudit& audit, Duration repair_latency,
                          TraceLog* trace, bool oracle_filter = false);

  /// Crash the process on `node` now and schedule the global recovery.
  /// `new_epoch` is the recovery incarnation for fencing and re-sends.
  /// `on_recovered` (optional) fires with the stats once restarted.
  void inject_fault(NodeId node, std::uint32_t new_epoch,
                    std::function<void(const HwRecoveryStats&)> on_recovered);

  /// Install a whole fault plan; epochs are drawn from `next_epoch`.
  void install_plan(const HardwareFaultPlan& plan,
                    std::function<std::uint32_t()> next_epoch,
                    std::function<void(const HwRecoveryStats&)> on_recovered);

  std::uint64_t faults_injected() const { return faults_; }
  bool recovery_pending() const { return pending_; }

 private:
  HwRecoveryStats recover_all(TimePoint fault_time, NodeId faulty,
                              std::uint32_t epoch);

  Simulator& sim_;
  std::vector<ProcessNode*> nodes_;
  LineAudit& audit_;
  Duration repair_latency_;
  TraceLog* trace_;
  bool oracle_filter_;
  std::uint64_t faults_ = 0;
  bool pending_ = false;
};

}  // namespace synergy
