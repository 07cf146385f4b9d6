// Mission replicas with their phases exposed.
//
// ChaosMission repeats run_mission (src/core/campaign.cpp) and
// GeneralMission repeats run_general_mission (src/general/campaign.cpp)
// call for call through the public System / GeneralSystem facade, split
// into set-up, simulated-time slices and finish, so the traced run can
// time each phase and look at the live system between slices. Every
// replica report is checked against the library entry point's report for
// the same seed; that cross-check is what ties the per-layer numbers to
// the benchmarked program. No end-to-end host time is taken from a
// replica: the untraced runs time the entry points themselves.
#pragma once

#include <cstdint>
#include <vector>

#include "core/campaign.hpp"
#include "general/campaign.hpp"
#include "general/system.hpp"
#include "harness.hpp"

namespace perfbench {

class ChaosMission {
 public:
  /// Set-up: system construction, fault schedule, audits, start.
  ChaosMission(const synergy::CampaignConfig& config, std::uint64_t seed);
  ChaosMission(const ChaosMission&) = delete;
  ChaosMission& operator=(const ChaosMission&) = delete;

  synergy::System& system() { return system_; }
  void run_until(synergy::TimePoint t) { system_.run_until(t); }
  /// Final audit and report, as run_mission builds them. `probe_reads`
  /// is the number of corrupt stable reads the caller's own probes
  /// caused; the store counts them, run_mission never made them.
  synergy::MissionReport finish(std::uint64_t probe_reads);

  /// Periodic audits that fired so far.
  std::uint64_t audits() const { return audits_; }

 private:
  void audit(const char* when);

  synergy::CampaignConfig config_;
  synergy::SystemConfig sc_;
  synergy::MissionReport report_;
  synergy::System system_;
  synergy::FaultSchedule schedule_;
  std::uint64_t audits_ = 0;
};

/// The general-star workload's mission configuration.
synergy::GeneralCampaignConfig general_star_config();

/// The same configuration with a mission of zero length and no faults:
/// run_general_mission then does only its fixed per-mission work.
synergy::GeneralCampaignConfig zero_length(
    synergy::GeneralCampaignConfig config);
/// A chaos configuration with a mission of zero length, for run_mission.
synergy::CampaignConfig zero_length(synergy::CampaignConfig config);

class GeneralMission {
 public:
  GeneralMission(const synergy::GeneralCampaignConfig& config,
                 std::uint64_t seed);
  GeneralMission(const GeneralMission&) = delete;
  GeneralMission& operator=(const GeneralMission&) = delete;

  synergy::GeneralSystem& system() { return system_; }
  void run_until(synergy::TimePoint t) { system_.run_until(t); }
  /// Report and end-of-mission audit, as run_general_mission builds them.
  /// The audit runs inside a `general.audit` span when `log` is non-null.
  synergy::GeneralMissionReport finish(SpanLog* log, std::uint32_t mission,
                                       std::int32_t parent);

 private:
  synergy::GeneralCampaignConfig config_;
  synergy::GeneralMissionReport report_;
  synergy::GeneralSystem system_;
};

/// Modelled-system totals of a mission set; every field is exact.
struct ModelTotals {
  std::uint64_t missions = 0;
  std::uint64_t clean = 0;
  double rollback_s = 0;
  std::uint64_t rollbacks = 0;
  double blocking_s = 0;
  double node_s = 0;  ///< processes x mission length, simulated seconds

  void add_chaos(const synergy::MissionReport& r, double mission_s);
  void add_general(synergy::GeneralSystem& s,
                   const synergy::GeneralMissionReport& r, double mission_s);
  /// dependability, rollback_s_mean and blocking_frac.
  void emit(RunResult& out) const;
};

/// What one probe of a live system saw.
struct ProbeSample {
  std::uint64_t record_bytes = 0;  ///< newest stable records, encoded
  std::uint64_t view_entries = 0;  ///< view-log entries on the stable line
  std::uint64_t corrupt_reads = 0; ///< stable reads the probe caused
};

/// Time one call of each layer on the live stable state of a canonical
/// system: encode, decode and CRC of each newest stable record, the
/// stable-line decode and its oracle check, and view-log encoding.
ProbeSample probe_system(synergy::System& system, SpanLog& log,
                         std::uint32_t mission, std::int32_t parent);

/// The same for a general system, whose stores are not reachable from the
/// facade: the stable line, its oracle check and its view logs.
ProbeSample probe_general(synergy::GeneralSystem& system, SpanLog& log,
                          std::uint32_t mission, std::int32_t parent);

/// Run a replica to `length` in `slice`-long steps, each in a `sim.slice`
/// span whose work is the events it executed, and call probe(t) after
/// each step, t being the simulated time reached.
template <class Mission, class Probe>
void run_in_slices(Mission& m, synergy::Duration length,
                   synergy::Duration slice, SpanLog& log,
                   std::uint32_t mission, std::int32_t parent, Probe probe) {
  for (synergy::Duration t = slice;; t += slice) {
    if (t > length) t = length;
    {
      Scope s(log, "sim.slice", mission, parent);
      const std::uint64_t events0 = m.system().sim().events_executed();
      m.run_until(synergy::TimePoint::origin() + t);
      s.set_work(m.system().sim().events_executed() - events0);
    }
    probe(t);
    if (t == length) break;
  }
}

/// One chaos mission driven through ChaosMission in `slice`-long steps,
/// with every phase in a span and a probe after each slice.
struct TracedChaos {
  synergy::MissionReport report;
  std::uint64_t events = 0;         ///< simulator events executed
  std::uint64_t quarter_bytes = 0;  ///< newest stable records at 1/4
  std::uint64_t end_bytes = 0;      ///< ... and at mission end
  std::uint64_t view_entries = 0;   ///< stable-line view entries at end
  std::uint64_t audits = 0;         ///< periodic + final + monitor sweeps
  std::uint64_t hw_recoveries = 0;
};
TracedChaos trace_chaos_mission(const synergy::CampaignConfig& config,
                                std::uint64_t seed, synergy::Duration slice,
                                SpanLog& log, std::uint32_t id);

/// The same for one general mission through GeneralMission.
struct TracedGeneral {
  synergy::GeneralMissionReport report;
  std::uint64_t view_entries = 0;  ///< stable-line view entries at end
};
TracedGeneral trace_general_mission(
    const synergy::GeneralCampaignConfig& config, std::uint64_t seed,
    synergy::Duration slice, SpanLog& log, std::uint32_t id);

/// Per-layer figures of the canonical system over a traced mission set.
struct ChaosLayers {
  std::uint64_t missions = 0;
  double sim_hours = 0;
  std::uint64_t events = 0, dropped = 0, net_faults = 0;
  std::uint64_t ckpt_records = 0, ckpt_bytes = 0, cache_hits = 0,
                cache_lookups = 0;
  std::uint64_t quarter_bytes = 0, end_bytes = 0;
  std::uint64_t write_retries = 0, corrupt_reads = 0, stable_bytes = 0;
  std::uint64_t view_entries = 0, sw_recoveries = 0;
  std::uint64_t detections = 0, degradations = 0, relines = 0,
                hw_recoveries = 0, audits = 0;

  void add(const TracedChaos& t, double mission_s);
  /// Every sim/net/inject/storage/mdcd/coord/analysis/common/core.setup
  /// metric. `mission_ms` is the mean untraced mission time.
  void emit(RunResult& out, const SpanLog& log, double mission_ms) const;
};

}  // namespace perfbench
