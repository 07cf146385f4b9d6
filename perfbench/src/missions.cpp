#include "missions.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "analysis/checkers.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"

namespace perfbench {

using namespace synergy;

namespace {

// Results of probed calls land here so the calls cannot be elided.
volatile std::uint64_t g_sink = 0;

SystemConfig chaos_system_config(const CampaignConfig& config,
                                 std::uint64_t seed) {
  SystemConfig sc = config.base;
  sc.scheme = config.scheme;
  sc.seed = seed;
  sc.net_faults = config.rates.net;
  sc.sstore.faults = config.rates.storage;
  sc.enable_link_faults = config.rates.mobile.any();
  sc.enable_monitor = true;
  sc.harden_recovery = true;
  return sc;
}

Topology star_topology(const GeneralCampaignConfig& config) {
  std::vector<ComponentSpec> specs = Topology::star(config.size).components();
  for (auto& s : specs) {
    s.internal_rate = config.internal_rate;
    s.external_rate = config.external_rate;
  }
  return Topology(std::move(specs));
}

GeneralConfig general_system_config(const GeneralCampaignConfig& config,
                                    std::uint64_t seed) {
  GeneralConfig gc;
  gc.seed = seed;
  gc.tb.interval = config.tb_interval;
  gc.enable_trace = false;
  return gc;
}

std::uint64_t corrupt_reads(System& system) {
  std::uint64_t n = 0;
  for (std::uint32_t p = 0; p < kNumCanonicalProcesses; ++p) {
    ProcessNode& node = system.node(ProcessId{p});
    if (node.has_stable_storage()) n += node.sstore().corrupt_reads();
  }
  return n;
}

void probe_line(const GlobalState& line, ProbeSample& out, SpanLog& log,
                std::uint32_t mission, std::int32_t parent) {
  {
    Scope s(log, "analysis.check_all", mission, parent);
    g_sink = g_sink + check_all(line).size();
  }
  ByteWriter w;
  for (const ProcessFacts& f : line.processes) {
    w.clear();
    {
      Scope s(log, "mdcd.views_serialize", mission, parent);
      f.sent.serialize(w);
      f.recv.serialize(w);
    }
    out.view_entries += f.sent.size() + f.recv.size();
  }
}

}  // namespace

ChaosMission::ChaosMission(const CampaignConfig& config, std::uint64_t seed)
    : config_(config),
      sc_(chaos_system_config(config, seed)),
      system_(sc_),
      schedule_(FaultSchedule::generate(seed, config.rates,
                                        TimePoint::origin(), config.mission,
                                        sc_.clock.rho,
                                        kNumCanonicalProcesses)) {
  report_.seed = seed;
  System& system = system_;
  for (const FaultEvent& ev : schedule_.events()) {
    switch (ev.kind) {
      case FaultEvent::Kind::kHwFault:
        if (sc_.scheme != Scheme::kMdcdOnly) {
          system.schedule_hw_fault(ev.at, NodeId{ev.target});
        }
        break;
      case FaultEvent::Kind::kDriftExcursion:
        system.sim().schedule_at(ev.at, [&system, ev] {
          system.clocks().inject_drift_excursion(ProcessId{ev.target},
                                                 ev.drift);
        });
        break;
      case FaultEvent::Kind::kDriftRestore:
        system.sim().schedule_at(ev.at, [&system, ev] {
          system.clocks().end_drift_excursion(ProcessId{ev.target});
        });
        break;
      case FaultEvent::Kind::kBlackoutStart:
        system.sim().schedule_at(ev.at, [&system] {
          system.clocks().suppress_resyncs(true);
        });
        break;
      case FaultEvent::Kind::kBlackoutEnd:
        system.sim().schedule_at(ev.at, [&system] {
          system.clocks().suppress_resyncs(false);
        });
        break;
      case FaultEvent::Kind::kLaneFlip:
      case FaultEvent::Kind::kSigFault:
        system.schedule_lane_fault(
            ev.at, ProcessId{ev.target % kNumCanonicalProcesses}, ev.lane,
            ev.kind == FaultEvent::Kind::kSigFault, ev.noise);
        break;
      case FaultEvent::Kind::kLinkDown:
        system.schedule_link_down(
            ev.at, ProcessId{ev.target % kNumCanonicalProcesses},
            (ev.noise & kLinkRx) != 0, (ev.noise & kLinkTx) != 0,
            (ev.noise & kLinkFull) != 0, ev.drift);
        break;
      case FaultEvent::Kind::kLinkUp:
        system.schedule_link_up(ev.at,
                                ProcessId{ev.target % kNumCanonicalProcesses});
        break;
      case FaultEvent::Kind::kHandoff:
        if (sc_.scheme != Scheme::kMdcdOnly) {
          system.schedule_handoff(
              ev.at, ProcessId{ev.target % kNumCanonicalProcesses});
        }
        break;
    }
  }
  const TimePoint start = TimePoint::origin();
  for (TimePoint t = start + config_.audit_interval;
       t < start + config_.mission; t += config_.audit_interval) {
    system.sim().schedule_at(t, [this] {
      ++audits_;
      audit("audit");
    });
  }
  system.start(start + config_.mission);
}

void ChaosMission::audit(const char* when) {
  const GlobalState line = system_.stable_line_state();
  for (const Violation& v : check_all(line)) {
    report_.failures.push_back(
        std::string(when) + " at " +
        std::to_string(system_.sim().now().to_seconds()) + "s: " +
        v.describe());
  }
}

MissionReport ChaosMission::finish(std::uint64_t probe_reads) {
  System& system = system_;
  MissionReport& report = report_;
  audit("final");

  if (sc_.workload.kind == WorkloadKind::kRegisters &&
      sc_.at.coverage >= 1.0 && sc_.at.false_alarm <= 0.0) {
    for (const auto& e : system.device().entries) {
      if (e.tainted) {
        report.failures.push_back("tainted external output at " +
                                  std::to_string(e.at.to_seconds()) + "s");
        break;
      }
    }
  }

  if (FaultyNetwork* fn = system.faulty_net()) {
    report.injected_net = fn->injected_total();
    report.link_epochs = fn->link_epochs();
    report.disconnect_drops = fn->disconnect_drops();
    report.burst_drops = fn->burst_drops();
  }
  report.handoffs = system.handoffs();
  report.handoff_aborted_writes = system.handoff_aborted_writes();
  report.late_deliveries = system.net().late_deliveries();
  report.net_dropped_loss = system.net().dropped_loss();
  report.net_dropped_no_receiver = system.net().dropped_no_receiver();
  report.net_dropped_cancelled = system.net().dropped_cancelled();
  for (std::uint32_t p = 0; p < kNumCanonicalProcesses; ++p) {
    ProcessNode& n = system.node(ProcessId{p});
    report.unacked_high_water =
        std::max<std::uint64_t>(report.unacked_high_water,
                                n.endpoint().unacked_high_water());
    const AcceptanceTest& at = n.at();
    const std::uint64_t detected = at.failures() - at.false_alarms();
    report.at_detected += detected;
    report.at_missed += at.missed_detections();
    report.at_exposures += detected + at.missed_detections();
    report.at_false_alarms += at.false_alarms();
    report.ckpt_records += n.vstore().saves();
    report.ckpt_bytes_encoded += n.app().snapshot_bytes_encoded() +
                                 n.engine().protocol_bytes_encoded() +
                                 n.endpoint().snapshot_bytes_encoded();
    report.ckpt_cache_hits += n.app().snapshot_cache_hits() +
                              n.engine().protocol_cache_hits() +
                              n.endpoint().snapshot_cache_hits();
    report.ckpt_cache_misses += n.app().snapshot_cache_misses() +
                                n.engine().protocol_cache_misses() +
                                n.endpoint().snapshot_cache_misses();
    if (!n.has_stable_storage()) continue;
    report.ckpt_records += n.sstore().commits();
    report.stable_bytes_written += n.sstore().bytes_written();
    report.write_retries += n.sstore().write_retries();
    report.failed_writes += n.sstore().failed_writes();
    report.torn_writes += n.sstore().torn_writes();
    report.latent_corruptions += n.sstore().latent_corruptions();
    report.corrupt_reads += n.sstore().corrupt_reads();
  }
  report.corrupt_reads -= probe_reads;
  report.hw_faults = system.hw_manager().faults_injected();
  report.drift_excursions = system.clocks().drift_excursions();
  report.missed_resyncs = system.clocks().missed_resyncs();
  report.sw_recoveries = system.sw_recovery().has_value() ? 1 : 0;
  const LaneStats lanes = system.lane_stats();
  report.lane_injected = lanes.injected + system.unprotected_flips();
  report.lane_masked = lanes.masked;
  report.lane_detected = lanes.detected;
  report.lane_silent = lanes.silent;
  report.lane_unprotected = system.unprotected_flips();
  report.lane_rollbacks = system.lane_rollbacks();
  report.lane_resyncs = lanes.resyncs;
  report.sig_mismatches = lanes.sig_mismatches;
  for (const HwRecoveryStats& r : system.hw_recoveries()) {
    for (const Duration& d : r.rollback_distance) {
      report.rollback_seconds.push_back(d.to_seconds());
    }
  }
  for (std::uint32_t p = 0; p < kNumCanonicalProcesses; ++p) {
    if (const TbEngine* tb = system.node(ProcessId{p}).tb()) {
      report.blocking_seconds += tb->total_blocking().to_seconds();
    }
  }
  if (AssumptionMonitor* m = system.monitor()) report.monitor = m->stats();

  report.ok = report.failures.empty();
  if (!report.ok) report.schedule_json = schedule_.to_json();
  return report;
}

GeneralCampaignConfig general_star_config() {
  GeneralCampaignConfig config;
  config.shape = GeneralShape::kStar;
  config.size = 64;
  config.mission = Duration::seconds(200);
  return config;
}

GeneralCampaignConfig zero_length(GeneralCampaignConfig config) {
  config.mission = Duration::zero();
  config.inject_hw = false;
  config.inject_sw = false;
  return config;
}

CampaignConfig zero_length(CampaignConfig config) {
  config.mission = Duration::zero();
  return config;
}

GeneralMission::GeneralMission(const GeneralCampaignConfig& config,
                               std::uint64_t seed)
    : config_(config),
      system_(star_topology(config), general_system_config(config, seed)) {
  report_.seed = seed;
  report_.processes = system_.topology().process_count();
  const TimePoint end = TimePoint::origin() + config.mission;
  system_.start(end);

  Rng inj(seed * 97 + 3);
  const Duration lo =
      Duration::from_seconds(config.mission.to_seconds() * 0.25);
  const Duration hi =
      Duration::from_seconds(config.mission.to_seconds() * 0.75);
  if (config.inject_hw) {
    const TimePoint at = TimePoint::origin() + inj.uniform(lo, hi);
    const auto victim = static_cast<std::uint32_t>(inj.uniform_int(
        0, static_cast<std::int64_t>(report_.processes) - 1));
    system_.schedule_hw_fault(at, ProcessId{victim});
  }
  if (config.inject_sw) {
    system_.schedule_sw_error(TimePoint::origin() + inj.uniform(lo, hi), 0);
  }
}

GeneralMissionReport GeneralMission::finish(SpanLog* log,
                                            std::uint32_t mission,
                                            std::int32_t parent) {
  GeneralSystem& system = system_;
  GeneralMissionReport& report = report_;
  report.events = system.sim().events_executed();
  report.device_outputs = system.device_outputs();
  for (const Message& m : system.device_log()) {
    if (m.tainted) ++report.tainted_outputs;
  }
  for (std::uint32_t p = 0; p < report.processes; ++p) {
    report.stable_ckpts += system.tb(ProcessId{p}).checkpoints_taken();
  }
  report.hw_recoveries = system.hw_recoveries().size();
  if (system.sw_recovery().has_value()) {
    report.sw_recoveries = 1;
    report.sw_replayed = system.sw_recovery()->replayed;
  }

  {
    std::int32_t span = -1;
    if (log) span = log->open("general.audit", mission, parent);
    const GlobalState line = system.stable_line_state();
    report.consistency_violations = check_consistency(line).size();
    report.recoverability_violations = check_recoverability(line).size();
    if (log) log->close(span);
  }
  if (report.consistency_violations != 0) {
    report.failures.push_back(
        "recovery line inconsistent: " +
        std::to_string(report.consistency_violations) + " violation(s)");
  }
  if (report.recoverability_violations != 0) {
    report.failures.push_back(
        "recovery line unrecoverable: " +
        std::to_string(report.recoverability_violations) + " violation(s)");
  }
  report.ok = report.failures.empty();
  return report;
}

void ModelTotals::add_chaos(const MissionReport& r, double mission_s) {
  ++missions;
  if (r.ok) ++clean;
  for (double d : r.rollback_seconds) rollback_s += d;
  rollbacks += r.rollback_seconds.size();
  blocking_s += r.blocking_seconds;
  node_s += kNumCanonicalProcesses * mission_s;
}

void ModelTotals::add_general(GeneralSystem& s, const GeneralMissionReport& r,
                              double mission_s) {
  ++missions;
  if (r.ok) ++clean;
  for (const GeneralHwRecovery& h : s.hw_recoveries()) {
    for (const Duration& d : h.rollback_distance) rollback_s += d.to_seconds();
    rollbacks += h.rollback_distance.size();
  }
  for (std::uint32_t p = 0; p < r.processes; ++p) {
    blocking_s += s.tb(ProcessId{p}).total_blocking().to_seconds();
  }
  node_s += static_cast<double>(r.processes) * mission_s;
}

void ModelTotals::emit(RunResult& out) const {
  out.add("dependability",
          missions ? static_cast<double>(clean) / static_cast<double>(missions)
                   : 0.0,
          "ratio");
  out.add("rollback_s_mean",
          rollbacks ? rollback_s / static_cast<double>(rollbacks) : 0.0,
          "sim_s");
  out.add("blocking_frac", node_s > 0 ? blocking_s / node_s : 0.0, "ratio");
}

ProbeSample probe_system(System& system, SpanLog& log, std::uint32_t mission,
                         std::int32_t parent) {
  ProbeSample out;
  const std::uint64_t reads0 = corrupt_reads(system);
  ByteWriter w;
  for (std::uint32_t p = 0; p < kNumCanonicalProcesses; ++p) {
    ProcessNode& node = system.node(ProcessId{p});
    if (!node.has_stable_storage()) continue;
    const std::optional<CheckpointRecord> rec =
        node.sstore().latest_committed();
    if (!rec) continue;
    w.clear();
    {
      Scope s(log, "storage.encode", mission, parent);
      rec->serialize(w);
    }
    {
      Scope s(log, "storage.decode", mission, parent);
      ByteReader r(w.data());
      g_sink = g_sink + CheckpointRecord::deserialize(r).ndc;
    }
    {
      Scope s(log, "common.crc", mission, parent);
      g_sink = g_sink + crc32(w.data());
      s.set_work(w.size());
    }
    out.record_bytes += w.size();
  }
  GlobalState line;
  {
    Scope s(log, "analysis.line_state", mission, parent);
    line = system.stable_line_state();
  }
  out.corrupt_reads = corrupt_reads(system) - reads0;
  probe_line(line, out, log, mission, parent);
  return out;
}

ProbeSample probe_general(GeneralSystem& system, SpanLog& log,
                          std::uint32_t mission, std::int32_t parent) {
  ProbeSample out;
  GlobalState line;
  {
    Scope s(log, "analysis.line_state", mission, parent);
    line = system.stable_line_state();
  }
  probe_line(line, out, log, mission, parent);
  return out;
}

TracedChaos trace_chaos_mission(const CampaignConfig& config,
                                std::uint64_t seed, Duration slice,
                                SpanLog& log, std::uint32_t id) {
  TracedChaos out;
  Scope root(log, "mission", id, -1);
  std::optional<ChaosMission> m;
  {
    Scope s(log, "core.setup", id, root.index());
    m.emplace(config, seed);
  }
  const Duration quarter = config.mission / 4;
  std::uint64_t probe_reads = 0;
  run_in_slices(*m, config.mission, slice, log, id, root.index(),
                [&](Duration t) {
    const ProbeSample p = probe_system(m->system(), log, id, root.index());
    probe_reads += p.corrupt_reads;
    if (t == quarter) out.quarter_bytes = p.record_bytes;
    if (t == config.mission) {
      out.end_bytes = p.record_bytes;
      out.view_entries = p.view_entries;
    }
  });
  {
    Scope s(log, "core.finish", id, root.index());
    out.report = m->finish(probe_reads);
  }
  System& system = m->system();
  out.events = system.sim().events_executed();
  out.hw_recoveries = system.hw_recoveries().size();
  // Periodic audits, the final audit, and one per monitor sweep: a sweep
  // audits the committed line whenever the system is quiescent, so this
  // counts audit opportunities.
  out.audits = m->audits() + 1 +
               static_cast<std::uint64_t>(
                   config.mission.count() /
                   system.config().monitor.sweep_interval.count());
  return out;
}

TracedGeneral trace_general_mission(const GeneralCampaignConfig& config,
                                    std::uint64_t seed, Duration slice,
                                    SpanLog& log, std::uint32_t id) {
  TracedGeneral out;
  Scope root(log, "mission", id, -1);
  std::optional<GeneralMission> m;
  {
    Scope s(log, "core.setup", id, root.index());
    m.emplace(config, seed);
  }
  run_in_slices(*m, config.mission, slice, log, id, root.index(),
                [&](Duration) {
    out.view_entries =
        probe_general(m->system(), log, id, root.index()).view_entries;
  });
  out.report = m->finish(&log, id, root.index());
  return out;
}

void ChaosLayers::add(const TracedChaos& t, double mission_s) {
  const MissionReport& r = t.report;
  ++missions;
  sim_hours += mission_s / 3600.0;
  events += t.events;
  dropped += r.net_dropped_loss + r.net_dropped_no_receiver +
             r.net_dropped_cancelled;
  net_faults += r.injected_net;
  ckpt_records += r.ckpt_records;
  ckpt_bytes += r.ckpt_bytes_encoded;
  cache_hits += r.ckpt_cache_hits;
  cache_lookups += r.ckpt_cache_hits + r.ckpt_cache_misses;
  quarter_bytes += t.quarter_bytes;
  end_bytes += t.end_bytes;
  write_retries += r.write_retries;
  corrupt_reads += r.corrupt_reads;
  stable_bytes += r.stable_bytes_written;
  view_entries += t.view_entries;
  sw_recoveries += r.sw_recoveries;
  detections += r.monitor.violations();
  degradations += r.monitor.degradations();
  relines += r.monitor.relines;
  hw_recoveries += t.hw_recoveries;
  audits += t.audits;
}

void ChaosLayers::emit(RunResult& out, const SpanLog& log,
                       double mission_ms) const {
  const double n = static_cast<double>(missions);
  auto per_mission = [n](std::uint64_t v) {
    return static_cast<double>(v) / n;
  };
  auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  out.add("core.setup_ms", median_span_us(log, "core.setup") / 1e3, "ms");
  out.add("sim.events_per_mission", per_mission(events), "count");
  const SpanLog::Total slices = log.total("sim.slice");
  out.add("sim.ns_per_event", slices.ns / slices.work, "ns");
  out.add("net.dropped_per_mission", per_mission(dropped), "count");
  out.add("inject.net_faults_per_mission", per_mission(net_faults), "count");
  out.add("storage.ckpt_records_per_mission", per_mission(ckpt_records),
          "count");
  out.add("storage.ckpt_bytes_per_record", ratio(ckpt_bytes, ckpt_records),
          "B");
  out.add("storage.ckpt_cache_hit_frac", ratio(cache_hits, cache_lookups),
          "ratio");
  out.add("storage.record_growth", ratio(end_bytes, quarter_bytes), "ratio");
  out.add("storage.write_retries_per_mission", per_mission(write_retries),
          "count");
  out.add("storage.corrupt_reads_per_mission", per_mission(corrupt_reads),
          "count");
  out.add("storage.stable_mb_per_sim_h",
          static_cast<double>(stable_bytes) / 1e6 / sim_hours, "MB/sim_h");
  out.add("storage.encode_us", median_span_us(log, "storage.encode"), "us");
  out.add("storage.decode_us", median_span_us(log, "storage.decode"), "us");
  out.add("mdcd.view_entries", per_mission(view_entries), "count");
  out.add("mdcd.views_serialize_us",
          median_span_us(log, "mdcd.views_serialize"), "us");
  out.add("mdcd.sw_recoveries_per_mission", per_mission(sw_recoveries),
          "count");
  out.add("coord.monitor_detections_per_mission", per_mission(detections),
          "count");
  out.add("coord.monitor_degradations_per_mission", per_mission(degradations),
          "count");
  out.add("coord.relines_per_mission", per_mission(relines), "count");
  out.add("coord.hw_recoveries_per_mission", per_mission(hw_recoveries),
          "count");
  const double line_us = median_span_us(log, "analysis.line_state");
  const double check_us = median_span_us(log, "analysis.check_all");
  out.add("analysis.line_state_us", line_us, "us");
  out.add("analysis.check_all_us", check_us, "us");
  out.add("analysis.audits_per_mission", per_mission(audits), "count");
  out.add("analysis.audit_share",
          per_mission(audits) * (line_us + check_us) / (mission_ms * 1e3),
          "ratio");
  // Bytes per nanosecond is GB/s.
  const SpanLog::Total crc = log.total("common.crc");
  out.add("common.crc_gbps", crc.work / crc.ns, "GB/s");
}

}  // namespace perfbench
