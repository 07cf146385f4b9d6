// general-star: star-64 on the generalized topology engine, 200 s
// missions with one seeded node crash and one software error each, one
// thread, closed loop.
//
// The only workload that enters src/general (contamination vectors, the
// anchor ring, per-destination transport streams, its own view logs). It
// bypasses the monitor, FaultyNetwork and the three-process engines, so a
// change confined to those should leave it unchanged.
#include <exception>
#include <string>

#include "missions.hpp"

namespace perfbench {

using namespace synergy;

namespace {

constexpr std::size_t kMissions = 72;
constexpr std::size_t kTracedMissions = 14;
constexpr Duration kSlice = Duration::seconds(25);

}  // namespace

RunResult run_general_star(const Args& args) {
  const GeneralCampaignConfig config = general_star_config();
  const GeneralCampaignConfig zero = zero_length(config);
  const double mission_s = config.mission.to_seconds();
  RunResult out;
  MissionSet<GeneralMissionReport> set{"general-star",
                                       mission_seeds(args.seed, kMissions)};
  set.run = [&](std::uint64_t seed) {
    return run_general_mission(config, seed);
  };
  set.setup = [&] {
    const auto t0 = Clock::now();
    for (std::uint64_t seed : set.seeds) run_general_mission(zero, seed);
    return seconds_since(t0);
  };
  // The library report omits the rollback distances and TB blocking, so
  // each first-pass mission is replayed, untimed, through GeneralMission,
  // which keeps its system; the replay must give the library's report.
  ModelTotals model;
  set.on_first = [&](std::size_t, const GeneralMissionReport& r) {
    try {
      GeneralMission m(config, r.seed);
      m.system().run();
      if (m.finish(nullptr, 0, -1) != r) {
        out.fail_check("replay of mission seed=" + std::to_string(r.seed) +
                       " differs from run_general_mission");
      }
      model.add_general(m.system(), r, mission_s);
    } catch (const std::exception&) {
      ++model.missions;  // the library call threw too: not clean
    }
  };
  set.replay_hint = [](const GeneralMissionReport&) {
    return std::string("star-64, 200 s");
  };
  run_untraced(args, set, out);
  model.emit(out);
  return out;
}

RunResult trace_general_star(const Args& args) {
  const GeneralCampaignConfig config = general_star_config();
  RunResult out;
  SpanLog log;
  TraceTimes times;
  std::uint64_t events = 0, stable_ckpts = 0, view_entries = 0,
                sw_recoveries = 0;
  traced_loop<TracedGeneral>(
      args, mission_seeds(args.seed, kTracedMissions),
      [&](std::uint64_t seed) { return run_general_mission(config, seed); },
      [&](std::uint64_t seed, std::uint32_t id) {
        return trace_general_mission(config, seed, kSlice, log, id);
      },
      [&](const TracedGeneral& t) {
        events += t.report.events;
        stable_ckpts += t.report.stable_ckpts;
        view_entries += t.view_entries;
        sw_recoveries += t.report.sw_recoveries;
      },
      "run_general_mission", times, out);

  const double n = kTracedMissions;
  const SpanLog::Total slices = log.total("sim.slice");
  const double line_us = median_span_us(log, "analysis.line_state");
  const double check_us = median_span_us(log, "analysis.check_all");
  out.add("core.setup_ms", median_span_us(log, "core.setup") / 1e3, "ms");
  out.add("sim.events_per_mission", static_cast<double>(events) / n, "count");
  out.add("sim.ns_per_event", slices.ns / slices.work, "ns");
  out.add("mdcd.view_entries", static_cast<double>(view_entries) / n,
          "count");
  out.add("mdcd.views_serialize_us",
          median_span_us(log, "mdcd.views_serialize"), "us");
  out.add("mdcd.sw_recoveries_per_mission",
          static_cast<double>(sw_recoveries) / n, "count");
  out.add("analysis.line_state_us", line_us, "us");
  out.add("analysis.check_all_us", check_us, "us");
  // One end-of-mission audit; the general engine has no monitor sweeps.
  out.add("analysis.audits_per_mission", 1.0, "count");
  out.add("analysis.audit_share",
          (line_us + check_us) / (times.first_pass_ms / n * 1e3), "ratio");
  out.add("general.events_per_mission", static_cast<double>(events) / n,
          "count");
  out.add("general.stable_ckpts_per_mission",
          static_cast<double>(stable_ckpts) / n, "count");
  out.add("general.ns_per_event", slices.ns / slices.work, "ns");
  out.add("general.audit_ms", median_span_us(log, "general.audit") / 1e3,
          "ms");
  times.emit(out);
  write_spans(args, log, out);
  return out;
}

}  // namespace perfbench
