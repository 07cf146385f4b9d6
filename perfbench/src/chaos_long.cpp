// chaos-long: the three-process coordinated scheme under the default
// injector rates, 1200 s missions, one thread, closed loop.
//
// Long missions are where the recovery-line audits of the monitor and the
// oracle (coord, analysis) and view-log checkpoint encoding (mdcd,
// storage) dominate, and where any cost that grows faster than mission
// length shows.
#include <string>

#include "missions.hpp"

namespace perfbench {

using namespace synergy;

namespace {

constexpr std::size_t kMissions = 40;        // the untraced set
constexpr std::size_t kTracedMissions = 16;  // its prefix the traced run uses
constexpr Duration kSlice = Duration::seconds(60);

CampaignConfig chaos_long_config() {
  CampaignConfig config;
  config.mission = Duration::seconds(1200);
  config.scheme = Scheme::kCoordinated;
  config.jobs = 1;
  return config;
}

/// One set-up sample: run_mission over the set with zero-length missions.
double setup_once(const CampaignConfig& zero,
                  const std::vector<std::uint64_t>& seeds) {
  const auto t0 = Clock::now();
  for (std::uint64_t seed : seeds) run_mission(zero, seed);
  return seconds_since(t0);
}

}  // namespace

RunResult run_chaos_long(const Args& args) {
  const CampaignConfig config = chaos_long_config();
  const CampaignConfig zero = zero_length(config);
  RunResult out;
  MissionSet<MissionReport> set{"chaos-long",
                                mission_seeds(args.seed, kMissions)};
  set.run = [&](std::uint64_t seed) { return run_mission(config, seed); };
  set.setup = [&] { return setup_once(zero, set.seeds); };
  set.replay_hint = [](const MissionReport& r) {
    return "synergy chaos --replay " + std::to_string(r.seed) +
           " --duration 1200";
  };
  ModelTotals model;
  for (const MissionReport& r : run_untraced(args, set, out)) {
    model.add_chaos(r, config.mission.to_seconds());
  }
  model.emit(out);
  return out;
}

RunResult trace_chaos_long(const Args& args) {
  const CampaignConfig config = chaos_long_config();
  RunResult out;
  SpanLog log;
  ChaosLayers layers;
  TraceTimes times;
  traced_loop<TracedChaos>(
      args, mission_seeds(args.seed, kTracedMissions),
      [&](std::uint64_t seed) { return run_mission(config, seed); },
      [&](std::uint64_t seed, std::uint32_t id) {
        return trace_chaos_mission(config, seed, kSlice, log, id);
      },
      [&](const TracedChaos& t) {
        layers.add(t, config.mission.to_seconds());
      },
      "run_mission", times, out);
  layers.emit(out, log, times.first_pass_ms / kTracedMissions);
  times.emit(out);
  write_spans(args, log, out);
  return out;
}

}  // namespace perfbench
