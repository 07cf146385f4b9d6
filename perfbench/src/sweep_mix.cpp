// sweep-mix: run_sweep grids of schemes {coordinated, write_through,
// mdcd_only, mdcd+tmr} x fault scales {0, 2}, 40 missions of 60 s per
// cell, missions fanned over 2 pool workers, closed loop. The mission set
// is four such sweeps (sweep seeds drawn from --seed): one sweep sees only
// about 200 hardware recoveries, too few for a steady rollback mean.
//
// Short missions keep view logs and audits small, so per-event dispatch
// (sim, net, inject, tb) and the executor (core pool, sweep fold)
// dominate. The three schemes use stable storage three ways: write_through
// writes at every validation, TB writes periodically, mdcd_only never
// writes; the tmr cells run the redundant voter on every send.
//
// missions_per_s is timed on run_sweep itself. run_sweep does not expose
// per-mission times, so mission_ms_p50 and _tail come from a second run of
// the same missions: run_mission per mission over a 2-worker ThreadPool,
// cell after cell. Folding those reports through CellStats::fold must give
// run_sweep's fragment byte for byte, which shows they are the same
// missions.
#include <string>

#include "core/pool.hpp"
#include "missions.hpp"
#include "sweep/fragment.hpp"
#include "sweep/grid.hpp"
#include "sweep/runner.hpp"

namespace perfbench {

using namespace synergy;
using namespace synergy::sweep;

namespace {

constexpr std::size_t kSweeps = 4;
constexpr std::size_t kReps = 40;
constexpr std::size_t kJobs = 2;
constexpr Duration kSlice = Duration::seconds(15);

SweepConfig sweep_mix_config(std::uint64_t seed) {
  SweepConfig config;
  config.seed = seed;
  config.reps = kReps;
  config.mission = Duration::seconds(60);
  config.axes.schemes = {Scheme::kCoordinated, Scheme::kWriteThrough,
                         Scheme::kMdcdOnly, Scheme::kMdcdTmr};
  config.axes.fault_scales = {0.0, 2.0};
  config.jobs = kJobs;
  return config;
}

/// One sweep's grid, flattened to its missions in cell-then-mission order.
struct Plan {
  SweepConfig config;
  std::vector<SweepCell> cells;
  std::vector<CampaignConfig> cell_configs;
  std::vector<std::vector<std::uint64_t>> seeds;  ///< per cell

  explicit Plan(std::uint64_t seed) : config(sweep_mix_config(seed)) {
    cells = build_grid(config);
    for (const SweepCell& cell : cells) {
      cell_configs.push_back(cell_campaign_config(config, cell));
      seeds.push_back(mission_seeds(cell.seed, config.reps));
    }
  }
  std::size_t missions() const { return cells.size() * config.reps; }
};

std::string cell_name(const SweepCell& cell) {
  std::string scheme = to_string(cell.scheme);
  for (char& c : scheme) {
    if (c == '+') c = '-';
  }
  return "sweep.cell_mission_ms." + scheme + "-fs" +
         std::to_string(static_cast<int>(cell.fault_scale));
}

MissionReport guarded_run_mission(const CampaignConfig& config,
                                  std::uint64_t seed) {
  try {
    return run_mission(config, seed);
  } catch (const std::exception& e) {
    MissionReport r;
    r.seed = seed;
    r.ok = false;
    r.failures.push_back(std::string("threw: ") + e.what());
    return r;
  }
}

/// run_mission over every mission of one sweep, each cell's missions
/// fanned over a 2-worker pool, with each mission's host time.
struct Pass {
  std::vector<MissionReport> reports;  ///< flat mission order
  std::vector<double> ms, cpu_s;       ///< per mission
  double wall_s = 0;
  /// Reference-kernel times taken on the pool's workers after the pass.
  std::vector<double> worker_reference_ms;
};

Pass run_pass(const Plan& plan) {
  Pass pass;
  const std::size_t reps = plan.config.reps;
  pass.reports.resize(plan.missions());
  pass.ms.resize(plan.missions());
  pass.cpu_s.resize(plan.missions());
  const auto wall0 = Clock::now();
  ThreadPool pool(kJobs);
  for (std::size_t c = 0; c < plan.cells.size(); ++c) {
    pool.run_indexed(reps, [&](std::size_t j) {
      const std::size_t k = c * reps + j;
      const double cpu0 = thread_cpu_seconds();
      const auto t0 = Clock::now();
      pass.reports[k] = guarded_run_mission(plan.cell_configs[c],
                                            plan.seeds[c][j]);
      pass.ms[k] = ms_since(t0);
      pass.cpu_s[k] = thread_cpu_seconds() - cpu0;
    });
  }
  pass.wall_s = seconds_since(wall0);
  pass.worker_reference_ms.resize(kJobs * 3);
  pool.run_indexed(pass.worker_reference_ms.size(), [&](std::size_t i) {
    pass.worker_reference_ms[i] = reference_kernel_ms();
  });
  return pass;
}

/// A sweep's missions folded through CellStats::fold, serialized as
/// run_sweep's fragment is. `fold(c, j, report)` folds one mission.
template <class Fold>
std::string fragment_of(const Plan& plan, Fold fold) {
  ShardResult shard;
  shard.config = plan.config;
  shard.cells_total = plan.cells.size();
  for (std::size_t c = 0; c < plan.cells.size(); ++c) {
    CellStats stats(plan.cells[c]);
    for (std::size_t j = 0; j < plan.config.reps; ++j) fold(c, j, stats);
    shard.missions_run += stats.tallies.missions;
    shard.cells.push_back(std::move(stats));
  }
  return to_json(shard);
}

std::string fragment_of(const Plan& plan,
                        const std::vector<MissionReport>& reports) {
  return fragment_of(plan, [&](std::size_t c, std::size_t j,
                               CellStats& stats) {
    stats.fold(j, reports[c * plan.config.reps + j]);
  });
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

}  // namespace

RunResult run_sweep_mix(const Args& args) {
  std::vector<Plan> plans;
  for (std::uint64_t seed : mission_seeds(args.seed, kSweeps)) {
    plans.emplace_back(seed);
  }
  const std::size_t per_sweep = plans.front().missions();
  const std::size_t n = kSweeps * per_sweep;
  announce_missions(n);
  RunResult out;

  // One set-up sample: every mission of the set at zero length.
  HostSamples host([&] {
    const auto t0 = Clock::now();
    for (const Plan& plan : plans) {
      for (std::size_t c = 0; c < plan.cells.size(); ++c) {
        const CampaignConfig zero = zero_length(plan.cell_configs[c]);
        for (std::uint64_t seed : plan.seeds[c]) run_mission(zero, seed);
      }
    }
    return seconds_since(t0);
  });

  std::vector<std::vector<double>> ms(n);
  std::vector<double> round_wall;    ///< run_sweep time of each round
  std::vector<std::string> fragments;  ///< run_sweep's, first round
  std::vector<Pass> first;
  const auto start = Clock::now();
  double untimed_s = 0;
  do {
    double wall = 0;
    for (std::size_t w = 0; w < kSweeps; ++w) {
      const auto t0 = Clock::now();
      const ShardResult shard = run_sweep(plans[w].config, nullptr);
      wall += seconds_since(t0);
      Pass pass = run_pass(plans[w]);
      const auto t1 = Clock::now();
      host.sample();
      host.add_mission_references(pass.worker_reference_ms);
      for (std::size_t k = 0; k < per_sweep; ++k) {
        ms[w * per_sweep + k].push_back(pass.ms[k]);
      }
      if (first.size() < kSweeps) {
        fragments.push_back(to_json(shard));
        if (fragment_of(plans[w], pass.reports) != fragments.back()) {
          out.fail_check("run_mission reports do not fold to run_sweep's "
                         "fragment");
        }
        first.push_back(std::move(pass));
      } else if (to_json(shard) != fragments[w] ||
                 pass.reports != first[w].reports) {
        out.fail_check("sweep round did not repeat its results");
      }
      untimed_s += seconds_since(t1);
    }
    round_wall.push_back(wall);
  } while (seconds_since(start) - untimed_s < args.seconds);

  const Latency lat = latency_of(ms);
  host.add_times(out, "sweep-mix",
                 static_cast<double>(n) / median(round_wall), lat,
                 round_wall.size());
  out.add("peak_rss_mb", peak_rss_mb(), "MB");

  ModelTotals model;
  for (const Pass& pass : first) {
    for (const MissionReport& r : pass.reports) {
      model.add_chaos(r, plans.front().config.mission.to_seconds());
      count_unclean<MissionReport>(r, out, {});
    }
  }
  model.emit(out);
  out.attempted = n;
  return out;
}

RunResult trace_sweep_mix(const Args& args) {
  // The traced run takes the first sweep of the set.
  const Plan plan(mission_seeds(args.seed, 1).front());
  const std::size_t reps = plan.config.reps;
  const std::size_t n = plan.missions();
  announce_missions(n);
  RunResult out;
  SpanLog log;
  ChaosLayers layers;
  TraceTimes times;
  std::vector<std::vector<double>> cell_ms(plan.cells.size());
  std::string reference;  ///< run_sweep's fragment

  const auto start = Clock::now();
  for (std::size_t p = 0; p == 0 || seconds_since(start) < args.seconds;
       ++p) {
    const Pass plain = run_pass(plan);
    times.untraced_cpu += sum(plain.cpu_s);
    times.untraced_wall += plain.wall_s;
    for (std::size_t k = 0; k < n; ++k) {
      cell_ms[k / reps].push_back(plain.ms[k]);
    }
    if (p == 0) {
      times.first_pass_ms = sum(plain.ms);
      reference = to_json(run_sweep(plan.config, nullptr));
      if (fragment_of(plan, plain.reports) != reference) {
        out.fail_check("run_mission reports do not fold to run_sweep's "
                       "fragment");
      }
    }

    const std::string traced = fragment_of(plan, [&](std::size_t c,
                                                     std::size_t j,
                                                     CellStats& stats) {
      const std::size_t k = c * reps + j;
      const auto id = static_cast<std::uint32_t>(p * n + k);
      const double cpu0 = thread_cpu_seconds();
      const TracedChaos t = trace_chaos_mission(
          plan.cell_configs[c], plan.seeds[c][j], kSlice, log, id);
      times.traced_cpu += thread_cpu_seconds() - cpu0;
      if (t.report != plain.reports[k]) {
        out.fail_check("traced mission seed=" +
                       std::to_string(plan.seeds[c][j]) +
                       " differs from run_mission");
      }
      {
        Scope s(log, "sweep.fold", id, -1);
        stats.fold(j, t.report);
      }
      if (p == 0) {
        layers.add(t, plan.config.mission.to_seconds());
        if (!t.report.ok) ++out.failed;
      }
    });
    if (traced != reference) {
      out.fail_check("traced fragment differs from run_sweep's");
    }
  }

  layers.emit(out, log, times.first_pass_ms / static_cast<double>(n));
  times.emit(out);
  out.add("sweep.fold_us", median_span_us(log, "sweep.fold"), "us");
  for (std::size_t c = 0; c < plan.cells.size(); ++c) {
    out.add(cell_name(plan.cells[c]), median(cell_ms[c]), "ms");
  }
  out.attempted = n;
  write_spans(args, log, out);
  return out;
}

}  // namespace perfbench
