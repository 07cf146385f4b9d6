// synergy — command-line driver for the simulator.
//
//   synergy run      [options]  run one mission and report what happened
//   synergy sweep    [options]  sharded Monte-Carlo parameter sweep (JSON)
//   synergy rollback [options]  Figure-7 rollback-distance sweep (CSV)
//   synergy model    [options]  evaluate the closed-form rollback model
//   synergy chaos    [options]  seeded fault-injection campaign
//   synergy general  [options]  generalized N-component topology campaign
//
// Run `synergy help` for the full option list. Examples:
//
//   synergy run --scheme coordinated --duration 3600 --hw-fault 1800:2
//   synergy run --sw-error 900 --timeline
//   synergy run --scheme naive --seed 7 --check --trace-csv trace.csv
//   synergy sweep --schemes coordinated,mdcd_only --fault-scales 1,2,4
//       --reps 100 --duration 60 --jobs 0 --out sweep.json   (one line)
//   synergy sweep ... --shard 2/3 --out frag2.json
//   synergy sweep --merge frag1.json frag2.json frag3.json --out full.json
//   synergy rollback --rates 60,100,140,200 --reps 40 > fig7.csv
//   synergy chaos --reps 50 --seed 1
//   synergy chaos --replay 13665873534402006364
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/checkers.hpp"
#include "analysis/model.hpp"
#include "bench/bench_common.hpp"
#include "core/campaign.hpp"
#include "core/experiment.hpp"
#include "core/pool.hpp"
#include "core/system.hpp"
#include "general/campaign.hpp"
#include "sweep/fragment.hpp"
#include "sweep/runner.hpp"
#include "trace/export.hpp"
#include "trace/timeline.hpp"

using namespace synergy;

namespace {

[[noreturn]] void usage(int code) {
  std::printf(R"(synergy — MDCD + TB fault-tolerance simulator

USAGE
  synergy run      [options]  run one mission
  synergy sweep    [options]  sharded Monte-Carlo parameter sweep (JSON)
  synergy rollback [options]  rollback-distance sweep, CSV on stdout
  synergy model    [options]  closed-form rollback model
  synergy chaos    [options]  seeded fault-injection campaign
  synergy general  [options]  generalized N-component topology campaign
  synergy help

RUN OPTIONS
  --scheme S          mdcd_only | write_through | naive | coordinated |
                      mdcd+dwc | mdcd+tmr | mdcd+tb+tmr
                      ("mdcd+tb" is an alias for coordinated; default
                      coordinated)
  --seed N            RNG seed (default 1)
  --duration SECS     mission length (default 3600)
  --internal-rate R   component internal msgs/s (default 2.0)
  --external-rate R   external (validated) msgs/s (default 0.1)
  --interval SECS     TB checkpoint interval Delta (default 60)
  --sw-fault-prob P   design-fault activation per send (default 0)
  --hw-fault T:NODE   crash NODE at T seconds (repeatable)
  --sw-error T        corrupt P1act at T seconds and force an AT
  --gate MODE         paper | blocking_aware (default blocking_aware)
  --tracking MODE     paper_dirty_bit | watermark (default watermark)
  --check             audit the final stable recovery line
  --timeline          print the ASCII event timeline
  --trace-csv FILE    dump the trace as CSV
  --trace-jsonl FILE  dump the trace as JSON Lines

SWEEP OPTIONS (run mode)
  Crosses scheme x fault-scale x AT-coverage x checkpoint-interval into a
  deterministic cell grid; each cell runs --reps chaos missions through
  the work-stealing executor and is aggregated with streaming statistics
  (memory stays O(cells) however many missions run). Output is a
  `synergy-sweep-v1` JSON document on stdout (or --out).
  --seed N            sweep seed; cell and mission seeds derive from it
                      (default 1)
  --reps N            missions per cell (default 100)
  --duration SECS     mission length (default 60)
  --schemes A,B,...   scheme axis (default coordinated)
  --fault-scales A,.. multiplier on every chaos injector rate; 0 = fault
                      free (default 1)
  --coverages A,B,... AT coverage axis (default 1)
  --intervals A,B,... TB checkpoint interval axis, seconds (default 10)
  --workload W        registers | abft (default registers)
  --lane-gap SECS     arm per-lane bit-flips at this mean gap (default off)
  --sig-gap SECS      arm CFCSS signature faults at this mean gap
  --mobile            arm the mobile disconnect/handoff family
  --jobs N            per-cell mission fan-out; 0 = all hardware threads
                      (default 1); never affects the output bytes
  --shard I/N         run only the cells the seed-stable hash assigns to
                      shard I of N (default 1/1); emit a mergeable fragment
  --out FILE          write the JSON here instead of stdout
  --csv FILE          also write a plot-ready per-cell CSV
  --bench-json FILE   write shard throughput (cells/s) as synergy-bench-v1
                      JSON (the BENCH_sweep.json regression baseline)
  --quiet             suppress per-cell progress lines on stderr

SWEEP OPTIONS (merge mode)
  --merge F1 F2 ...   combine shard fragments; the merged document is
                      byte-identical to the single-process full-grid run.
                      Headers must agree and every cell must appear
                      exactly once (missing cells are listed so the lost
                      shard can be re-run). --out/--csv as above.

ROLLBACK OPTIONS
  --scheme, --seed, --interval as above (scheme measured against
  write_through automatically when omitted)
  --rates A,B,...     internal message rates per 100000 s (default
                      60,80,...,200)
  --reps N            replications per point (default 30)

MODEL OPTIONS
  --lambda-dirty R    contamination rate [1/s]
  --lambda-valid R    validation rate [1/s]
  --interval SECS     Delta

CHAOS OPTIONS
  --reps N            missions to run (default 50)
  --seed N            campaign seed; mission seeds derive from it (default 1)
  --duration SECS     mission length (default 600)
  --scheme S          as for run (default coordinated)
  --jobs N            worker threads for the mission fan-out; 0 = all
                      hardware threads (default 1). Reports and per-mission
                      output are bit-identical for every value.
  --json FILE         write campaign throughput as synergy-bench-v1 JSON
                      (the BENCH_campaign.json regression baseline)
  --replay SEED       re-run exactly one mission with this mission seed
                      (printed by a failing campaign) and dump its report
  --drop P            network drop probability        (default 0.01)
  --dup P             network duplicate probability   (default 0.01)
  --reorder P         network reorder probability     (default 0.02)
  --delay P           beyond-tmax delay probability   (default 0.002)
  --bitflip P         payload bit-flip probability    (default 0.005)
  --write-error P     storage write-error probability (default 0.05)
  --torn P            storage torn-write probability  (default 0.02)
  --latent P          latent corruption probability   (default 0.01)
  --hw-gap SECS       mean gap between node crashes, 0=off (default 150)
  --drift-gap SECS    mean gap between drift excursions, 0=off (default 200)
  --blackout-gap SECS mean gap between resync blackouts, 0=off (default 250)
  --lane-gap SECS     mean gap between per-lane state bit-flips, 0=off
                      (default 0; COAST register/memory injection model)
  --sig-gap SECS      mean gap between per-lane CFCSS signature faults,
                      0=off (default 0)
  --workload W        registers | abft (default registers). abft runs the
                      checksum-encoded matrix-block workload: AT verdicts
                      are computed from the block state, and the campaign
                      reports assumed-vs-computed coverage
  --disconnect-gap S  mean gap between disconnection epochs, 0=off
                      (default 0; arms the mobile mission family)
  --disconnect-len S  mean disconnection epoch length (default 15)
  --disconnect-loss P stationary burst-loss fraction of a degraded epoch
                      (default 0.9)
  --disconnect-full P probability an epoch is a full blackout (default 0.5)
  --handoff-gap SECS  mean gap between base-station handoffs, 0=off
                      (default 0)
  --verbose           one summary line per mission
  A failing mission prints its seed and full schedule JSON; re-running
  with --replay SEED reproduces it exactly.

GENERAL OPTIONS
  --topology T        star | chain (default star)
  --size N            star: leaf count; chain: length (default 64)
  --reps N            missions to run (default 8)
  --seed N            campaign seed; mission seeds derive from it (default 1)
  --duration SECS     mission length (default 60)
  --internal-rate R   per-component internal msgs/s (default 2.0)
  --external-rate R   per-component external msgs/s (default 0.3)
  --interval SECS     TB checkpoint interval (default 10)
  --no-hw             skip the seeded per-mission node crash
  --no-sw             skip the seeded per-mission design-fault activation
  --jobs N            worker threads; 0 = all hardware threads (default 1).
                      Reports and per-mission output are bit-identical for
                      every value.
  --json FILE         write campaign throughput as synergy-bench-v1 JSON
  --verbose           one summary line per mission
  Every mission ends with a recovery-line audit (consistency +
  recoverability); any violation fails the mission and the campaign.
)");
  std::exit(code);
}

const char* arg_value(int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "missing value for %s\n", argv[i]);
    usage(2);
  }
  return argv[++i];
}

Scheme parse_scheme(const std::string& s) {
  if (const auto scheme = scheme_from_string(s)) return *scheme;
  std::fprintf(stderr, "unknown scheme: %s\n", s.c_str());
  usage(2);
}

WorkloadKind parse_workload(const std::string& s) {
  if (const auto kind = workload_kind_from_string(s)) return *kind;
  std::fprintf(stderr, "unknown workload: %s (expected registers | abft)\n",
               s.c_str());
  usage(2);
}

/// Parse `value` as a probability; reject anything outside [0, 1] with a
/// clear error naming the flag.
double parse_probability(const char* flag, const char* value) {
  char* end = nullptr;
  const double p = std::strtod(value, &end);
  if (end == value || *end != '\0' || !(p >= 0.0 && p <= 1.0)) {
    std::fprintf(stderr, "%s expects a probability in [0, 1], got \"%s\"\n",
                 flag, value);
    usage(2);
  }
  return p;
}

/// Parse `value` as a non-negative duration in seconds.
Duration parse_seconds(const char* flag, const char* value) {
  char* end = nullptr;
  const double secs = std::strtod(value, &end);
  if (end == value || *end != '\0' || !(secs >= 0.0)) {
    std::fprintf(stderr,
                 "%s expects a non-negative duration in seconds, got \"%s\"\n",
                 flag, value);
    usage(2);
  }
  return Duration::from_seconds(secs);
}

struct FaultSpec {
  double at = 0;
  std::uint32_t node = 0;
};

int cmd_run(int argc, char** argv) {
  SystemConfig config;
  double duration = 3600;
  std::vector<FaultSpec> hw_faults;
  double sw_error_at = -1;
  bool check = false, timeline = false;
  std::string trace_csv, trace_jsonl;

  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--scheme") config.scheme = parse_scheme(arg_value(argc, argv, i));
    else if (a == "--seed") config.seed = std::strtoull(arg_value(argc, argv, i), nullptr, 10);
    else if (a == "--duration") duration = std::atof(arg_value(argc, argv, i));
    else if (a == "--internal-rate") {
      const double r = std::atof(arg_value(argc, argv, i));
      config.workload.p1_internal_rate = r;
      config.workload.p2_internal_rate = r;
    } else if (a == "--external-rate") {
      const double r = std::atof(arg_value(argc, argv, i));
      config.workload.p1_external_rate = r;
      config.workload.p2_external_rate = r;
    } else if (a == "--interval") {
      config.tb.interval = Duration::from_seconds(std::atof(arg_value(argc, argv, i)));
    } else if (a == "--sw-fault-prob") {
      config.sw_fault.activation_per_send = std::atof(arg_value(argc, argv, i));
    } else if (a == "--hw-fault") {
      const std::string spec = arg_value(argc, argv, i);
      const auto colon = spec.find(':');
      if (colon == std::string::npos) usage(2);
      hw_faults.push_back(FaultSpec{
          std::atof(spec.substr(0, colon).c_str()),
          static_cast<std::uint32_t>(std::atoi(spec.substr(colon + 1).c_str()))});
    } else if (a == "--sw-error") {
      sw_error_at = std::atof(arg_value(argc, argv, i));
    } else if (a == "--gate") {
      const std::string m = arg_value(argc, argv, i);
      config.gate_mode = m == "paper" ? NdcGateMode::kPaper
                                      : NdcGateMode::kBlockingAware;
    } else if (a == "--tracking") {
      const std::string m = arg_value(argc, argv, i);
      config.tracking = m == "paper_dirty_bit"
                            ? ContaminationTracking::kPaperDirtyBit
                            : ContaminationTracking::kWatermark;
    } else if (a == "--check") check = true;
    else if (a == "--timeline") timeline = true;
    else if (a == "--trace-csv") trace_csv = arg_value(argc, argv, i);
    else if (a == "--trace-jsonl") trace_jsonl = arg_value(argc, argv, i);
    else {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      usage(2);
    }
  }

  System system(config);
  system.start(TimePoint::origin() + Duration::from_seconds(duration));
  for (const auto& f : hw_faults) {
    system.schedule_hw_fault(TimePoint::origin() + Duration::from_seconds(f.at),
                             NodeId{f.node});
  }
  if (sw_error_at >= 0) {
    system.schedule_sw_error(TimePoint::origin() +
                             Duration::from_seconds(sw_error_at));
  }
  system.run();

  std::printf("scheme=%s seed=%llu duration=%.0fs\n",
              to_string(config.scheme),
              static_cast<unsigned long long>(config.seed), duration);
  std::printf("device outputs=%zu  AT failures=%llu\n",
              system.device().entries.size(),
              static_cast<unsigned long long>(system.at_failures_observed()));
  if (const auto& r = system.sw_recovery()) {
    std::printf("software recovery: detector=%s p1sdw=%s p2=%s replayed=%zu\n",
                to_string(r->detector).c_str(),
                r->p1sdw_rolled_back ? "rollback" : "roll-forward",
                r->p2_rolled_back ? "rollback" : "roll-forward",
                r->replayed_messages);
  }
  for (const auto& rec : system.hw_recoveries()) {
    std::printf("hardware recovery: node=%u fault_t=%.1fs rollback=",
                rec.faulty_node.value(), rec.fault_time.to_seconds());
    for (std::size_t i = 0; i < rec.rollback_distance.size(); ++i) {
      std::printf("%s%.1fs", i ? "/" : "",
                  rec.rollback_distance[i].to_seconds());
    }
    std::printf(" resent=%zu\n", rec.resent_messages);
  }

  if (check && config.scheme != Scheme::kMdcdOnly) {
    const GlobalState line = system.stable_line_state();
    const auto c = check_consistency(line);
    const auto r = check_recoverability(line);
    const auto s = check_software_recoverability(line);
    std::printf("stable-line audit: consistency=%zu recoverability=%zu "
                "sw-recoverability=%zu violations\n",
                c.size(), r.size(), s.size());
    for (const auto& v : c) std::printf("  C %s\n", v.describe().c_str());
    for (const auto& v : r) std::printf("  R %s\n", v.describe().c_str());
    for (const auto& v : s) std::printf("  S %s\n", v.describe().c_str());
  }
  if (timeline) {
    std::printf("%s", render_timeline(system.trace(),
                                      {kP1Act, kP1Sdw, kP2})
                          .c_str());
  }
  if (!trace_csv.empty()) {
    std::ofstream out(trace_csv);
    write_trace_csv(system.trace(), out);
    std::printf("trace written to %s (%zu events)\n", trace_csv.c_str(),
                system.trace().events().size());
  }
  if (!trace_jsonl.empty()) {
    std::ofstream out(trace_jsonl);
    write_trace_jsonl(system.trace(), out);
  }
  return 0;
}

int cmd_rollback(int argc, char** argv) {
  std::vector<double> rates = {60, 80, 100, 120, 140, 160, 180, 200};
  std::size_t reps = 30;
  std::uint64_t seed = 42;
  Duration interval = Duration::seconds(60);

  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--rates") {
      rates.clear();
      std::string list = arg_value(argc, argv, i);
      for (std::size_t pos = 0; pos < list.size();) {
        const auto comma = list.find(',', pos);
        rates.push_back(std::atof(list.substr(pos, comma - pos).c_str()));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (a == "--reps") {
      reps = std::strtoull(arg_value(argc, argv, i), nullptr, 10);
    } else if (a == "--seed") {
      seed = std::strtoull(arg_value(argc, argv, i), nullptr, 10);
    } else if (a == "--interval") {
      interval = Duration::from_seconds(std::atof(arg_value(argc, argv, i)));
    } else {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      usage(2);
    }
  }

  std::printf("rate,scheme,mean_rollback_s,ci95_s,faults\n");
  for (double rate : rates) {
    for (Scheme scheme : {Scheme::kCoordinated, Scheme::kWriteThrough}) {
      RollbackExperimentConfig config;
      config.base.scheme = scheme;
      config.base.record_history = false;
      config.base.workload.p1_internal_rate = rate / 100'000.0;
      config.base.workload.p2_internal_rate = rate / 100'000.0;
      config.base.workload.p1_external_rate = 0.0;
      config.base.workload.p2_external_rate = 0.05;
      config.base.workload.step_rate = 0.0;
      config.base.tb.interval = interval;
      config.horizon = Duration::seconds(100'000);
      config.fault_earliest = Duration::seconds(20'000);
      config.fault_latest = Duration::seconds(90'000);
      config.replications = reps;
      config.seed0 = seed + static_cast<std::uint64_t>(rate);
      const auto result = measure_rollback(config);
      std::printf("%g,%s,%.2f,%.2f,%llu\n", rate, to_string(scheme),
                  result.overall.mean(), result.overall.ci95_halfwidth(),
                  static_cast<unsigned long long>(result.faults));
    }
  }
  return 0;
}

/// Comma-separated list of doubles; rejects empty items and junk.
std::vector<double> parse_double_list(const char* flag, const char* value) {
  std::vector<double> out;
  const std::string list = value;
  for (std::size_t pos = 0; pos <= list.size();) {
    const auto comma = list.find(',', pos);
    const std::string item =
        list.substr(pos, comma == std::string::npos ? comma : comma - pos);
    char* end = nullptr;
    const double v = std::strtod(item.c_str(), &end);
    if (item.empty() || end == item.c_str() || *end != '\0') {
      std::fprintf(stderr, "%s expects a comma-separated number list, got "
                   "\"%s\"\n", flag, value);
      usage(2);
    }
    out.push_back(v);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (out.empty()) {
    std::fprintf(stderr, "%s expects at least one value\n", flag);
    usage(2);
  }
  return out;
}

std::vector<Scheme> parse_scheme_list(const char* flag, const char* value) {
  std::vector<Scheme> out;
  const std::string list = value;
  for (std::size_t pos = 0; pos <= list.size();) {
    const auto comma = list.find(',', pos);
    const std::string item =
        list.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (const auto s = scheme_from_string(item)) {
      out.push_back(*s);
    } else {
      std::fprintf(stderr, "%s: unknown scheme \"%s\"\n", flag, item.c_str());
      usage(2);
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (out.empty()) {
    std::fprintf(stderr, "%s expects at least one scheme\n", flag);
    usage(2);
  }
  return out;
}

/// `I/N` with 1 <= I <= N.
void parse_shard(const char* value, std::uint32_t& index,
                 std::uint32_t& count) {
  unsigned long long i = 0, n = 0;
  char* end = nullptr;
  i = std::strtoull(value, &end, 10);
  if (end == value || *end != '/') {
    std::fprintf(stderr, "--shard expects I/N (e.g. 2/3), got \"%s\"\n", value);
    usage(2);
  }
  const char* rest = end + 1;
  n = std::strtoull(rest, &end, 10);
  if (end == rest || *end != '\0' || i < 1 || n < 1 || i > n) {
    std::fprintf(stderr, "--shard expects I/N with 1 <= I <= N, got \"%s\"\n",
                 value);
    usage(2);
  }
  index = static_cast<std::uint32_t>(i - 1);
  count = static_cast<std::uint32_t>(n);
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << text;
  return static_cast<bool>(out.flush());
}

int cmd_sweep(int argc, char** argv) {
  sweep::SweepConfig config;
  bool merge_mode = false;
  bool quiet = false;
  std::vector<std::string> fragment_paths;
  std::string out_path, csv_path, bench_path;

  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--merge") merge_mode = true;
    else if (a == "--seed") config.seed = std::strtoull(arg_value(argc, argv, i), nullptr, 10);
    else if (a == "--reps") config.reps = std::strtoull(arg_value(argc, argv, i), nullptr, 10);
    else if (a == "--duration") config.mission = parse_seconds("--duration", arg_value(argc, argv, i));
    else if (a == "--schemes") config.axes.schemes = parse_scheme_list("--schemes", arg_value(argc, argv, i));
    else if (a == "--fault-scales") config.axes.fault_scales = parse_double_list("--fault-scales", arg_value(argc, argv, i));
    else if (a == "--coverages") config.axes.coverages = parse_double_list("--coverages", arg_value(argc, argv, i));
    else if (a == "--intervals") config.axes.intervals_s = parse_double_list("--intervals", arg_value(argc, argv, i));
    else if (a == "--workload") config.workload = parse_workload(arg_value(argc, argv, i));
    else if (a == "--lane-gap") config.lane_flip_gap = parse_seconds("--lane-gap", arg_value(argc, argv, i));
    else if (a == "--sig-gap") config.sig_fault_gap = parse_seconds("--sig-gap", arg_value(argc, argv, i));
    else if (a == "--mobile") config.mobile = true;
    else if (a == "--jobs") config.jobs = std::strtoull(arg_value(argc, argv, i), nullptr, 10);
    else if (a == "--shard") parse_shard(arg_value(argc, argv, i), config.shard_index, config.shard_count);
    else if (a == "--out") out_path = arg_value(argc, argv, i);
    else if (a == "--csv") csv_path = arg_value(argc, argv, i);
    else if (a == "--bench-json") bench_path = arg_value(argc, argv, i);
    else if (a == "--quiet") quiet = true;
    else if (merge_mode && !a.empty() && a[0] != '-') fragment_paths.push_back(a);
    else {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      usage(2);
    }
  }
  if (merge_mode && fragment_paths.empty()) {
    std::fprintf(stderr, "--merge expects fragment paths\n");
    usage(2);
  }
  if (config.reps == 0) {
    std::fprintf(stderr, "--reps must be at least 1\n");
    usage(2);
  }

  try {
    sweep::ShardResult result;
    if (merge_mode) {
      std::vector<sweep::ShardResult> fragments;
      fragments.reserve(fragment_paths.size());
      for (const std::string& path : fragment_paths) {
        std::ifstream in(path, std::ios::binary);
        if (!in) {
          std::fprintf(stderr, "cannot read %s\n", path.c_str());
          return 1;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        try {
          fragments.push_back(sweep::parse_fragment(buf.str()));
        } catch (const std::exception& e) {
          std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
          return 1;
        }
      }
      result = sweep::merge_fragments(fragments);
    } else {
      result = sweep::run_sweep(config, quiet ? nullptr : &std::cerr);
    }

    const std::string json = sweep::to_json(result);
    if (out_path.empty()) {
      std::fwrite(json.data(), 1, json.size(), stdout);
    } else if (!write_text_file(out_path, json)) {
      std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
      return 1;
    }
    if (!csv_path.empty() && !write_text_file(csv_path, sweep::to_csv(result))) {
      std::fprintf(stderr, "failed to write %s\n", csv_path.c_str());
      return 1;
    }
    if (!bench_path.empty()) {
      // Shard throughput for the perf-regression gate. Cells/s is the
      // stable unit (cells are fixed-size work packets of --reps
      // missions); missions/s rides along in the counters.
      bench::BenchJsonWriter writer;
      const std::size_t cells = result.cells.size();
      char name[160];
      std::snprintf(name, sizeof(name),
                    "sweep/cells=%zu/reps=%zu/duration=%gs", cells,
                    config.reps, config.mission.to_seconds());
      const double wall = std::max(result.wall_seconds, 1e-9);
      writer.add({name, static_cast<std::uint64_t>(cells),
                  wall * 1e9 / std::max<double>(1.0, static_cast<double>(cells)),
                  static_cast<double>(cells) / wall});
      writer.set_counter("missions_run", result.missions_run);
      writer.set_counter("cells_total", result.cells_total);
      if (!writer.write_file(bench_path)) {
        std::fprintf(stderr, "failed to write %s\n", bench_path.c_str());
        return 1;
      }
      std::fprintf(stderr, "bench json written to %s\n", bench_path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "synergy sweep: %s\n", e.what());
    return 1;
  }
  return 0;
}

int cmd_model(int argc, char** argv) {
  RollbackModelParams params;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--lambda-dirty") params.lambda_dirty = std::atof(arg_value(argc, argv, i));
    else if (a == "--lambda-valid") params.lambda_valid = std::atof(arg_value(argc, argv, i));
    else if (a == "--interval") params.interval = Duration::from_seconds(std::atof(arg_value(argc, argv, i)));
    else usage(2);
  }
  std::printf("lambda_dirty=%g /s  lambda_valid=%g /s  Delta=%g s\n",
              params.lambda_dirty, params.lambda_valid,
              params.interval.to_seconds());
  std::printf("dirty fraction q     = %.4f\n", dirty_fraction(params));
  std::printf("E[Dco] (coordinated) = %.2f s\n",
              expected_rollback_coordinated(params));
  std::printf("E[Dwt] (write-thru)  = %.2f s\n",
              expected_rollback_write_through(params));
  return 0;
}

int cmd_chaos(int argc, char** argv) {
  CampaignConfig config;
  bool replay = false;
  std::uint64_t replay_seed = 0;
  std::string json_path;

  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--reps") config.reps = std::strtoull(arg_value(argc, argv, i), nullptr, 10);
    else if (a == "--seed") config.seed = std::strtoull(arg_value(argc, argv, i), nullptr, 10);
    else if (a == "--jobs") config.jobs = std::strtoull(arg_value(argc, argv, i), nullptr, 10);
    else if (a == "--json") json_path = arg_value(argc, argv, i);
    else if (a == "--duration") config.mission = Duration::from_seconds(std::atof(arg_value(argc, argv, i)));
    else if (a == "--scheme") config.scheme = parse_scheme(arg_value(argc, argv, i));
    else if (a == "--replay") {
      replay = true;
      replay_seed = std::strtoull(arg_value(argc, argv, i), nullptr, 10);
    }
    else if (a == "--drop") config.rates.net.drop_probability = std::atof(arg_value(argc, argv, i));
    else if (a == "--dup") config.rates.net.duplicate_probability = std::atof(arg_value(argc, argv, i));
    else if (a == "--reorder") config.rates.net.reorder_probability = std::atof(arg_value(argc, argv, i));
    else if (a == "--delay") config.rates.net.delay_probability = std::atof(arg_value(argc, argv, i));
    else if (a == "--bitflip") config.rates.net.bitflip_probability = std::atof(arg_value(argc, argv, i));
    else if (a == "--write-error") config.rates.storage.write_error_probability = std::atof(arg_value(argc, argv, i));
    else if (a == "--torn") config.rates.storage.torn_write_probability = std::atof(arg_value(argc, argv, i));
    else if (a == "--latent") config.rates.storage.latent_corruption_probability = std::atof(arg_value(argc, argv, i));
    else if (a == "--hw-gap") config.rates.timed.hw_fault_mean_gap = Duration::from_seconds(std::atof(arg_value(argc, argv, i)));
    else if (a == "--drift-gap") config.rates.timed.drift_excursion_mean_gap = Duration::from_seconds(std::atof(arg_value(argc, argv, i)));
    else if (a == "--blackout-gap") config.rates.timed.resync_blackout_mean_gap = Duration::from_seconds(std::atof(arg_value(argc, argv, i)));
    else if (a == "--lane-gap") config.rates.timed.lane_flip_mean_gap = Duration::from_seconds(std::atof(arg_value(argc, argv, i)));
    else if (a == "--sig-gap") config.rates.timed.sig_fault_mean_gap = Duration::from_seconds(std::atof(arg_value(argc, argv, i)));
    else if (a == "--workload") config.base.workload.kind = parse_workload(arg_value(argc, argv, i));
    else if (a == "--disconnect-gap") config.rates.mobile.disconnect_mean_gap = parse_seconds("--disconnect-gap", arg_value(argc, argv, i));
    else if (a == "--disconnect-len") config.rates.mobile.disconnect_mean_len = parse_seconds("--disconnect-len", arg_value(argc, argv, i));
    else if (a == "--disconnect-loss") config.rates.mobile.disconnect_burst_loss = parse_probability("--disconnect-loss", arg_value(argc, argv, i));
    else if (a == "--disconnect-full") config.rates.mobile.disconnect_full_fraction = parse_probability("--disconnect-full", arg_value(argc, argv, i));
    else if (a == "--handoff-gap") config.rates.mobile.handoff_mean_gap = parse_seconds("--handoff-gap", arg_value(argc, argv, i));
    else if (a == "--trace-csv") config.trace_csv = arg_value(argc, argv, i);
    else if (a == "--verbose") config.verbose = true;
    else {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      usage(2);
    }
  }

  if (replay) {
    const MissionReport r = run_mission(config, replay_seed);
    std::printf("mission seed=%llu %s\n",
                static_cast<unsigned long long>(r.seed),
                r.ok ? "ok" : "FAIL");
    std::printf("adversity: net=%llu late=%llu drop_loss=%llu "
                "drop_norecv=%llu drop_cancel=%llu retries=%llu "
                "failed_writes=%llu "
                "torn=%llu latent=%llu corrupt_reads=%llu hw=%llu drift=%llu "
                "missed_resync=%llu sw_recoveries=%llu\n",
                static_cast<unsigned long long>(r.injected_net),
                static_cast<unsigned long long>(r.late_deliveries),
                static_cast<unsigned long long>(r.net_dropped_loss),
                static_cast<unsigned long long>(r.net_dropped_no_receiver),
                static_cast<unsigned long long>(r.net_dropped_cancelled),
                static_cast<unsigned long long>(r.write_retries),
                static_cast<unsigned long long>(r.failed_writes),
                static_cast<unsigned long long>(r.torn_writes),
                static_cast<unsigned long long>(r.latent_corruptions),
                static_cast<unsigned long long>(r.corrupt_reads),
                static_cast<unsigned long long>(r.hw_faults),
                static_cast<unsigned long long>(r.drift_excursions),
                static_cast<unsigned long long>(r.missed_resyncs),
                static_cast<unsigned long long>(r.sw_recoveries));
    std::printf("monitor: detected=%llu (bound=%llu overrun=%llu timeout=%llu "
                "corrupt=%llu undelivered=%llu line=%llu) degraded=%llu "
                "(widen=%llu resync=%llu write_through=%llu resend=%llu "
                "reline=%llu)\n",
                static_cast<unsigned long long>(r.monitor.violations()),
                static_cast<unsigned long long>(r.monitor.bound_violations),
                static_cast<unsigned long long>(r.monitor.blocking_overruns),
                static_cast<unsigned long long>(r.monitor.write_timeouts),
                static_cast<unsigned long long>(r.monitor.corrupt_records),
                static_cast<unsigned long long>(r.monitor.undelivered_messages),
                static_cast<unsigned long long>(r.monitor.line_inconsistencies),
                static_cast<unsigned long long>(r.monitor.degradations()),
                static_cast<unsigned long long>(r.monitor.tau_widenings),
                static_cast<unsigned long long>(r.monitor.forced_resyncs),
                static_cast<unsigned long long>(r.monitor.forced_write_throughs),
                static_cast<unsigned long long>(r.monitor.forced_resends),
                static_cast<unsigned long long>(r.monitor.relines));
    if (scheme_lane_count(config.scheme) > 1 || r.lane_injected > 0) {
      std::printf("lanes: injected=%llu masked=%llu detected=%llu "
                  "silent=%llu unprotected=%llu rollbacks=%llu resyncs=%llu "
                  "sig_mismatch=%llu\n",
                  static_cast<unsigned long long>(r.lane_injected),
                  static_cast<unsigned long long>(r.lane_masked),
                  static_cast<unsigned long long>(r.lane_detected),
                  static_cast<unsigned long long>(r.lane_silent),
                  static_cast<unsigned long long>(r.lane_unprotected),
                  static_cast<unsigned long long>(r.lane_rollbacks),
                  static_cast<unsigned long long>(r.lane_resyncs),
                  static_cast<unsigned long long>(r.sig_mismatches));
    }
    if (config.rates.mobile.any() || r.link_epochs > 0) {
      std::printf("mobile: link_epochs=%llu disc_drop=%llu burst_drop=%llu "
                  "handoffs=%llu handoff_aborts=%llu unacked_hw=%llu "
                  "deferred=%llu\n",
                  static_cast<unsigned long long>(r.link_epochs),
                  static_cast<unsigned long long>(r.disconnect_drops),
                  static_cast<unsigned long long>(r.burst_drops),
                  static_cast<unsigned long long>(r.handoffs),
                  static_cast<unsigned long long>(r.handoff_aborted_writes),
                  static_cast<unsigned long long>(r.unacked_high_water),
                  static_cast<unsigned long long>(
                      r.monitor.disconnect_deferrals));
    }
    if (config.base.workload.kind == WorkloadKind::kAbft) {
      const double computed =
          r.at_exposures == 0
              ? 1.0
              : static_cast<double>(r.at_detected) /
                    static_cast<double>(r.at_exposures);
      std::printf("abft: exposures=%llu detected=%llu missed=%llu "
                  "false_alarms=%llu scrub=%llu cov_computed=%.3f "
                  "cov_assumed=%.3f\n",
                  static_cast<unsigned long long>(r.at_exposures),
                  static_cast<unsigned long long>(r.at_detected),
                  static_cast<unsigned long long>(r.at_missed),
                  static_cast<unsigned long long>(r.at_false_alarms),
                  static_cast<unsigned long long>(
                      r.monitor.abft_scrub_detections),
                  computed, config.base.at.coverage);
    }
    for (const auto& f : r.failures) std::printf("  %s\n", f.c_str());
    if (!r.ok) std::printf("schedule: %s\n", r.schedule_json.c_str());
    return r.ok ? 0 : 1;
  }

  const CampaignResult result = run_campaign(config, &std::cout);

  if (!json_path.empty()) {
    bench::BenchJsonWriter writer;
    char name[128];
    std::snprintf(name, sizeof(name), "chaos_campaign/scheme=%s/reps=%zu",
                  to_string(config.scheme), config.reps);
    writer.add({name, static_cast<std::uint64_t>(config.reps),
                result.wall_seconds * 1e9 /
                    static_cast<double>(std::max<std::size_t>(1, config.reps)),
                result.missions_per_sec});
    // Checkpoint-volume counters across all missions: trend data for the
    // allocation-lean pipeline (how much encoding the caches spared).
    std::uint64_t records = 0, encoded = 0, hits = 0, misses = 0, stable = 0;
    std::uint64_t lane_inj = 0, lane_masked = 0, lane_det = 0, lane_silent = 0,
                  lane_unprot = 0, lane_rb = 0;
    std::uint64_t link_epochs = 0, disc_drops = 0, burst_drops = 0,
                  handoffs = 0, handoff_aborts = 0, unacked_hw = 0,
                  deferred = 0;
    std::uint64_t at_exp = 0, at_det = 0, at_miss = 0, at_fa = 0;
    std::uint64_t drop_loss = 0, drop_norecv = 0, drop_cancel = 0;
    for (const MissionReport& r : result.missions) {
      drop_loss += r.net_dropped_loss;
      drop_norecv += r.net_dropped_no_receiver;
      drop_cancel += r.net_dropped_cancelled;
      records += r.ckpt_records;
      encoded += r.ckpt_bytes_encoded;
      hits += r.ckpt_cache_hits;
      misses += r.ckpt_cache_misses;
      stable += r.stable_bytes_written;
      lane_inj += r.lane_injected;
      lane_masked += r.lane_masked;
      lane_det += r.lane_detected;
      lane_silent += r.lane_silent;
      lane_unprot += r.lane_unprotected;
      lane_rb += r.lane_rollbacks;
      link_epochs += r.link_epochs;
      disc_drops += r.disconnect_drops;
      burst_drops += r.burst_drops;
      handoffs += r.handoffs;
      handoff_aborts += r.handoff_aborted_writes;
      unacked_hw = std::max(unacked_hw, r.unacked_high_water);
      deferred += r.monitor.disconnect_deferrals;
      at_exp += r.at_exposures;
      at_det += r.at_detected;
      at_miss += r.at_missed;
      at_fa += r.at_false_alarms;
    }
    writer.set_counter("net_dropped_loss", drop_loss);
    writer.set_counter("net_dropped_no_receiver", drop_norecv);
    writer.set_counter("net_dropped_cancelled", drop_cancel);
    writer.set_counter("ckpt_records_established", records);
    writer.set_counter("ckpt_bytes_encoded", encoded);
    writer.set_counter("ckpt_cache_hits", hits);
    writer.set_counter("ckpt_cache_misses", misses);
    writer.set_counter("stable_bytes_written", stable);
    // Lane-fault adjudication across the campaign: the masked-vs-detected
    // -vs-silent comparison EXPERIMENTS.md commits for the TMR demo.
    writer.set_counter("lane_faults_injected", lane_inj);
    writer.set_counter("lane_faults_masked", lane_masked);
    writer.set_counter("lane_faults_detected", lane_det);
    writer.set_counter("lane_faults_silent", lane_silent);
    writer.set_counter("lane_faults_unprotected", lane_unprot);
    writer.set_counter("lane_rollbacks", lane_rb);
    // Mobile-family counters (all zero unless the mobile rates are armed,
    // keeping pre-mobile baselines comparable).
    if (config.rates.mobile.any()) {
      writer.set_counter("link_epochs", link_epochs);
      writer.set_counter("disconnect_drops", disc_drops);
      writer.set_counter("burst_drops", burst_drops);
      writer.set_counter("handoffs", handoffs);
      writer.set_counter("handoff_aborted_writes", handoff_aborts);
      writer.set_counter("unacked_high_water", unacked_hw);
      writer.set_counter("disconnect_deferrals", deferred);
    }
    // ABFT computed-coverage tallies: the campaign's measured answer to
    // the assumed AT coverage input.
    if (config.base.workload.kind == WorkloadKind::kAbft) {
      writer.set_counter("at_exposures", at_exp);
      writer.set_counter("at_detected", at_det);
      writer.set_counter("at_missed", at_miss);
      writer.set_counter("at_false_alarms", at_fa);
    }
    if (!writer.write_file(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("bench json written to %s\n", json_path.c_str());
  }
  return result.failed == 0 ? 0 : 1;
}

int cmd_general(int argc, char** argv) {
  GeneralCampaignConfig config;
  std::string json_path;

  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--topology") {
      const std::string t = arg_value(argc, argv, i);
      if (t == "star") config.shape = GeneralShape::kStar;
      else if (t == "chain") config.shape = GeneralShape::kChain;
      else {
        std::fprintf(stderr, "unknown topology: %s (expected star | chain)\n",
                     t.c_str());
        usage(2);
      }
    }
    else if (a == "--size") config.size = std::strtoull(arg_value(argc, argv, i), nullptr, 10);
    else if (a == "--reps") config.reps = std::strtoull(arg_value(argc, argv, i), nullptr, 10);
    else if (a == "--seed") config.seed = std::strtoull(arg_value(argc, argv, i), nullptr, 10);
    else if (a == "--duration") config.mission = parse_seconds("--duration", arg_value(argc, argv, i));
    else if (a == "--internal-rate") config.internal_rate = std::atof(arg_value(argc, argv, i));
    else if (a == "--external-rate") config.external_rate = std::atof(arg_value(argc, argv, i));
    else if (a == "--interval") config.tb_interval = parse_seconds("--interval", arg_value(argc, argv, i));
    else if (a == "--no-hw") config.inject_hw = false;
    else if (a == "--no-sw") config.inject_sw = false;
    else if (a == "--jobs") config.jobs = std::strtoull(arg_value(argc, argv, i), nullptr, 10);
    else if (a == "--json") json_path = arg_value(argc, argv, i);
    else if (a == "--verbose") config.verbose = true;
    else {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      usage(2);
    }
  }
  if (config.size < (config.shape == GeneralShape::kChain ? 2u : 1u)) {
    std::fprintf(stderr, "--size too small for the chosen topology\n");
    usage(2);
  }
  if (config.reps == 0) {
    std::fprintf(stderr, "--reps must be positive\n");
    usage(2);
  }

  const GeneralCampaignResult result =
      run_general_campaign(config, &std::cout);

  if (!json_path.empty()) {
    bench::BenchJsonWriter writer;
    char name[128];
    std::snprintf(name, sizeof(name), "general_campaign/%s-%zu/reps=%zu",
                  to_string(config.shape), config.size, config.reps);
    const double wall_ns = result.wall_seconds * 1e9;
    writer.add({name, result.events_total,
                result.events_total > 0
                    ? wall_ns / static_cast<double>(result.events_total)
                    : 0.0,
                result.events_per_sec});
    writer.set_counter("events_total", result.events_total);
    writer.set_counter("oracle_violations", result.oracle_violations);
    if (!writer.write_file(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("bench json written to %s\n", json_path.c_str());
  }
  return result.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(2);
  const std::string cmd = argv[1];
  if (cmd == "run") return cmd_run(argc, argv);
  if (cmd == "sweep") return cmd_sweep(argc, argv);
  if (cmd == "rollback") return cmd_rollback(argc, argv);
  if (cmd == "model") return cmd_model(argc, argv);
  if (cmd == "chaos") return cmd_chaos(argc, argv);
  if (cmd == "general") return cmd_general(argc, argv);
  if (cmd == "help" || cmd == "--help" || cmd == "-h") usage(0);
  std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
  usage(2);
}
