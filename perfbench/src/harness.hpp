// Shared pieces of the perfbench harness: arguments, host clocks, order
// statistics, the result record every workload fills, the closed loops
// and the in-memory span log of the traced run.
//
// Every workload runs a fixed mission set derived from --seed, repeated in
// passes until --seconds have elapsed. The set fixes everything that must
// repeat exactly (the modelled-system metrics, the per-layer counts, which
// missions fail); the passes only add timing samples, and each repeat must
// reproduce its first report bit for bit.
//
// The harness prints notes and, as its last line, one JSON object with
// `correct`, `attempted`, `failed` and the metrics it measured. run.py
// checks that object against the metric catalogue in BENCHMARK.json and
// perfbench/workloads.json, which hold every name, unit and direction.
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;  ///< where the traced run writes its spans
};

double seconds_since(Clock::time_point t0);
double ms_since(Clock::time_point t0);
/// CPU time of the calling thread, in seconds.
double thread_cpu_seconds();
/// Peak resident set of this process, in MB.
double peak_rss_mb();

double median(std::vector<double> v);

/// Print the size of the mission set a run attempts, before it starts, so
/// a run that a library contract aborts still reports what it attempted.
void announce_missions(std::size_t n);

/// The timing figures of one workload, from per-mission host times.
struct Latency {
  double sum_ms = 0;  ///< one pass over the set: sum of per-mission medians
  double p50_ms = 0;
  double tail_ms = 0;
  double tail_pct = 0;       ///< the percentile the tail value sits at
  std::size_t samples = 0;   ///< distinct missions the figures cover
  std::size_t beyond = 0;    ///< missions above the tail value
};

/// p50 and tail of the per-mission medians. The tail is the highest
/// percentile that has ten missions beyond it; the mission count of a
/// workload is fixed, so the percentile is too.
Latency latency_of(const std::vector<std::vector<double>>& per_mission_ms);

/// Closed loop over a fixed set of `n` missions: calls one(i, pass) for
/// i = 0..n-1, pass after pass, until the first pass is complete and
/// `seconds` of loop time have elapsed. between(i, pass), when given, runs
/// after every mission; its time is not timed and does not count against
/// `seconds`. Returns each mission's host times (ms).
std::vector<std::vector<double>> closed_loop(
    std::size_t n, double seconds,
    const std::function<void(std::size_t, std::size_t)>& one,
    const std::function<void(std::size_t, std::size_t)>& between = {});

/// The mission seeds of a set: the same stream `synergy chaos --seed S`
/// and `synergy general --seed S` draw, so any mission replays from the
/// CLI.
std::vector<std::uint64_t> mission_seeds(std::uint64_t seed, std::size_t n);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< distinct missions in the set
  std::uint64_t failed = 0;     ///< missions not clean, or that threw
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< printed before the result line

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// A harness check failed: the run is not correct.
  void fail_check(const std::string& what);
};

/// Time one run of the reference kernel (ms): fixed work that never calls
/// the library and never touches the global heap. It builds and walks
/// graphs of small nodes, as setting up a system does, in a buffer of its
/// own that is reserved once at start-up.
double reference_kernel_ms();
/// Reserve the reference kernel's buffers; called once, at start-up.
void reserve_reference_arenas();

/// Samples taken between missions, spread over the whole run: one set-up
/// of the mission set, for setup_s, and runs of the reference kernel, for
/// the host-speed calibration.
///
/// The shared VMs this benchmark was defined on change speed by 15-50%
/// for minutes at a time, which moves every host-time figure of a 30 s run
/// together. The library cannot move the reference kernel, so its median
/// time in a run measures the host alone. Host-time metrics are reported
/// at the nominal host speed: raw time x (kReferenceMs / the run's median
/// reference time). The raw values are printed on the lines before the
/// result.
class HostSamples {
 public:
  /// `one_setup` sets up the whole mission set and returns the seconds
  /// that took.
  explicit HostSamples(std::function<double()> one_setup)
      : one_setup_(std::move(one_setup)) {}
  /// One set-up sample and three reference runs, on the calling thread.
  void sample();
  /// Reference times measured on the threads that run the missions, when
  /// those are not the sampling thread (pool workers). They calibrate the
  /// mission figures; setup_s keeps the sampling thread's references.
  void add_mission_references(const std::vector<double>& ms);

  /// Add missions_per_s, mission_ms_p50, mission_ms_tail and setup_s,
  /// calibrated, and notes with the raw values and the tail's percentile.
  void add_times(RunResult& out, const std::string& workload,
                 double missions_per_s, const Latency& lat,
                 std::size_t passes) const;

 private:
  std::function<double()> one_setup_;
  std::vector<double> setup_s_;
  std::vector<double> reference_ms_;
  std::vector<double> mission_reference_ms_;
};

/// Count a mission that was not clean as failed, with a note saying how
/// to replay it.
template <class Report>
void count_unclean(const Report& r, RunResult& out,
                   const std::function<std::string(const Report&)>& hint) {
  if (r.ok) return;
  ++out.failed;
  out.notes.push_back(
      "unclean mission seed=" + std::to_string(r.seed) +
      (hint ? " (" + hint(r) + ")" : "") + ": " +
      (r.failures.empty() ? std::string("threw") : r.failures.front()));
}

/// A mission set run through a library entry point, one mission at a time.
template <class Report>
struct MissionSet {
  const char* workload = "";
  std::vector<std::uint64_t> seeds = {};
  /// The library entry point for one mission; the timed call.
  std::function<Report(std::uint64_t)> run = {};
  /// One set-up sample of the whole set, in seconds.
  std::function<double()> setup = {};
  /// Untimed work on each first-pass report, done after its mission.
  std::function<void(std::size_t, const Report&)> on_first = {};
  /// How to replay a mission that was not clean.
  std::function<std::string(const Report&)> replay_hint = {};
};

/// The untraced run of a single-threaded workload: times set.run over the
/// set in a closed loop, checks that every repeat reproduces its first
/// report, adds the host-time metrics and peak_rss_mb, and counts the
/// missions that were not clean as failed. Returns the first-pass reports.
template <class Report>
std::vector<Report> run_untraced(const Args& args,
                                 const MissionSet<Report>& set,
                                 RunResult& out) {
  const std::size_t n = set.seeds.size();
  announce_missions(n);
  HostSamples host(set.setup);
  std::vector<Report> first(n);
  const auto ms = closed_loop(
      n, args.seconds,
      [&](std::size_t i, std::size_t pass) {
        Report r;
        try {
          r = set.run(set.seeds[i]);
        } catch (const std::exception& e) {
          r = Report{};
          r.seed = set.seeds[i];
          r.ok = false;
          r.failures.push_back(std::string("threw: ") + e.what());
        }
        if (pass == 0) {
          first[i] = std::move(r);
        } else if (r != first[i]) {
          out.fail_check("mission seed=" + std::to_string(set.seeds[i]) +
                         " did not repeat its report");
        }
      },
      [&](std::size_t i, std::size_t pass) {
        if (pass == 0 && set.on_first) set.on_first(i, first[i]);
        host.sample();
      });

  const Latency lat = latency_of(ms);
  host.add_times(out, set.workload,
                 static_cast<double>(n) / lat.sum_ms * 1e3, lat,
                 ms.front().size());
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  for (const Report& r : first) count_unclean(r, out, set.replay_hint);
  out.attempted = n;
  return first;
}

/// One timed call at a layer boundary. Spans of one mission share
/// `mission`; `parent` is the index of the enclosing span (-1 for a root);
/// `work` is what the call processed (events, bytes), where it counts.
struct Span {
  const char* name;
  std::uint32_t mission;
  std::int32_t parent;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint64_t work;
};

/// Spans are kept in memory and written out once, when the run ends.
class SpanLog {
 public:
  SpanLog();

  /// Open a span and return its index.
  std::int32_t open(const char* name, std::uint32_t mission,
                    std::int32_t parent);
  void close(std::int32_t index, std::uint64_t work = 0);

  /// Durations (ns) of every span named `name`, in recording order.
  std::vector<double> durations_ns(const char* name) const;
  struct Total {
    double ns = 0;
    double work = 0;
  };
  /// Summed duration and work of the spans named `name`.
  Total total(const char* name) const;

  const std::vector<Span>& spans() const { return spans_; }
  /// Write every span as JSON lines. Returns false on an I/O error.
  bool write(const std::string& path) const;

 private:
  std::int64_t now_ns() const;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(SpanLog& log, const char* name, std::uint32_t mission,
        std::int32_t parent)
      : log_(log), index_(log.open(name, mission, parent)) {}
  ~Scope() { log_.close(index_, work_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int32_t index() const { return index_; }
  void set_work(std::uint64_t work) { work_ = work; }

 private:
  SpanLog& log_;
  std::int32_t index_;
  std::uint64_t work_ = 0;
};

/// Median duration of the spans named `name`, in microseconds.
double median_span_us(const SpanLog& log, const char* name);

/// Host time of the untraced and traced halves of a traced run.
struct TraceTimes {
  double untraced_cpu = 0, untraced_wall = 0, traced_cpu = 0;
  double first_pass_ms = 0;  ///< untraced time of the first pass

  /// core.pool_parallelism and bench.trace_overhead_frac.
  void emit(RunResult& out) const;
};

/// The traced run of a single-threaded workload: for each mission, pass
/// after pass, times the library entry point `plain(seed)`, then drives the
/// same mission through `traced(seed, span_id)`, which must return a
/// report equal to the library's, and hands the first pass's traced result
/// to `keep(traced)`.
template <class Traced, class Plain, class TraceOne, class Keep>
void traced_loop(const Args& args, const std::vector<std::uint64_t>& seeds,
                 Plain plain, TraceOne traced, Keep keep, const char* entry,
                 TraceTimes& times, RunResult& out) {
  const std::size_t n = seeds.size();
  announce_missions(n);
  closed_loop(n, args.seconds, [&](std::size_t i, std::size_t pass) {
    const double cpu0 = thread_cpu_seconds();
    const auto t0 = Clock::now();
    const auto report = plain(seeds[i]);
    times.untraced_wall += seconds_since(t0);
    times.untraced_cpu += thread_cpu_seconds() - cpu0;
    if (pass == 0) times.first_pass_ms += ms_since(t0);

    const double tcpu0 = thread_cpu_seconds();
    const Traced t =
        traced(seeds[i], static_cast<std::uint32_t>(pass * n + i));
    times.traced_cpu += thread_cpu_seconds() - tcpu0;
    if (t.report != report) {
      out.fail_check("traced mission seed=" + std::to_string(seeds[i]) +
                     " differs from " + entry);
    }
    if (pass == 0) {
      keep(t);
      if (!report.ok) ++out.failed;
    }
  });
  out.attempted = n;
}

/// Write the traced run's spans to
/// `<trace_dir>/spans-<workload>-<seed>.jsonl`; a write error fails the
/// run's checks.
void write_spans(const Args& args, const SpanLog& log, RunResult& out);

RunResult run_chaos_long(const Args& args);
RunResult trace_chaos_long(const Args& args);
RunResult run_sweep_mix(const Args& args);
RunResult trace_sweep_mix(const Args& args);
RunResult run_general_star(const Args& args);
RunResult trace_general_star(const Args& args);

}  // namespace perfbench
