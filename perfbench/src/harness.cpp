#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <memory_resource>
#include <string>

#include "common/rng.hpp"

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_since(Clock::time_point t0) { return seconds_since(t0) * 1e3; }

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Latency latency_of(const std::vector<std::vector<double>>& per_mission_ms) {
  std::vector<double> m;
  for (const auto& samples : per_mission_ms) m.push_back(median(samples));
  Latency out;
  for (double x : m) out.sum_ms += x;
  out.samples = m.size();
  out.p50_ms = median(m);
  std::sort(m.begin(), m.end());
  out.beyond = std::min<std::size_t>(10, m.size() - 1);
  const std::size_t rank = m.size() - out.beyond;  // 1-based nearest rank
  out.tail_ms = m[rank - 1];
  out.tail_pct = 100.0 * static_cast<double>(rank) /
                 static_cast<double>(m.size());
  return out;
}

namespace {

// The nominal host speed: host-time metrics are reported as if
// reference_kernel_ms() took this long. It is a fixed scale, close to the
// kernel's median on the host the benchmark was defined on (Xeon, 4 vCPU
// VM, RelWithDebInfo) in its fast periods.
constexpr double kReferenceMs = 0.447;

// The kernel's nodes live in these arenas, never on the global heap, so
// the heap state a library leaves behind (arenas, fragmentation,
// per-thread caches) cannot move the reference time. One round uses about
// 190 KiB. The calling thread of reserve_reference_arenas() owns slot 0;
// other threads take the other slots in turn, so the two pool workers that
// run the kernel at the same time never share one.
constexpr std::size_t kArenaBytes = std::size_t{256} << 10;
constexpr std::size_t kArenaSlots = 8;
alignas(64) std::byte g_arenas[kArenaSlots][kArenaBytes];
std::atomic<std::size_t> g_next_slot{0};
thread_local std::size_t t_slot = kArenaSlots;

std::byte* thread_arena() {
  if (t_slot == kArenaSlots) {
    t_slot = 1 + g_next_slot.fetch_add(1) % (kArenaSlots - 1);
  }
  return g_arenas[t_slot];
}

struct RefNode {
  std::pmr::vector<std::uint64_t> data;
  std::uint64_t (*fn)(std::uint64_t, std::uint64_t) = nullptr;
  std::uint64_t k = 0;
  RefNode* child = nullptr;
  std::pmr::string name;

  explicit RefNode(std::pmr::memory_resource* r) : data(r), name(r) {}
};

std::uint64_t mul_add(std::uint64_t v, std::uint64_t k) { return v * k + 1; }
std::uint64_t xor_add(std::uint64_t v, std::uint64_t k) { return (v ^ k) + 3; }

// Written by every thread that runs the kernel, so the work is not elided.
std::atomic<std::uint64_t> g_reference_sink{0};

}  // namespace

void reserve_reference_arenas() {
  std::memset(g_arenas, 0, sizeof g_arenas);  // fault every page in now
  t_slot = 0;
}

double reference_kernel_ms() {
  std::byte* const buffer = thread_arena();
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ull, acc = 0;
  for (int round = 0; round < 6; ++round) {
    std::pmr::monotonic_buffer_resource arena(
        buffer, kArenaBytes, std::pmr::null_memory_resource());
    std::pmr::polymorphic_allocator<RefNode> alloc(&arena);
    std::pmr::vector<RefNode*> nodes(&arena);
    for (int i = 0; i < 400; ++i) {
      RefNode* n = alloc.new_object<RefNode>(&arena);
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      n->data.resize(4 + (x & 63), x);
      n->k = x;
      n->fn = (x & 1) ? mul_add : xor_add;
      char digits[24];
      std::snprintf(digits, sizeof digits, "%d", i);
      n->name = "reference-node-";
      n->name += digits;
      if (i & 1) n->child = alloc.new_object<RefNode>(&arena);
      nodes.push_back(n);
    }
    for (const RefNode* n : nodes) {
      for (std::uint64_t d : n->data) acc += n->fn(d, n->k);
      acc += n->name.size() + (n->child ? n->child->data.size() : 0);
    }
  }
  g_reference_sink.store(acc, std::memory_order_relaxed);
  return ms_since(t0);
}

void HostSamples::sample() {
  setup_s_.push_back(one_setup_());
  for (int i = 0; i < 3; ++i) reference_ms_.push_back(reference_kernel_ms());
}

void HostSamples::add_mission_references(const std::vector<double>& ms) {
  mission_reference_ms_.insert(mission_reference_ms_.end(), ms.begin(),
                               ms.end());
}

void HostSamples::add_times(RunResult& out, const std::string& workload,
                            double missions_per_s, const Latency& lat,
                            std::size_t passes) const {
  const double ref_ms = median(reference_ms_);
  const double mission_ref_ms = mission_reference_ms_.empty()
                                    ? ref_ms
                                    : median(mission_reference_ms_);
  // Below 1 on a slow host.
  const double speed = kReferenceMs / mission_ref_ms;
  const double setup_speed = kReferenceMs / ref_ms;
  const double setup_s = median(setup_s_);
  out.add("missions_per_s", missions_per_s / speed, "1/s");
  out.add("mission_ms_p50", lat.p50_ms * speed, "ms");
  out.add("mission_ms_tail", lat.tail_ms * speed, "ms");
  out.add("setup_s", setup_s * setup_speed, "s");
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "%s: %zu missions x %zu passes; mission_ms_tail is p%.1f of "
                "the %zu per-mission medians, %zu beyond it",
                workload.c_str(), lat.samples, passes, lat.tail_pct,
                lat.samples, lat.beyond);
  out.notes.push_back(buf);
  std::snprintf(buf, sizeof buf,
                "host calibration: nominal reference %.4f ms; missions %.4f "
                "ms (median of %zu), speed %.4f; set-up %.4f ms (median of "
                "%zu), speed %.4f; raw missions_per_s %.6g, mission_ms_p50 "
                "%.6g, mission_ms_tail %.6g, setup_s %.6g (median of %zu)",
                kReferenceMs, mission_ref_ms,
                mission_reference_ms_.empty() ? reference_ms_.size()
                                              : mission_reference_ms_.size(),
                speed, ref_ms, reference_ms_.size(), setup_speed,
                missions_per_s, lat.p50_ms, lat.tail_ms, setup_s,
                setup_s_.size());
  out.notes.push_back(buf);
}

std::vector<std::vector<double>> closed_loop(
    std::size_t n, double seconds,
    const std::function<void(std::size_t, std::size_t)>& one,
    const std::function<void(std::size_t, std::size_t)>& between) {
  std::vector<std::vector<double>> ms(n);
  const auto start = Clock::now();
  double untimed_s = 0;
  for (std::size_t pass = 0;; ++pass) {
    for (std::size_t i = 0; i < n; ++i) {
      if (pass > 0 && seconds_since(start) - untimed_s >= seconds) return ms;
      const auto t0 = Clock::now();
      one(i, pass);
      ms[i].push_back(ms_since(t0));
      if (between) {
        const auto t1 = Clock::now();
        between(i, pass);
        untimed_s += seconds_since(t1);
      }
    }
  }
}

std::vector<std::uint64_t> mission_seeds(std::uint64_t seed, std::size_t n) {
  std::vector<std::uint64_t> seeds(n);
  synergy::Rng seeder(seed);
  for (auto& s : seeds) s = seeder.next();
  return seeds;
}

void announce_missions(std::size_t n) {
  std::printf("mission set: %zu missions\n", n);
  std::fflush(stdout);
}

void RunResult::fail_check(const std::string& what) {
  correct = false;
  notes.push_back("CHECK FAILED: " + what);
}

SpanLog::SpanLog() : epoch_(Clock::now()) { spans_.reserve(1 << 16); }

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::int32_t SpanLog::open(const char* name, std::uint32_t mission,
                           std::int32_t parent) {
  spans_.push_back({name, mission, parent, now_ns(), 0, 0});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanLog::close(std::int32_t index, std::uint64_t work) {
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end_ns = now_ns();
  s.work = work;
}

std::vector<double> SpanLog::durations_ns(const char* name) const {
  const std::string key(name);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (key == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

SpanLog::Total SpanLog::total(const char* name) const {
  const std::string key(name);
  Total t;
  for (const Span& s : spans_) {
    if (key != s.name) continue;
    t.ns += static_cast<double>(s.end_ns - s.start_ns);
    t.work += static_cast<double>(s.work);
  }
  return t;
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"mission\":" << s.mission << ",\"parent\":" << s.parent
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"work\":" << s.work << "}\n";
  }
  return static_cast<bool>(out);
}

double median_span_us(const SpanLog& log, const char* name) {
  return median(log.durations_ns(name)) / 1e3;
}

void TraceTimes::emit(RunResult& out) const {
  out.add("core.pool_parallelism", untraced_cpu / untraced_wall, "ratio");
  out.add("bench.trace_overhead_frac", traced_cpu / untraced_cpu - 1.0,
          "ratio");
}

void write_spans(const Args& args, const SpanLog& log, RunResult& out) {
  if (args.trace_dir.empty()) return;
  const std::string path = args.trace_dir + "/spans-" + args.workload + "-" +
                           std::to_string(args.seed) + ".jsonl";
  if (!log.write(path)) {
    out.fail_check("cannot write spans to " + path);
  } else {
    out.notes.push_back("spans: " + std::to_string(log.spans().size()) +
                        " written to " + path);
  }
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload chaos-long|sweep-mix|"
               "general-star --seed N --seconds S --trace 0|1 "
               "[--trace-dir DIR]\n";
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) return usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace");
      args.trace = value == "1";
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) return usage("missing --workload");
  reserve_reference_arenas();

  using Runner = RunResult (*)(const Args&);
  const std::map<std::string, std::pair<Runner, Runner>> workloads = {
      {"chaos-long", {run_chaos_long, trace_chaos_long}},
      {"sweep-mix", {run_sweep_mix, trace_sweep_mix}},
      {"general-star", {run_general_star, trace_general_star}},
  };
  const auto it = workloads.find(args.workload);
  if (it == workloads.end()) return usage("unknown workload");

  RunResult result;
  try {
    result = args.trace ? it->second.second(args) : it->second.first(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: harness error: " << e.what() << "\n";
    return 1;
  }

  for (const std::string& note : result.notes) std::cout << note << "\n";
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted) +
          ", \"failed\": " + std::to_string(result.failed) +
          ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    json += std::string(i ? ", " : "") + "\"" + m.name +
            "\": {\"value\": " + json_number(m.value) + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return result.correct ? 0 : 1;
}
