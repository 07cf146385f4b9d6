// Differential test of the memoized recovery-line audits.
//
// The library audits stable recovery lines through a per-entry decode memo
// in StableStore, a facts cache keyed by record identity, verdicts keyed by
// identity tuples and merge-based checkers (coord/line_audit.hpp). This
// file rebuilds the same audits from scratch — raw stored bytes,
// facts_from_record, and the per-call hash-indexed checker the merge-based
// one replaced — and compares both at every 5 s of simulated time over
// chaos missions that mutate stored bytes after commit (torn writes,
// latent flips, same-index relines, handoffs, recoveries).
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/checkers.hpp"
#include "analysis/global_state.hpp"
#include "core/campaign.hpp"

namespace synergy {
namespace {

// ---- Reference checker: hash indexes rebuilt per call, first entry wins.

using RefIndex = std::unordered_map<std::uint64_t, const MsgView*>;

std::uint64_t ref_key(ProcessId peer, std::uint64_t transport_seq) {
  return (static_cast<std::uint64_t>(peer.value()) << 48) | transport_seq;
}

RefIndex ref_index(const ViewLog& log) {
  RefIndex index;
  for (const auto& v : log.entries()) {
    index.emplace(ref_key(v.peer, v.transport_seq), &v);
  }
  return index;
}

const MsgView* ref_find(const RefIndex& index, ProcessId peer,
                        std::uint64_t transport_seq) {
  auto it = index.find(ref_key(peer, transport_seq));
  return it == index.end() ? nullptr : it->second;
}

std::vector<Violation> ref_consistency(const GlobalState& state) {
  std::vector<Violation> out;
  std::unordered_map<std::uint32_t, RefIndex> sent;
  for (const auto& p : state.processes) sent.emplace(p.id.value(), ref_index(p.sent));
  for (const auto& receiver : state.processes) {
    for (const auto& e : receiver.recv.entries()) {
      if (e.kind != MsgKind::kInternal) continue;
      const ProcessFacts* sender = state.find(e.peer);
      if (sender == nullptr) continue;
      const MsgView* s =
          ref_find(sent.at(sender->id.value()), receiver.id, e.transport_seq);
      if (s == nullptr) {
        out.push_back({Violation::Kind::kReceivedNotSent, receiver.id,
                       sender->id, e.transport_seq});
      } else if (s->suspect != e.suspect) {
        out.push_back({Violation::Kind::kValidityMismatch, receiver.id,
                       sender->id, e.transport_seq});
      }
    }
  }
  return out;
}

std::vector<Violation> ref_check_all(const GlobalState& state) {
  std::vector<Violation> out = ref_consistency(state);
  std::unordered_map<std::uint32_t, RefIndex> recv;
  for (const auto& p : state.processes) recv.emplace(p.id.value(), ref_index(p.recv));
  for (const auto& sender : state.processes) {
    std::unordered_set<std::uint64_t> unacked;
    for (const auto& m : sender.unacked) unacked.insert(m.transport_seq);
    for (const auto& e : sender.sent.entries()) {
      if (e.kind != MsgKind::kInternal) continue;
      const ProcessFacts* receiver = state.find(e.peer);
      if (receiver == nullptr) continue;
      const MsgView* r =
          ref_find(recv.at(receiver->id.value()), sender.id, e.transport_seq);
      if (r != nullptr) {
        if (r->suspect != e.suspect) {
          out.push_back({Violation::Kind::kValidityMismatch, sender.id,
                         receiver->id, e.transport_seq});
        }
      } else if (!unacked.contains(e.transport_seq)) {
        out.push_back({Violation::Kind::kLostMessage, sender.id, receiver->id,
                       e.transport_seq});
      }
    }
  }
  for (const auto& p : state.processes) {
    if (p.id != kP1Act && p.dirty) {
      out.push_back({Violation::Kind::kDirtyRestoredState, p.id, p.id, 0});
    }
  }
  return out;
}

// ---- Reference line selection over raw stored bytes (no memo). --------

std::optional<CheckpointRecord> raw_record(const StableStore& store,
                                           StableSeq ndc) {
  const Bytes* bytes = store.stored_bytes(ndc);
  if (bytes == nullptr) return std::nullopt;
  ByteReader r(*bytes);
  auto rec = CheckpointRecord::try_deserialize(r);
  if (rec && !r.exhausted()) rec.reset();
  return rec;
}

std::optional<CheckpointRecord> raw_latest(const StableStore& store) {
  const auto ndcs = store.retained_ndcs();
  for (auto it = ndcs.rbegin(); it != ndcs.rend(); ++it) {
    if (auto rec = raw_record(store, *it)) return rec;
  }
  return std::nullopt;
}

GlobalState raw_state(const std::vector<CheckpointRecord>& records) {
  GlobalState state;
  for (const CheckpointRecord& rec : records) {
    state.processes.push_back(facts_from_record(rec));
  }
  return state;
}

struct Participants {
  std::vector<ProcessNode*> nodes;
  bool timered = true;
};

Participants participants(System& system) {
  Participants out;
  for (std::uint32_t p = 0; p < kNumCanonicalProcesses; ++p) {
    ProcessNode& n = system.node(ProcessId{p});
    if (n.retired() || !n.has_stable_storage()) continue;
    out.nodes.push_back(&n);
    if (n.tb() == nullptr) out.timered = false;
  }
  return out;
}

// Candidate indices hi, hi-1, ..., lo, as line selection walks them.
std::vector<StableSeq> candidates(const std::vector<ProcessNode*>& nodes) {
  StableSeq hi = ~StableSeq{0};
  StableSeq lo = 0;
  for (ProcessNode* n : nodes) {
    const auto latest = raw_latest(n->sstore());
    hi = std::min(hi, latest ? latest->ndc : StableSeq{0});
    const auto retained = n->sstore().retained_ndcs();
    if (!retained.empty()) lo = std::max(lo, retained.front());
  }
  std::vector<StableSeq> out;
  for (StableSeq c = hi; c + 1 > lo; --c) {
    out.push_back(c);
    if (c == 0) break;
  }
  return out;
}

std::optional<std::vector<CheckpointRecord>> raw_line(
    const std::vector<ProcessNode*>& nodes, StableSeq ndc) {
  std::vector<CheckpointRecord> records;
  for (ProcessNode* n : nodes) {
    auto rec = raw_record(n->sstore(), ndc);
    if (!rec) return std::nullopt;
    records.push_back(std::move(*rec));
  }
  return records;
}

std::optional<StableSeq> ref_valid_line(const std::vector<ProcessNode*>& nodes) {
  if (nodes.empty()) return std::nullopt;
  for (StableSeq c : candidates(nodes)) {
    if (raw_line(nodes, c)) return c;
  }
  return std::nullopt;
}

std::optional<StableSeq> ref_restorable_line(
    const std::vector<ProcessNode*>& nodes) {
  if (nodes.empty()) return std::nullopt;
  for (StableSeq c : candidates(nodes)) {
    const auto records = raw_line(nodes, c);
    if (records && ref_check_all(raw_state(*records)).empty()) return c;
  }
  return std::nullopt;
}

// The write-through cut descent, from scratch.
std::vector<std::optional<CheckpointRecord>> ref_write_through_cut(
    const std::vector<ProcessNode*>& nodes) {
  const std::size_t n = nodes.size();
  std::vector<std::vector<CheckpointRecord>> recs(n);  // newest first
  std::vector<std::size_t> idx(n, 0);
  std::size_t steps = 1;
  for (std::size_t i = 0; i < n; ++i) {
    const auto ndcs = nodes[i]->sstore().retained_ndcs();
    for (auto it = ndcs.rbegin(); it != ndcs.rend(); ++it) {
      if (auto rec = raw_record(nodes[i]->sstore(), *it)) {
        recs[i].push_back(std::move(*rec));
      }
    }
    if (recs[i].empty()) return {};
    steps += recs[i].size();
  }
  while (steps-- > 0) {
    std::vector<CheckpointRecord> cut;
    for (std::size_t i = 0; i < n; ++i) cut.push_back(recs[i][idx[i]]);
    if (cut.empty()) return {};
    if (ref_check_all(raw_state(cut)).empty()) {
      return {cut.begin(), cut.end()};
    }
    std::size_t victim = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (idx[i] + 1 >= recs[i].size()) continue;
      if (victim == n ||
          recs[i][idx[i]].state_time > recs[victim][idx[victim]].state_time) {
        victim = i;
      }
    }
    if (victim == n) return {};
    ++idx[victim];
  }
  return {};
}

// What System::stable_line_state() restores, rebuilt from raw bytes.
GlobalState ref_line_state(System& system) {
  const Participants p = participants(system);
  std::optional<StableSeq> line;
  if (p.timered && !p.nodes.empty()) {
    if (system.config().harden_recovery) line = ref_restorable_line(p.nodes);
    if (!line) line = ref_valid_line(p.nodes);
  }
  std::vector<CheckpointRecord> records;
  if (line) {
    for (ProcessNode* n : p.nodes) {
      if (auto rec = raw_record(n->sstore(), *line)) records.push_back(*rec);
    }
  } else {
    std::vector<std::optional<CheckpointRecord>> cut;
    if (!p.timered && system.config().harden_recovery) {
      cut = ref_write_through_cut(p.nodes);
    }
    for (std::size_t i = 0; i < p.nodes.size(); ++i) {
      auto rec = i < cut.size() ? cut[i] : raw_latest(p.nodes[i]->sstore());
      if (rec) records.push_back(*rec);
    }
  }
  return raw_state(records);
}

// Field-wise equality of two compacted facts.
void expect_same_facts(const AuditFacts& got, const AuditFacts& want) {
  EXPECT_EQ(got.id, want.id);
  EXPECT_EQ(got.dirty, want.dirty);
  EXPECT_EQ(got.unacked, want.unacked);
  for (auto [g, w] : {std::pair(&got.sent, &want.sent),
                      std::pair(&got.recv, &want.recv)}) {
    ASSERT_EQ(g->views.size(), w->views.size());
    for (std::size_t i = 0; i < g->views.size(); ++i) {
      EXPECT_EQ(g->views[i].transport_seq, w->views[i].transport_seq);
      EXPECT_EQ(g->views[i].pos, w->views[i].pos);
      EXPECT_EQ(g->views[i].internal, w->views[i].internal);
      EXPECT_EQ(g->views[i].suspect, w->views[i].suspect);
    }
    ASSERT_EQ(g->runs.size(), w->runs.size());
    for (std::size_t i = 0; i < g->runs.size(); ++i) {
      EXPECT_EQ(g->runs[i].peer, w->runs[i].peer);
      EXPECT_EQ(g->runs[i].begin, w->runs[i].begin);
      EXPECT_EQ(g->runs[i].end, w->runs[i].end);
    }
  }
}

std::vector<std::string> text(const std::vector<Violation>& violations) {
  std::vector<std::string> out;
  for (const Violation& v : violations) {
    out.push_back(std::to_string(static_cast<int>(v.kind)) + " " +
                  v.describe());
  }
  return out;
}

struct DiffStats {
  std::size_t slices = 0;
  std::size_t lines_with_violations = 0;
  std::size_t monitor_audits = 0;
  std::uint64_t handoffs = 0;
};

// Compare every memoized audit with its from-scratch reference right now.
void compare_audits(System& system, DiffStats& stats) {
  ++stats.slices;
  const auto want = text(ref_check_all(ref_line_state(system)));
  ASSERT_EQ(text(system.stable_line_violations()), want);
  ASSERT_EQ(text(check_all(system.stable_line_state())), want);
  if (!want.empty()) ++stats.lines_with_violations;

  // The monitor's self-audit: consistency of the newest common intact
  // index, through the system's shared cache.
  const Participants p = participants(system);
  if (!p.timered || p.nodes.empty()) return;
  const auto line = common_valid_line(p.nodes);
  ASSERT_EQ(line, ref_valid_line(p.nodes));
  if (!line) return;
  ++stats.monitor_audits;
  const auto records = raw_line(p.nodes, *line);
  ASSERT_TRUE(records.has_value());
  EXPECT_EQ(system.line_audit().line_consistency(p.nodes, *line),
            ref_consistency(raw_state(*records)).size());
  // The cached facts behind those verdicts are the raw bytes' facts.
  for (std::size_t i = 0; i < p.nodes.size(); ++i) {
    const StableStore& store = p.nodes[i]->sstore();
    const auto cached = system.line_audit().facts({&store, store.valid_id(*line)});
    expect_same_facts(*cached, AuditFacts(facts_from_record((*records)[i])));
  }
}

// Run one chaos mission exactly as run_mission arms it, auditing both
// ways every `slice` of simulated time.
DiffStats run_differential(const CampaignConfig& config, std::uint64_t seed) {
  DiffStats stats;
  const SystemConfig sc = mission_system_config(config, seed);
  System system(sc);
  const TimePoint start = TimePoint::origin();
  arm_fault_schedule(system,
                     FaultSchedule::generate(seed, config.rates, start,
                                             config.mission, sc.clock.rho,
                                             kNumCanonicalProcesses));
  system.start(start + config.mission);
  for (TimePoint t = start + Duration::seconds(5); t <= start + config.mission;
       t += Duration::seconds(5)) {
    system.run_until(t);
    compare_audits(system, stats);
    if (::testing::Test::HasFatalFailure()) {
      ADD_FAILURE() << "seed " << seed << " at " << t.to_seconds() << " s";
      return stats;
    }
  }
  stats.handoffs = system.handoffs();
  return stats;
}

CampaignConfig sweep_cell(Scheme scheme, double fault_scale, Duration mission) {
  CampaignConfig cc;
  cc.scheme = scheme;
  cc.mission = mission;
  cc.rates = default_injector_rates().scaled_by(fault_scale);
  return cc;
}

class AuditDiffScheme : public ::testing::TestWithParam<Scheme> {};

TEST_P(AuditDiffScheme, MemoizedAuditsMatchFromScratchAtFaultScale2) {
  const CampaignConfig cc =
      sweep_cell(GetParam(), 2.0, Duration::seconds(300));
  DiffStats total;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const DiffStats s = run_differential(cc, seed * 7919);
    if (HasFatalFailure()) return;
    total.slices += s.slices;
    total.lines_with_violations += s.lines_with_violations;
    total.monitor_audits += s.monitor_audits;
  }
  EXPECT_EQ(total.slices, 6u * 60u);
  if (GetParam() == Scheme::kCoordinated) {
    EXPECT_GT(total.monitor_audits, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, AuditDiffScheme,
                         ::testing::Values(Scheme::kCoordinated,
                                           Scheme::kWriteThrough,
                                           Scheme::kMdcdOnly));

TEST(AuditDiff, MobileHandoffMission) {
  CampaignConfig cc = sweep_cell(Scheme::kCoordinated, 1.0, Duration::seconds(600));
  cc.rates.mobile.disconnect_mean_gap = Duration::seconds(80);
  cc.rates.mobile.disconnect_mean_len = Duration::seconds(12);
  cc.rates.mobile.handoff_mean_gap = Duration::seconds(100);
  std::uint64_t handoffs = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    handoffs += run_differential(cc, seed).handoffs;
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(handoffs, 0u);  // the missions really re-homed stores mid-run
}

// A mission that fails the oracle: its exact failure text, counters and a
// slice-by-slice differential must all survive the memoization.
constexpr std::uint64_t kFailingSeed = 1935604049477330629ULL;

TEST(AuditDiff, KnownFailingReplayReproducesExactly) {
  CampaignConfig cc;
  cc.mission = Duration::seconds(1200);
  const MissionReport r = run_mission(cc, kFailingSeed);
  ASSERT_FALSE(r.ok);
  ASSERT_EQ(r.failures.size(), 63u);
  EXPECT_EQ(r.failures.front(),
            "audit at 600.000000s: P1sdw reflects receipt of seq 1728 from "
            "P2, which does not reflect sending it");
  EXPECT_EQ(r.failures.back(),
            "final at 1200.000000s: P1sdw reflects receipt of seq 1730 from "
            "P2, which does not reflect sending it");
  EXPECT_EQ(r.corrupt_reads, 7u);
  EXPECT_EQ(r.torn_writes, 6u);
  EXPECT_EQ(r.monitor.line_inconsistencies, 396u);
  EXPECT_EQ(r.monitor.relines, 135u);

  const DiffStats s = run_differential(cc, kFailingSeed);
  EXPECT_EQ(s.slices, 240u);
  EXPECT_GT(s.lines_with_violations, 0u);
}

// The memo's whole point: audits decode a record only when it is new to
// them. After a long mission, auditing the unchanged final line again
// reads the stores but decodes nothing.
TEST(AuditDiff, LongMissionDecodesEachAuditedRecordOnce) {
  CampaignConfig cc;
  cc.mission = Duration::seconds(1200);
  const std::uint64_t seed = 12966619160104079557ULL;  // chaos --seed 1, #0
  const SystemConfig sc = mission_system_config(cc, seed);
  System system(sc);
  const TimePoint start = TimePoint::origin();
  arm_fault_schedule(system, FaultSchedule::generate(seed, cc.rates, start,
                                                     cc.mission, sc.clock.rho,
                                                     kNumCanonicalProcesses));
  for (TimePoint t = start + cc.audit_interval; t < start + cc.mission;
       t += cc.audit_interval) {
    system.sim().schedule_at(t, [&system] {
      EXPECT_TRUE(system.stable_line_violations().empty());
    });
  }
  system.start(start + cc.mission);
  system.run();
  auto totals = [&system] {
    std::pair<std::uint64_t, std::uint64_t> read_decoded{0, 0};
    for (std::uint32_t p = 0; p < kNumCanonicalProcesses; ++p) {
      const StableStore& store = system.node(ProcessId{p}).sstore();
      read_decoded.first += store.read_bytes();
      read_decoded.second += store.decoded_bytes();
    }
    return read_decoded;
  };
  const auto [read, decoded] = totals();
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(read, decoded);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(system.stable_line_violations().empty());
  }
  const auto [reread, redecoded] = totals();
  EXPECT_GT(reread, read);
  EXPECT_EQ(redecoded, decoded);
}

}  // namespace
}  // namespace synergy
