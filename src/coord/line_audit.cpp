#include "coord/line_audit.hpp"

#include <algorithm>

#include "analysis/global_state.hpp"
#include "common/assert.hpp"

namespace synergy {
namespace {

// Distinct record tuples kept with their verdicts: the monitor's line, the
// hardened line and a few candidates the selection walks past.
constexpr std::size_t kVerdictCapacity = 8;

// The slot a new entry takes: a fresh one below `capacity`, else the
// least recently used.
template <class Entry>
Entry& lru_slot(std::vector<Entry>& list, std::size_t capacity) {
  if (list.size() < capacity) return list.emplace_back();
  return *std::min_element(
      list.begin(), list.end(),
      [](const Entry& a, const Entry& b) { return a.used < b.used; });
}

}  // namespace

LineAudit::LineAudit(std::size_t facts_capacity)
    : facts_capacity_(facts_capacity) {
  SYNERGY_EXPECTS(facts_capacity > 0);
}

std::shared_ptr<const AuditFacts> LineAudit::facts(const StoredRecord& rec) {
  ++clock_;
  for (CachedFacts& f : facts_) {
    if (f.id == rec.id) {
      f.used = clock_;
      return f.facts;
    }
  }
  const auto record = rec.store->record(rec.id);
  SYNERGY_ASSERT(record.has_value());
  CachedFacts& slot = lru_slot(facts_, facts_capacity_);
  slot = {rec.id, clock_,
          std::make_shared<const AuditFacts>(facts_from_record(*record))};
  return slot.facts;
}

LineAudit::Verdict& LineAudit::verdict(const std::vector<StoredRecord>& cut) {
  ++clock_;
  std::vector<RecordId> key;
  key.reserve(cut.size());
  for (const StoredRecord& r : cut) key.push_back(r.id);
  for (Verdict& v : verdicts_) {
    if (v.key == key) {
      v.used = clock_;
      return v;
    }
  }
  Verdict& slot = lru_slot(verdicts_, kVerdictCapacity);
  slot = Verdict{};
  slot.key = std::move(key);
  slot.used = clock_;
  return slot;
}

AuditState LineAudit::state(const std::vector<StoredRecord>& cut,
                              FactsRefs& refs) {
  AuditState out;
  out.reserve(cut.size());
  for (const StoredRecord& r : cut) {
    refs.push_back(facts(r));
    out.push_back(refs.back().get());
  }
  return out;
}

const std::vector<Violation>& LineAudit::consistency(
    Verdict& v, const AuditState& state) {
  if (!v.consistency) v.consistency = check_consistency(state);
  return *v.consistency;
}

const std::vector<Violation>& LineAudit::violations(
    const std::vector<StoredRecord>& cut) {
  Verdict& v = verdict(cut);
  if (!v.all) {
    FactsRefs refs;
    const AuditState s = state(cut, refs);
    std::vector<Violation> all = consistency(v, s);
    for (auto more : {check_recoverability(s), check_software_recoverability(s)}) {
      all.insert(all.end(), more.begin(), more.end());
    }
    v.all = std::move(all);
  }
  return *v.all;
}

std::size_t LineAudit::line_consistency(const std::vector<ProcessNode*>& nodes,
                                        StableSeq line) {
  std::vector<StoredRecord> cut;
  for (ProcessNode* n : nodes) {
    const RecordId id = n->sstore().valid_id(line);
    if (id == 0) return 0;  // mid-commit: skip this audit
    cut.push_back({&n->sstore(), id});
  }
  Verdict& v = verdict(cut);
  if (!v.consistency) {
    FactsRefs refs;
    consistency(v, state(cut, refs));
  }
  return v.consistency->size();
}

std::optional<StableSeq> LineAudit::restorable_line(
    const std::vector<ProcessNode*>& nodes) {
  StableSeq hi = ~StableSeq{0};
  StableSeq lo = 0;
  bool any = false;
  for (ProcessNode* n : nodes) {
    if (n->retired() || !n->has_stable_storage()) continue;
    any = true;
    hi = std::min(hi, n->sstore().latest_valid_ndc());
    const auto retained = n->sstore().retained_ndcs();
    if (!retained.empty()) lo = std::max(lo, retained.front());
  }
  if (!any) return std::nullopt;
  for (StableSeq cand = hi; cand + 1 > lo; --cand) {
    std::vector<StoredRecord> cut;
    bool ok = true;
    for (ProcessNode* n : nodes) {
      if (n->retired() || !n->has_stable_storage()) continue;
      const RecordId id = n->sstore().valid_id(cand);
      if (id == 0) {
        ok = false;
        break;
      }
      cut.push_back({&n->sstore(), id});
    }
    if (ok && violations(cut).empty()) return cand;
    if (cand == 0) break;  // unsigned: don't wrap below zero
  }
  return std::nullopt;
}

std::vector<std::optional<StableSeq>> LineAudit::write_through_cut(
    const std::vector<ProcessNode*>& nodes) {
  const std::size_t n = nodes.size();
  // Intact records per node, newest first: (index, identity).
  std::vector<std::vector<std::pair<StableSeq, RecordId>>> recs(n);
  std::vector<std::size_t> idx(n, 0);
  std::size_t steps = 1;
  for (std::size_t i = 0; i < n; ++i) {
    ProcessNode* node = nodes[i];
    if (node->retired() || !node->has_stable_storage()) continue;
    const auto retained = node->sstore().retained_ndcs();
    for (auto it = retained.rbegin(); it != retained.rend(); ++it) {
      if (const RecordId id = node->sstore().valid_id(*it)) {
        recs[i].emplace_back(*it, id);
      }
    }
    if (recs[i].empty()) return {};  // nothing decodable: degraded fallback
    steps += recs[i].size();
  }

  auto at = [&](std::size_t i) {
    return StoredRecord{&nodes[i]->sstore(), recs[i][idx[i]].second};
  };
  while (steps-- > 0) {
    std::vector<StoredRecord> cut;
    for (std::size_t i = 0; i < n; ++i) {
      if (!recs[i].empty()) cut.push_back(at(i));
    }
    if (cut.empty()) return {};
    if (violations(cut).empty()) {
      std::vector<std::optional<StableSeq>> out(n);
      for (std::size_t i = 0; i < n; ++i) {
        if (!recs[i].empty()) out[i] = recs[i][idx[i]].first;
      }
      return out;
    }
    // Orphan receipts only exist while some node's cut runs ahead of a
    // peer's: rolling the newest-state node back one record is the only
    // monotone repair. The cut was just audited, so its facts are cached.
    auto state_time = [&](std::size_t i) { return facts(at(i))->state_time; };
    std::size_t victim = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (recs[i].empty() || idx[i] + 1 >= recs[i].size()) continue;
      if (victim == n || state_time(i) > state_time(victim)) victim = i;
    }
    if (victim == n) return {};  // descent exhausted: degraded fallback
    ++idx[victim];
  }
  return {};
}

}  // namespace synergy
