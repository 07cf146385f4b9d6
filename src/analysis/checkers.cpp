#include "analysis/checkers.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

namespace synergy {
namespace {

AuditFacts::Log compact(const ViewLog& log) {
  AuditFacts::Log out;
  auto& runs = out.runs;
  auto run_of = [&runs](std::uint32_t peer) {
    return std::lower_bound(
        runs.begin(), runs.end(), peer,
        [](const AuditFacts::Run& r, std::uint32_t p) { return r.peer < p; });
  };
  const auto& e = log.entries();
  const auto n = static_cast<std::uint32_t>(e.size());
  // Count views per peer, then place them run by run in log order.
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t peer = e[i].peer.value();
    auto it = run_of(peer);
    if (it == runs.end() || it->peer != peer) {
      it = runs.insert(it, AuditFacts::Run{peer, 0, 0});
    }
    ++it->end;
  }
  std::uint32_t offset = 0;
  for (AuditFacts::Run& r : runs) {
    r.begin = offset;
    offset += r.end;
    r.end = r.begin;
  }
  out.views.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    out.views[run_of(e[i].peer.value())->end++] = AuditFacts::View{
        e[i].transport_seq, i, e[i].kind == MsgKind::kInternal, e[i].suspect};
  }
  // Logs grow in send/delivery order: a run that already ascends (sent
  // views, in-order deliveries) needs no sort; reordered or re-sent
  // deliveries cost one stable sort of their run.
  auto by_seq = [](const AuditFacts::View& x, const AuditFacts::View& y) {
    return x.transport_seq < y.transport_seq;
  };
  for (const AuditFacts::Run& r : runs) {
    const auto first = out.views.begin() + r.begin;
    const auto last = out.views.begin() + r.end;
    if (!std::is_sorted(first, last, by_seq)) {
      std::stable_sort(first, last, by_seq);
    }
  }
  return out;
}

const AuditFacts* find(const AuditState& state, ProcessId id) {
  for (const AuditFacts* p : state) {
    if (p->id == id) return p;
  }
  return nullptr;
}

// Merge the internal views of `run` (in `mine`) against the views of
// `other` (in `theirs`, null when the peer logged none) by transport
// sequence number: `visit(view, match)` sees each internal view and the
// first matching view on the other side, or null.
template <class Visit>
void merge_run(const AuditFacts::Log& mine, const AuditFacts::Run& run,
               const AuditFacts::Log& theirs, const AuditFacts::Run* other,
               Visit visit) {
  std::uint32_t j = other ? other->begin : 0;
  const std::uint32_t j_end = other ? other->end : 0;
  for (std::uint32_t k = run.begin; k < run.end; ++k) {
    const AuditFacts::View& v = mine.views[k];
    if (!v.internal) continue;
    while (j < j_end && theirs.views[j].transport_seq < v.transport_seq) ++j;
    const bool hit =
        j < j_end && theirs.views[j].transport_seq == v.transport_seq;
    visit(v, hit ? &theirs.views[j] : nullptr);
  }
}

// One process's findings, reported in its log order.
class Findings {
 public:
  void add(std::uint32_t pos, Violation v) { items_.emplace_back(pos, v); }
  void append_to(std::vector<Violation>& out) {
    std::sort(items_.begin(), items_.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    for (const auto& item : items_) out.push_back(item.second);
  }

 private:
  std::vector<std::pair<std::uint32_t, Violation>> items_;
};

template <class Check>
std::vector<Violation> on_global_state(const GlobalState& state, Check check) {
  std::vector<AuditFacts> facts;
  facts.reserve(state.processes.size());
  AuditState view;
  view.reserve(state.processes.size());
  for (const ProcessFacts& p : state.processes) {
    view.push_back(&facts.emplace_back(p));
  }
  return check(view);
}

}  // namespace

const AuditFacts::Run* AuditFacts::Log::run(ProcessId peer) const {
  auto it = std::lower_bound(
      runs.begin(), runs.end(), peer.value(),
      [](const Run& r, std::uint32_t p) { return r.peer < p; });
  return it != runs.end() && it->peer == peer.value() ? &*it : nullptr;
}

AuditFacts::AuditFacts(const ProcessFacts& facts)
    : id(facts.id),
      state_time(facts.state_time),
      dirty(facts.dirty),
      sent(compact(facts.sent)),
      recv(compact(facts.recv)) {
  unacked.reserve(facts.unacked.size());
  for (const Message& m : facts.unacked) unacked.push_back(m.transport_seq);
  std::sort(unacked.begin(), unacked.end());
}

bool AuditFacts::can_resend(std::uint64_t transport_seq) const {
  return std::binary_search(unacked.begin(), unacked.end(), transport_seq);
}

std::string Violation::describe() const {
  std::ostringstream out;
  switch (kind) {
    case Kind::kReceivedNotSent:
      out << to_string(a) << " reflects receipt of seq " << transport_seq
          << " from " << to_string(b) << ", which does not reflect sending it";
      break;
    case Kind::kValidityMismatch:
      out << to_string(a) << " and " << to_string(b)
          << " disagree on the validity of seq " << transport_seq;
      break;
    case Kind::kLostMessage:
      out << to_string(a) << " reflects sending seq " << transport_seq
          << " to " << to_string(b)
          << ", which neither reflects it nor can it be re-sent";
      break;
    case Kind::kDirtyRestoredState:
      out << to_string(a)
          << " restored a potentially contaminated state: software error "
             "recovery is no longer possible";
      break;
  }
  return out.str();
}

std::vector<Violation> check_consistency(const AuditState& state) {
  std::vector<Violation> violations;
  for (const AuditFacts* receiver : state) {
    Findings found;
    for (const AuditFacts::Run& run : receiver->recv.runs) {
      const ProcessId sid{run.peer};
      const AuditFacts* sender = find(state, sid);
      if (sender == nullptr) continue;  // peer outside the examined state
      merge_run(receiver->recv, run, sender->sent,
                sender->sent.run(receiver->id),
                [&](const AuditFacts::View& v, const AuditFacts::View* sent) {
                  if (sent == nullptr) {
                    found.add(v.pos, {Violation::Kind::kReceivedNotSent,
                                      receiver->id, sid, v.transport_seq});
                  } else if (sent->suspect != v.suspect) {
                    found.add(v.pos, {Violation::Kind::kValidityMismatch,
                                      receiver->id, sid, v.transport_seq});
                  }
                });
    }
    found.append_to(violations);
  }
  return violations;
}

std::vector<Violation> check_recoverability(const AuditState& state) {
  std::vector<Violation> violations;
  for (const AuditFacts* sender : state) {
    Findings found;
    for (const AuditFacts::Run& run : sender->sent.runs) {
      const ProcessId rid{run.peer};
      const AuditFacts* receiver = find(state, rid);
      if (receiver == nullptr) continue;
      merge_run(sender->sent, run, receiver->recv,
                receiver->recv.run(sender->id),
                [&](const AuditFacts::View& v, const AuditFacts::View* recv) {
                  if (recv != nullptr) {
                    if (recv->suspect != v.suspect) {
                      found.add(v.pos, {Violation::Kind::kValidityMismatch,
                                        sender->id, rid, v.transport_seq});
                    }
                  } else if (!sender->can_resend(v.transport_seq)) {
                    found.add(v.pos, {Violation::Kind::kLostMessage,
                                      sender->id, rid, v.transport_seq});
                  }
                });
    }
    found.append_to(violations);
  }
  return violations;
}

std::vector<Violation> check_software_recoverability(const AuditState& state) {
  std::vector<Violation> violations;
  for (const AuditFacts* p : state) {
    // P1act is invariably regarded as potentially contaminated while
    // guarded; software recovery replaces it wholesale, so a "dirty"
    // restored P1act is not a hazard. Under the modified protocol its
    // contamination flag is the pseudo dirty bit and participates fully.
    if (p->id == kP1Act) continue;
    if (p->dirty) {
      violations.push_back(
          Violation{Violation::Kind::kDirtyRestoredState, p->id, p->id, 0});
    }
  }
  return violations;
}

std::vector<Violation> check_all(const AuditState& state) {
  std::vector<Violation> all = check_consistency(state);
  auto rec = check_recoverability(state);
  all.insert(all.end(), rec.begin(), rec.end());
  auto sw = check_software_recoverability(state);
  all.insert(all.end(), sw.begin(), sw.end());
  return all;
}

std::vector<Violation> check_consistency(const GlobalState& state) {
  return on_global_state(
      state, [](const AuditState& s) { return check_consistency(s); });
}

std::vector<Violation> check_recoverability(const GlobalState& state) {
  return on_global_state(
      state, [](const AuditState& s) { return check_recoverability(s); });
}

std::vector<Violation> check_software_recoverability(const GlobalState& state) {
  return on_global_state(state, [](const AuditState& s) {
    return check_software_recoverability(s);
  });
}

std::vector<Violation> check_all(const GlobalState& state) {
  return on_global_state(state,
                         [](const AuditState& s) { return check_all(s); });
}

}  // namespace synergy
