#include "storage/stable_store.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/assert.hpp"

namespace synergy {
namespace {

// Identities are process-wide so that a tuple of them names one set of
// stored bytes even across stores (and missions on other threads).
std::atomic<RecordId> g_next_record_id{1};

}  // namespace

Duration StableStore::write_latency_for(const CheckpointRecord& record) const {
  const auto kib =
      static_cast<std::int64_t>((record.encoded_size() + 1023) / 1024);
  return params_.write_base_latency + params_.write_per_kib * kib;
}

void StableStore::begin_write(CheckpointRecord record,
                              CommitCallback on_commit) {
  SYNERGY_EXPECTS(!in_progress_.has_value());
  const Duration latency = write_latency_for(record);
  in_progress_ = InProgress{std::move(record), std::move(on_commit), {}, 0,
                            sim_.now() + latency};
  in_progress_->handle = sim_.schedule_after(latency, [this] { commit(); });
}

void StableStore::replace_in_progress(CheckpointRecord record) {
  SYNERGY_EXPECTS(in_progress_.has_value());
  sim_.cancel(in_progress_->handle);
  ++replace_aborts_;
  const Duration latency = write_latency_for(record);
  in_progress_->record = std::move(record);
  in_progress_->attempt = 0;
  in_progress_->expected_commit = sim_.now() + latency;
  in_progress_->handle = sim_.schedule_after(latency, [this] { commit(); });
}

std::optional<TimePoint> StableStore::write_deadline() const {
  if (!in_progress_) return std::nullopt;
  return in_progress_->expected_commit;
}

void StableStore::forget(Committed& c) {
  c.id = g_next_record_id.fetch_add(1, std::memory_order_relaxed);
  c.verdict = Verdict::kUnknown;
}

void StableStore::retain(StableSeq ndc, Bytes encoded, bool whole) {
  // Same-index re-commit (post-recovery line refresh) replaces in place.
  auto it = std::find_if(history_.begin(), history_.end(),
                         [ndc](const Committed& c) { return c.ndc == ndc; });
  if (it == history_.end()) {
    it = history_.emplace(history_.end());
    it->ndc = ndc;
  }
  it->encoded = std::move(encoded);
  forget(*it);
  if (whole) it->verdict = Verdict::kIntact;
  if (history_.size() > kHistoryDepth) {
    history_.erase(history_.begin());
  }
}

void StableStore::commit() {
  SYNERGY_ASSERT(in_progress_.has_value());

  // Transient write error: the device rejected the write. Retry with
  // doubling backoff (plus a full re-transfer) up to the budget, then
  // abandon the write — the record is lost exactly like a crash abort,
  // and the next checkpoint interval (or the write watchdog) makes up
  // for it.
  if (params_.faults.write_error_probability > 0.0 &&
      fault_rng_.bernoulli(params_.faults.write_error_probability)) {
    if (in_progress_->attempt < params_.faults.max_write_retries) {
      ++write_retries_;
      Duration backoff = params_.faults.retry_backoff;
      for (std::size_t i = 0; i < in_progress_->attempt; ++i) backoff = backoff * 2;
      ++in_progress_->attempt;
      const Duration latency = backoff + write_latency_for(in_progress_->record);
      in_progress_->expected_commit = sim_.now() + latency;
      in_progress_->handle = sim_.schedule_after(latency, [this] { commit(); });
      return;
    }
    ++failed_writes_;
    abandoned_ = std::move(in_progress_->record);
    in_progress_.reset();
    return;
  }

  ByteWriter w;
  in_progress_->record.serialize(w);
  bytes_written_ += w.data().size();
  const StableSeq ndc = in_progress_->record.ndc;
  Bytes encoded = w.take();
  bool torn = false;

  // Torn write: only a prefix of the record reaches the platter, but the
  // writer is told the commit succeeded. The CRC inside the encoding makes
  // the damage detectable at the next read.
  if (params_.faults.torn_write_probability > 0.0 &&
      fault_rng_.bernoulli(params_.faults.torn_write_probability) &&
      encoded.size() > 1) {
    const auto keep = static_cast<std::size_t>(fault_rng_.uniform_int(
        1, static_cast<std::int64_t>(encoded.size()) - 1));
    encoded.resize(keep);
    ++torn_writes_;
    torn = true;
  }

  retain(ndc, std::move(encoded), !torn);
  ++commits_;
  apply_post_commit_faults();
  CommitCallback cb = std::move(in_progress_->on_commit);
  CheckpointRecord rec = std::move(in_progress_->record);
  in_progress_.reset();
  if (cb) cb(rec);
}

void StableStore::apply_post_commit_faults() {
  if (params_.faults.latent_corruption_probability <= 0.0 ||
      history_.empty() ||
      !fault_rng_.bernoulli(params_.faults.latent_corruption_probability)) {
    return;
  }
  auto& victim = history_[static_cast<std::size_t>(fault_rng_.uniform_int(
      0, static_cast<std::int64_t>(history_.size()) - 1))];
  if (victim.encoded.empty()) return;
  const auto byte = static_cast<std::size_t>(fault_rng_.uniform_int(
      0, static_cast<std::int64_t>(victim.encoded.size()) - 1));
  const auto bit = static_cast<int>(fault_rng_.uniform_int(0, 7));
  victim.encoded[byte] ^= static_cast<std::uint8_t>(1u << bit);
  forget(victim);
  ++latent_corruptions_;
}

void StableStore::commit_now(CheckpointRecord record) {
  crash_abort_in_progress();
  ByteWriter w;
  record.serialize(w);
  bytes_written_ += w.data().size();
  retain(record.ndc, w.take(), true);
  ++commits_;
}

std::optional<CheckpointRecord> StableStore::decode(const Committed& c) const {
  decoded_bytes_ += c.encoded.size();
  ByteReader r(c.encoded);
  auto rec = CheckpointRecord::try_deserialize(r);
  // Record-boundary check: a stored blob is exactly one record. Trailing
  // bytes mean the blob is not what the writer produced (overlong torn
  // read, appended garbage) even when the record's own CRC happens to
  // pass — treat it as corrupt, never hand back state plus junk.
  if (rec && !r.exhausted()) rec.reset();
  c.verdict = rec ? Verdict::kIntact : Verdict::kCorrupt;
  return rec;
}

bool StableStore::intact(const Committed& c) const {
  read_bytes_ += c.encoded.size();
  if (c.verdict == Verdict::kUnknown) decode(c);
  return c.verdict == Verdict::kIntact;
}

std::optional<CheckpointRecord> StableStore::load(const Committed& c) const {
  read_bytes_ += c.encoded.size();
  if (c.verdict == Verdict::kCorrupt) return std::nullopt;
  return decode(c);
}

const StableStore::Committed* StableStore::find(StableSeq ndc) const {
  for (const auto& c : history_) {
    if (c.ndc == ndc) return &c;
  }
  return nullptr;
}

std::optional<CheckpointRecord> StableStore::latest_committed() const {
  ++reads_;
  for (auto it = history_.rbegin(); it != history_.rend(); ++it) {
    if (auto rec = load(*it)) return rec;
    ++corrupt_reads_;
  }
  return std::nullopt;
}

StableSeq StableStore::latest_ndc() const {
  return history_.empty() ? 0 : history_.back().ndc;
}

StableSeq StableStore::latest_valid_ndc() const {
  ++reads_;
  for (auto it = history_.rbegin(); it != history_.rend(); ++it) {
    if (intact(*it)) return it->ndc;
  }
  return 0;
}

std::optional<CheckpointRecord> StableStore::committed_for(
    StableSeq ndc) const {
  ++reads_;
  const Committed* c = find(ndc);
  if (c == nullptr) return std::nullopt;
  auto rec = load(*c);
  if (!rec) ++corrupt_reads_;
  return rec;
}

std::optional<CheckpointRecord> StableStore::best_valid_at_most(
    StableSeq ndc) const {
  ++reads_;
  for (auto it = history_.rbegin(); it != history_.rend(); ++it) {
    if (it->ndc > ndc) continue;
    if (auto rec = load(*it)) return rec;
    ++corrupt_reads_;
  }
  return std::nullopt;
}

bool StableStore::has_valid(StableSeq ndc) const {
  ++reads_;
  const Committed* c = find(ndc);
  return c != nullptr && intact(*c);
}

RecordId StableStore::valid_id(StableSeq ndc) const {
  ++reads_;
  const Committed* c = find(ndc);
  if (c == nullptr) return 0;
  if (intact(*c)) return c->id;
  ++corrupt_reads_;
  return 0;
}

RecordId StableStore::latest_valid_id() const {
  ++reads_;
  for (auto it = history_.rbegin(); it != history_.rend(); ++it) {
    if (intact(*it)) return it->id;
    ++corrupt_reads_;
  }
  return 0;
}

std::optional<CheckpointRecord> StableStore::record(RecordId id) const {
  ++reads_;
  for (const auto& c : history_) {
    if (c.id == id) return load(c);
  }
  return std::nullopt;
}

const Bytes* StableStore::stored_bytes(StableSeq ndc) const {
  const Committed* c = find(ndc);
  return c ? &c->encoded : nullptr;
}

std::vector<StableSeq> StableStore::retained_ndcs() const {
  std::vector<StableSeq> out;
  out.reserve(history_.size());
  for (const auto& c : history_) out.push_back(c.ndc);
  return out;
}

void StableStore::discard_above(StableSeq ndc) {
  std::erase_if(history_,
                [ndc](const Committed& c) { return c.ndc > ndc; });
  // Survivors' bytes are untouched, but the retained set changed under
  // recovery: re-identify them rather than reason about which derived
  // audits still hold. At most one fresh decode per survivor.
  for (auto& c : history_) forget(c);
}

StableStore::HandoffOutcome StableStore::handoff(std::size_t keep_depth,
                                                 Duration drain_window) {
  HandoffOutcome out;
  ++handoffs_;
  if (in_progress_) {
    if (in_progress_->expected_commit <= sim_.now() + drain_window) {
      // The write finishes before the old station goes out of reach:
      // leave it running (its commit lands in the migrated history, since
      // retention below only truncates what exists *now*).
      out.write_drained = true;
    } else {
      // Too slow to drain: abandon it and park the record for the write
      // watchdog, which forces the same contents through at the new home
      // — the checkpoint built at the interval boundary is preserved, not
      // re-fabricated from a later state.
      sim_.cancel(in_progress_->handle);
      ++failed_writes_;
      abandoned_ = std::move(in_progress_->record);
      in_progress_.reset();
      out.write_abandoned = true;
    }
  }
  // Migrate newest-first up to the transfer budget; older records stay at
  // the old station and are lost to this process.
  if (history_.size() > keep_depth) {
    out.dropped = history_.size() - keep_depth;
    history_.erase(history_.begin(),
                   history_.begin() +
                       static_cast<std::ptrdiff_t>(out.dropped));
  }
  out.migrated = history_.size();
  // The history now lives at another station: re-identify what migrated.
  for (auto& c : history_) forget(c);
  return out;
}

void StableStore::crash_abort_in_progress() {
  if (!in_progress_) return;
  sim_.cancel(in_progress_->handle);
  in_progress_.reset();
  ++crash_aborts_;
}

bool StableStore::corrupt_retained(StableSeq ndc) {
  for (auto& c : history_) {
    if (c.ndc == ndc && !c.encoded.empty()) {
      c.encoded[c.encoded.size() / 2] ^= 0x10;
      forget(c);
      ++latent_corruptions_;
      return true;
    }
  }
  return false;
}

bool StableStore::pad_retained(StableSeq ndc, std::size_t extra) {
  for (auto& c : history_) {
    if (c.ndc == ndc) {
      c.encoded.insert(c.encoded.end(), extra, std::uint8_t{0xA5});
      forget(c);
      ++latent_corruptions_;
      return true;
    }
  }
  return false;
}

bool StableStore::truncate_retained(StableSeq ndc, std::size_t keep) {
  for (auto& c : history_) {
    if (c.ndc == ndc && keep < c.encoded.size()) {
      c.encoded.resize(keep);
      forget(c);
      ++torn_writes_;
      return true;
    }
  }
  return false;
}

}  // namespace synergy
