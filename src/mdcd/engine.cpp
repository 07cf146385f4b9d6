#include "mdcd/engine.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "redundant/lanes.hpp"

namespace synergy {

MdcdEngine::MdcdEngine(Role role, const MdcdConfig& config,
                       ProcessServices services)
    : role_(role), config_(config), services_(std::move(services)) {
  SYNERGY_EXPECTS(services_.now != nullptr);
  SYNERGY_EXPECTS(services_.transport != nullptr);
  SYNERGY_EXPECTS(services_.vstore != nullptr);
  SYNERGY_EXPECTS(services_.app != nullptr);
}

void MdcdEngine::trace(TraceKind kind, std::string_view detail,
                       std::uint64_t a, std::uint64_t b) const {
  if (services_.trace) {
    services_.trace->record(now(), self(), kind, std::string(detail), a, b);
  }
}

void MdcdEngine::set_ndc_provider(std::function<StableSeq()> fn) {
  SYNERGY_EXPECTS(fn != nullptr);
  ndc_provider_ = std::move(fn);
}

void MdcdEngine::set_contamination_cleared_observer(std::function<void()> fn) {
  contamination_cleared_ = std::move(fn);
}

void MdcdEngine::notify_contamination_cleared() {
  if (contamination_cleared_) contamination_cleared_();
}

void MdcdEngine::set_validation_observer(std::function<void()> fn) {
  validation_observer_ = std::move(fn);
}

void MdcdEngine::notify_validation() {
  // A validation event restores full redundant coverage: parked lanes are
  // re-synced from the just-validated primary before any observer (e.g.
  // the write-through committer) captures state.
  if (services_.lanes) services_.lanes->resync_parked();
  if (validation_observer_) validation_observer_();
}

// ---- Redundant-execution lanes ---------------------------------------------

void MdcdEngine::app_apply_message(std::uint64_t payload,
                                   bool payload_tainted) {
  if (services_.lanes) {
    services_.lanes->apply_message(payload, payload_tainted);
  } else {
    services_.app->apply_message(payload, payload_tainted);
  }
}

void MdcdEngine::app_local_step(std::uint64_t input) {
  if (services_.lanes) {
    services_.lanes->local_step(input);
  } else {
    services_.app->local_step(input);
  }
}

void MdcdEngine::app_corrupt(std::uint64_t noise) {
  if (services_.lanes) {
    services_.lanes->corrupt(noise);
  } else {
    services_.app->corrupt(noise);
  }
}

bool MdcdEngine::vote_lanes() {
  if (!services_.lanes) return true;
  const bool ok = services_.lanes->vote_for_send();
  // Parked lanes normally wait for a validation event to be re-synced.
  // Once guarded mode ends, MDCD is on leave and validation events stop
  // entirely — but every state is high-confidence by construction (paper
  // §4.2), so an agreeing vote is as validated as the system gets. Without
  // this, one masked fault after takeover would degrade TMR to a DWC pair
  // for the rest of the mission.
  if (ok && !guarded_) services_.lanes->resync_parked();
  return ok;
}

void MdcdEngine::on_confidence_loss() {
  if (!alive_) return;
  if (blocking_) {
    trace(TraceKind::kHoldBlocked, "confidence_loss");
    deferred_.push_back(ConfLossReq{});
    ++deferred_ops_;
    return;
  }
  process_confidence_loss();
}

void MdcdEngine::process_confidence_loss() {
  trace(TraceKind::kConfidenceLoss);
  bump_protocol_version();
  // Anchor the last trusted state immediately before admitting suspicion,
  // mirroring the Type-1 placement before consuming a dirty message.
  if (!contamination_flag()) {
    establish_volatile_checkpoint(CkptKind::kType1);
  }
  note_confidence_loss();
}

void MdcdEngine::note_confidence_loss() { mark_dirty(); }

// ---- Workload events -------------------------------------------------------

void MdcdEngine::on_app_send(bool external, std::uint64_t input) {
  if (!alive_) return;
  if (blocking_) {
    deferred_.push_back(SendReq{external, input});
    ++deferred_ops_;
    return;
  }
  bump_protocol_version();  // role hooks mutate serialized state freely
  do_app_send(external, input);
}

void MdcdEngine::on_local_step(std::uint64_t input) {
  if (!alive_) return;
  if (blocking_) {
    deferred_.push_back(StepReq{input});
    ++deferred_ops_;
    return;
  }
  if (services_.sw_fault) {
    if (auto noise = services_.sw_fault->on_step()) {
      app_corrupt(*noise);
    }
  }
  app_local_step(input);
}

// ---- Transport events -------------------------------------------------------

void MdcdEngine::on_message(const Message& m) {
  if (!alive_) return;
  trace(TraceKind::kReceive, std::string(to_string(m.kind)), m.sn,
        m.transport_seq);
  if (m.kind == MsgKind::kPassedAt) {
    // Modified protocol: passed-AT notifications are monitored even during
    // a blocking period (paper §3, modification 2). Original protocol:
    // blocking holds every message.
    if (blocking_ && config_.variant == MdcdVariant::kOriginal) {
      trace(TraceKind::kHoldBlocked, "passed_AT");
      deferred_.push_back(m);
      ++deferred_ops_;
      return;
    }
    process_passed_at(m);
    return;
  }
  if (blocking_) {
    trace(TraceKind::kHoldBlocked, std::string(to_string(m.kind)), m.sn);
    deferred_.push_back(m);
    ++deferred_ops_;
    return;
  }
  process_app_message(m);
}

void MdcdEngine::process_passed_at(const Message& m) {
  if (!consume_or_drop(m)) return;
  services_.transport->mark_consumed(m);
  // Validation notifications are acknowledged immediately: their effect
  // is a monotone watermark, so redelivery after a rollback is harmless.
  services_.transport->ack(m);
  bump_protocol_version();  // role hooks mutate serialized state freely
  do_passed_at(m);
}

void MdcdEngine::process_app_message(const Message& m) {
  if (!consume_or_drop(m)) return;
  bump_protocol_version();  // role hooks mutate serialized state freely
  do_app_message(m);
  // Marking and acking come after the role handler ran: the Type-1
  // checkpoint it may have established must capture a transport state
  // that does not yet include `m`, and consuming a dirty message may set
  // the contamination flag, deferring the ack.
  services_.transport->mark_consumed(m);
  settle_ack(m);
}

bool MdcdEngine::consume_or_drop(const Message& m) {
  const std::uint32_t fence = m.dirty ? std::max(fence_all_, fence_dirty_)
                                      : fence_all_;
  if (m.epoch < fence) {
    // Stale incarnation: acknowledge (the sender's log entry is moot) but
    // never let it touch the application.
    services_.transport->mark_consumed(m);
    services_.transport->ack(m);
    trace(TraceKind::kStaleDrop, std::string(to_string(m.kind)), m.sn,
          m.epoch);
    return false;
  }
  if (services_.transport->already_consumed(m)) {
    trace(TraceKind::kDuplicate, std::string(to_string(m.kind)), m.sn,
          m.transport_seq);
    if (m.kind == MsgKind::kPassedAt) {
      services_.transport->ack(m);
    } else {
      settle_ack(m);  // duplicate of a consumption that may be unanchored
    }
    return false;
  }
  return true;
}

void MdcdEngine::settle_ack(const Message& m) {
  // Paper-faithful transport semantics: ack at consumption. The original
  // P1act has a constant contamination flag and would defer forever; it
  // acks immediately too (its baselines do not rely on this machinery).
  const bool gated =
      config_.tracking == ContaminationTracking::kWatermark &&
      !(config_.variant == MdcdVariant::kOriginal && role_ == Role::kP1Act);
  if (gated && contamination_flag()) {
    deferred_acks_.push_back(AckKey{m.sender, m.transport_seq});
    return;
  }
  services_.transport->ack(m);
}

void MdcdEngine::flush_deferred_acks() {
  for (const AckKey& key : deferred_acks_) {
    Message m;
    m.sender = key.sender;
    m.transport_seq = key.transport_seq;
    services_.transport->ack(m);
  }
  deferred_acks_.clear();
}

// ---- Blocking ---------------------------------------------------------------

void MdcdEngine::begin_blocking() {
  SYNERGY_EXPECTS(!blocking_);
  blocking_ = true;
  trace(TraceKind::kBlockStart);
}

void MdcdEngine::end_blocking() {
  SYNERGY_EXPECTS(blocking_);
  blocking_ = false;
  trace(TraceKind::kBlockEnd);
  // Drain deferred operations in arrival order. Handlers may re-enter
  // blocking only from the TB layer, which never does so synchronously
  // here; new deferrals during the drain would indicate a logic error.
  std::deque<Deferred> pending;
  pending.swap(deferred_);
  for (auto& op : pending) {
    if (!alive_) break;
    if (auto* send = std::get_if<SendReq>(&op)) {
      bump_protocol_version();
      do_app_send(send->external, send->input);
    } else if (auto* step = std::get_if<StepReq>(&op)) {
      on_local_step(step->input);
    } else if (std::get_if<ConfLossReq>(&op)) {
      process_confidence_loss();
    } else {
      const Message& m = std::get<Message>(op);
      if (m.kind == MsgKind::kPassedAt) {
        process_passed_at(m);
      } else {
        process_app_message(m);
      }
    }
  }
}

// ---- Coordination helpers -----------------------------------------------------

bool MdcdEngine::ndc_gate_ok(const Message& m) {
  if (config_.variant == MdcdVariant::kOriginal) return true;
  StableSeq expected = ndc();
  if (config_.gate_mode == NdcGateMode::kBlockingAware && in_blocking() &&
      contamination_flag() && expected > 0) {
    // Our in-progress checkpoint already carries the incremented Ndc; a
    // peer that has not expired yet reports against the previous line.
    expected -= 1;
  }
  if (m.ndc == expected) return true;
  trace(TraceKind::kNdcGateReject, {}, m.ndc, expected);
  return false;
}

bool MdcdEngine::effectively_dirty(const Message& m) {
  // Validity-VIEW suspicion only. The dirty-bit / Type-1 decision always
  // takes the piggybacked flag at face value: a contaminated sender's
  // stable contents are a pre-send copy, so the receiver's contents must
  // be a pre-receipt copy too — filtering the flag would let a current-
  // state receiver checkpoint reflect a receipt the sender's copy never
  // sent. A stale flag therefore costs a false-alarm anchor (cleared by
  // the next covering validation), never a line split.
  if (!m.dirty) return false;
  if (config_.tracking == ContaminationTracking::kPaperDirtyBit) return true;
  if (m.contam_sn <= validated_w_) {
    trace(TraceKind::kStaleDirtyIgnored, {}, m.contam_sn, validated_w_);
    return false;
  }
  return true;
}

void MdcdEngine::mark_dirty() {
  if (dirty_) return;
  dirty_ = true;
  bump_protocol_version();
  trace(TraceKind::kDirtySet);
}

void MdcdEngine::clear_dirty() {
  if (!dirty_) return;
  dirty_ = false;
  dirty_contam_ = 0;
  bump_protocol_version();
  trace(TraceKind::kDirtyClear);
  if (!contamination_flag()) {
    flush_deferred_acks();
    notify_contamination_cleared();
  }
}

void MdcdEngine::note_validation(MsgSeq watermark) {
  validated_w_ = std::max(validated_w_, watermark);
  bump_protocol_version();
  if (config_.tracking == ContaminationTracking::kPaperDirtyBit) {
    sent_views_.validate_all();
    recv_views_.validate_all();
  } else {
    sent_views_.validate_covered(watermark);
    recv_views_.validate_covered(watermark);
  }
}

bool MdcdEngine::validation_covers_dirt(MsgSeq watermark) const {
  if (config_.tracking == ContaminationTracking::kPaperDirtyBit) return true;
  return dirty_contam_ <= watermark;
}

void MdcdEngine::absorb_contamination(const Message& m) {
  dirty_contam_ = std::max(dirty_contam_, m.contam_sn);
  bump_protocol_version();
}

void MdcdEngine::fence_all_below(std::uint32_t epoch) {
  fence_all_ = std::max(fence_all_, epoch);
}

void MdcdEngine::fence_dirty_below(std::uint32_t epoch) {
  fence_dirty_ = std::max(fence_dirty_, epoch);
}

// ---- Message construction ------------------------------------------------------

Message MdcdEngine::base_message(MsgKind kind, ProcessId to,
                                 std::uint64_t payload, bool tainted) const {
  Message m;
  m.kind = kind;
  m.receiver = to;
  m.payload = payload;
  m.tainted = tainted;
  m.ndc = ndc();
  m.epoch = epoch_;
  return m;
}

void MdcdEngine::send_recorded(Message m, bool suspect) {
  const ProcessId to = m.receiver;
  const MsgSeq sn = m.sn;
  const MsgSeq contam = m.contam_sn;
  const MsgKind kind = m.kind;
  const std::uint64_t seq = services_.transport->send(std::move(m));
  if (config_.record_history && kind != MsgKind::kPassedAt) {
    sent_views_.add(MsgView{to, seq, sn, kind, suspect, contam});
    bump_protocol_version();
  }
  if (tracing()) {
    trace(TraceKind::kSend,
          std::string(to_string(kind)) + "->" + to_string(to), sn, seq);
  }
}

void MdcdEngine::record_recv(const Message& m, bool suspect) {
  if (config_.record_history && m.kind != MsgKind::kPassedAt) {
    recv_views_.add(MsgView{m.sender, m.transport_seq, m.sn, m.kind, suspect,
                            m.contam_sn});
    bump_protocol_version();
  }
}

// ---- Checkpointing ---------------------------------------------------------------

CheckpointRecord MdcdEngine::make_record(CkptKind kind) const {
  // Vote before any capture: a checkpoint must never snapshot an outvoted
  // lane's corruption. A masked vote repairs the primary in place first; an
  // unmaskable divergence still captures (the rollback the voter's caller
  // requests will supersede this record anyway).
  if (services_.lanes) services_.lanes->vote();
  CheckpointRecord rec;
  rec.kind = kind;
  rec.owner = self();
  rec.established_at = now();
  rec.state_time = now();
  rec.dirty_bit = contamination_flag();
  rec.ndc = ndc();
  // Version-cached shared blobs: repeated checkpoints of an unchanged
  // process (e.g. clean-state TB timer expiries) alias the same immutable
  // buffers instead of re-encoding three snapshots per record.
  rec.app_state = services_.app->snapshot_shared();
  rec.protocol_state =
      proto_cache_.get(protocol_version_, [this] {
        return snapshot_protocol_state();
      });
  rec.transport_state = services_.transport->snapshot_state_shared();
  const std::span<const Message> unacked = services_.transport->unacked();
  rec.unacked.assign(unacked.begin(), unacked.end());
  return rec;
}

void MdcdEngine::establish_volatile_checkpoint(CkptKind kind) {
  services_.vstore->save(make_record(kind));
  ++vckpts_;
  trace(TraceKind::kCkptVolatile, to_string(kind));
}

void MdcdEngine::restore_from_record(const CheckpointRecord& record) {
  services_.app->restore(record.app_state);
  restore_protocol_state(record.protocol_state);
  services_.transport->restore_state(record.transport_state);
  services_.transport->restore_unacked(record.unacked);
  deferred_.clear();
  deferred_acks_.clear();  // the rolled-back consumptions never happened
  blocking_ = false;
  // Every replica realigns with the restored primary; latent lane faults
  // were erased by the rollback (counted silent, not detected).
  if (services_.lanes) services_.lanes->resync_after_restore();
}

Bytes MdcdEngine::snapshot_protocol_state() const {
  // One exact-size allocation; each view log goes in as a single copy.
  ByteWriter w;
  w.reserve(1 + 8 + 1 + 8 + 8 + sent_views_.encoded_size() +
            recv_views_.encoded_size() + role_state_size());
  w.u8(dirty_ ? 1 : 0);
  w.u64(msg_sn_);
  w.u8(guarded_ ? 1 : 0);
  w.u64(validated_w_);
  w.u64(dirty_contam_);
  sent_views_.serialize(w);
  recv_views_.serialize(w);
  serialize_role_state(w);
  return w.take();
}

void MdcdEngine::restore_protocol_state(const Bytes& state) {
  ByteReader r(state);
  dirty_ = r.u8() != 0;
  msg_sn_ = r.u64();
  guarded_ = r.u8() != 0;
  validated_w_ = r.u64();
  dirty_contam_ = r.u64();
  sent_views_ = ViewLog::deserialize(r);
  recv_views_ = ViewLog::deserialize(r);
  deserialize_role_state(r);
  // The restored state may differ from whatever the cache last encoded;
  // a conservative bump costs one re-encode, a stale hit would be a bug.
  bump_protocol_version();
}

void MdcdEngine::serialize_role_state(ByteWriter&) const {}
void MdcdEngine::deserialize_role_state(ByteReader&) {}

}  // namespace synergy
