#include "mdcd/p1sdw.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace synergy {

P1SdwEngine::P1SdwEngine(const MdcdConfig& config, ProcessServices services)
    : MdcdEngine(Role::kP1Sdw, config, std::move(services)) {}

void P1SdwEngine::do_app_send(bool external, std::uint64_t input) {
  // Vote before computing the outgoing value — in guarded mode too: the
  // suppressed log must never record a suspect payload (takeover replays
  // it). A divergence aborts; the voter already requested a rollback.
  if (!vote_lanes()) return;
  app_local_step(input);
  const std::uint64_t payload = services_.app->output();
  const bool tainted = services_.app->tainted();
  ++msg_sn_;

  if (active_) {
    active_send(external, payload, tainted);
    return;
  }

  // Guarded operation: suppress and log (Figure 9).
  Message m = external
                  ? base_message(MsgKind::kExternal, kDeviceId, payload,
                                 tainted)
                  : base_message(MsgKind::kInternal, kP2, payload, tainted);
  m.sn = msg_sn_;
  m.dirty = dirty_;
  m.contam_sn = dirty_ ? dirty_contam_ : 0;
  msg_log_.push_back(m);
  trace(TraceKind::kSuppressSend, std::string(to_string(m.kind)), m.sn);
}

void P1SdwEngine::active_send(bool external, std::uint64_t payload,
                              bool tainted) {
  // Post-takeover behaviour mirrors P2's algorithm: AT-validate external
  // messages only when potentially contaminated.
  if (external) {
    if (dirty_) {
      SYNERGY_ASSERT(services_.at != nullptr);
      if (services_.at->run(tainted)) {
        trace(TraceKind::kAtPass, "external", msg_sn_);
        note_validation(msg_sn_);
        clear_dirty();
        if (config_.variant == MdcdVariant::kOriginal) {
          establish_volatile_checkpoint(CkptKind::kType2);
        }
        notify_validation();
        Message ext =
            base_message(MsgKind::kExternal, kDeviceId, payload, tainted);
        ext.sn = msg_sn_;
        send_recorded(std::move(ext), /*suspect=*/false);
        Message note = base_message(MsgKind::kPassedAt, kP2, 0, false);
        note.sn = msg_sn_;
        send_recorded(std::move(note), /*suspect=*/false);
      } else {
        trace(TraceKind::kAtFail, "external", msg_sn_);
        services_.request_sw_recovery(self());
      }
      return;
    }
    Message ext =
        base_message(MsgKind::kExternal, kDeviceId, payload, tainted);
    ext.sn = msg_sn_;
    send_recorded(std::move(ext), /*suspect=*/false);
    return;
  }
  Message m = base_message(MsgKind::kInternal, kP2, payload, tainted);
  m.sn = msg_sn_;
  m.dirty = dirty_;
  m.contam_sn = dirty_ ? dirty_contam_ : 0;
  send_recorded(std::move(m), /*suspect=*/dirty_);
}

void P1SdwEngine::do_passed_at(const Message& m) {
  if (!ndc_gate_ok(m)) return;
  // VR := last valid message SN of P1act; reclaim the validated prefix of
  // the suppressed-message log (Figure 9).
  vr_p1act_ = std::max(vr_p1act_, m.sn);
  msg_log_.erase(
      std::remove_if(msg_log_.begin(), msg_log_.end(),
                     [this](const Message& logged) {
                       return logged.sn <= vr_p1act_;
                     }),
      msg_log_.end());
  note_validation(m.sn);
  if (dirty_ && validation_covers_dirt(m.sn)) {
    clear_dirty();
    if (config_.variant == MdcdVariant::kOriginal) {
      establish_volatile_checkpoint(CkptKind::kType2);
    }
  }
  notify_validation();
}

void P1SdwEngine::do_app_message(const Message& m) {
  // Type-1 checkpoint immediately before the state becomes potentially
  // contaminated (Figure 9: dirty message arriving at a clean process).
  // The raw flag drives contamination; the watermark-scoped flag drives
  // only the validity view (see MdcdEngine::effectively_dirty).
  if (m.dirty && !dirty_) {
    establish_volatile_checkpoint(CkptKind::kType1);
    mark_dirty();
  }
  if (m.dirty) absorb_contamination(m);
  record_recv(m, effectively_dirty(m));
  app_apply_message(m.payload, m.tainted);
  trace(TraceKind::kDeliverApp, std::string(to_string(m.kind)), m.sn);
}

std::size_t P1SdwEngine::takeover() {
  SYNERGY_EXPECTS(!active_);
  active_ = true;
  bump_protocol_version();  // active_ + msg_log_ are serialized role state
  trace(TraceKind::kTakeover);
  std::size_t replayed = 0;
  SmallVec<Message, 4> log = std::move(msg_log_);
  msg_log_.clear();  // moved-from is already empty; be explicit
  for (Message& m : log) {
    if (m.sn <= vr_p1act_) {
      // P1act's equivalent message was validated and consumed; re-sending
      // ours would duplicate it semantically.
      trace(TraceKind::kReplayDrop, std::string(to_string(m.kind)), m.sn);
      continue;
    }
    m.dirty = dirty_;
    m.contam_sn = dirty_ ? dirty_contam_ : 0;
    m.epoch = epoch();
    m.ndc = ndc();
    trace(TraceKind::kReplaySend, std::string(to_string(m.kind)), m.sn);
    send_recorded(std::move(m), /*suspect=*/dirty_);
    ++replayed;
  }
  return replayed;
}

void P1SdwEngine::serialize_role_state(ByteWriter& w) const {
  w.u8(active_ ? 1 : 0);
  w.u64(vr_p1act_);
  w.u32(static_cast<std::uint32_t>(msg_log_.size()));
  for (const auto& m : msg_log_) m.serialize(w);
}

std::size_t P1SdwEngine::role_state_size() const {
  std::size_t n = 1 + 8 + 4;
  for (const auto& m : msg_log_) n += m.encoded_size();
  return n;
}

void P1SdwEngine::deserialize_role_state(ByteReader& r) {
  active_ = r.u8() != 0;
  vr_p1act_ = r.u64();
  msg_log_.clear();
  const std::uint32_t n = r.u32();
  msg_log_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    msg_log_.push_back(Message::deserialize(r));
  }
}

}  // namespace synergy
