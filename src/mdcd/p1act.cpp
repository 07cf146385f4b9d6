#include "mdcd/p1act.hpp"

#include "common/assert.hpp"

namespace synergy {

P1ActEngine::P1ActEngine(const MdcdConfig& config, ProcessServices services)
    : MdcdEngine(Role::kP1Act, config, std::move(services)) {
  SYNERGY_EXPECTS(services_.at != nullptr);
  // The low-confidence version is invariably regarded as potentially
  // contaminated during guarded operation (paper §3).
  dirty_ = true;
}

bool P1ActEngine::contamination_flag() const {
  if (config_.variant == MdcdVariant::kModified) {
    return pseudo_dirty_ || recv_dirty_;
  }
  return dirty_;
}

void P1ActEngine::maybe_all_clear() {
  if (contamination_flag()) return;
  flush_deferred_acks();
  notify_contamination_cleared();
}

void P1ActEngine::clear_pseudo_dirty() {
  if (!pseudo_dirty_) return;
  pseudo_dirty_ = false;
  bump_protocol_version();  // serialized role state changed
  trace(TraceKind::kPseudoDirtyClear);
  maybe_all_clear();
}

void P1ActEngine::clear_recv_dirty() {
  if (!recv_dirty_) return;
  recv_dirty_ = false;
  dirty_contam_ = 0;
  bump_protocol_version();  // serialized role state changed
  trace(TraceKind::kDirtyClear);
  maybe_all_clear();
}

void P1ActEngine::do_app_send(bool external, std::uint64_t input) {
  // Vote the redundant lanes before computing the outgoing value: a
  // divergence aborts the send (never forward a suspect message) and the
  // voter has already requested a recovery-line rollback.
  if (!vote_lanes()) return;
  // The design fault of the low-confidence version may manifest while
  // computing the outgoing value.
  if (services_.sw_fault) {
    if (auto noise = services_.sw_fault->on_send()) {
      app_corrupt(*noise);
    }
  }
  app_local_step(input);
  const std::uint64_t payload = services_.app->output();
  const bool tainted = services_.app->tainted();

  if (external) {
    if (services_.at->run(tainted)) {
      trace(TraceKind::kAtPass, "external", msg_sn_ + 1);
      ++msg_sn_;
      // The AT validates the process state and everything sent so far:
      // contamination up to our own msg_SN is covered, and the state
      // itself — received contamination included — is non-contaminated.
      note_validation(msg_sn_);
      if (config_.variant == MdcdVariant::kModified) {
        clear_pseudo_dirty();
        clear_recv_dirty();
      }
      notify_validation();
      Message ext = base_message(MsgKind::kExternal, kDeviceId, payload,
                                 tainted);
      ext.sn = msg_sn_;
      ext.dirty = false;  // validated by the acceptance test
      send_recorded(std::move(ext), /*suspect=*/false);
      // Broadcast "passed AT": prior messages of P1act (up to msg_SN) are
      // now valid (Figure 8).
      for (ProcessId peer : {kP1Sdw, kP2}) {
        Message note = base_message(MsgKind::kPassedAt, peer, 0, false);
        note.sn = msg_sn_;
        send_recorded(std::move(note), /*suspect=*/false);
      }
    } else {
      trace(TraceKind::kAtFail, "external", msg_sn_ + 1);
      services_.request_sw_recovery(self());
    }
    return;
  }

  // Internal message to P2. Under the modified protocol, the first
  // internal send since the last validation is preceded by a pseudo
  // checkpoint (consistent with the Type-1 checkpoint the receiver takes
  // before consuming it). If received contamination already anchored the
  // epoch, that earlier checkpoint stays the rollback target.
  if (config_.variant == MdcdVariant::kModified && !pseudo_dirty_) {
    if (!recv_dirty_) establish_volatile_checkpoint(CkptKind::kPseudo);
    pseudo_dirty_ = true;
    trace(TraceKind::kPseudoDirtySet);
  }
  ++msg_sn_;
  Message m = base_message(MsgKind::kInternal, kP2, payload, tainted);
  m.sn = msg_sn_;
  m.dirty = true;  // P1act's dirty bit always equals 1 (Figure 8)
  m.contam_sn = msg_sn_;  // this very message extends the contamination
  send_recorded(std::move(m), /*suspect=*/true);
}

void P1ActEngine::do_passed_at(const Message& m) {
  if (!ndc_gate_ok(m)) return;
  note_validation(m.sn);
  // The pseudo dirty bit resets unconditionally (Figure 8): even when the
  // notification covers only a prefix of our sends, re-anchoring the
  // pseudo checkpoint at the *next* send keeps our stable contents in
  // step with P2's Type-1 anchors; the uncovered tail stays suspect in
  // the views and restorable via validation-gated acks. Received
  // contamination clears only when the validation covers it.
  if (config_.variant == MdcdVariant::kModified) {
    clear_pseudo_dirty();
    if (validation_covers_dirt(m.sn)) clear_recv_dirty();
  }
  notify_validation();
}

void P1ActEngine::do_app_message(const Message& m) {
  if (config_.variant == MdcdVariant::kModified && m.dirty) {
    // Received contamination anchors the epoch exactly like P2's Type-1:
    // immediately before the state becomes (further) contaminated. The
    // raw flag drives contamination; the watermark-scoped flag drives
    // only the validity view.
    if (!contamination_flag()) {
      establish_volatile_checkpoint(CkptKind::kType1);
    }
    if (!recv_dirty_) {
      recv_dirty_ = true;
      bump_protocol_version();  // serialized role state changed
      trace(TraceKind::kDirtySet);
    }
    absorb_contamination(m);
  }
  record_recv(m, effectively_dirty(m));
  app_apply_message(m.payload, m.tainted);
  trace(TraceKind::kDeliverApp, std::string(to_string(m.kind)), m.sn);
}

void P1ActEngine::note_confidence_loss() {
  // The original P1act is invariably potentially contaminated (dirty_ is
  // constant 1): a confidence loss adds nothing. Under the modified
  // protocol the suspicion rides the received-contamination bit, leaving
  // dirty_contam_ untouched so any covering validation clears it.
  if (config_.variant != MdcdVariant::kModified) return;
  if (!recv_dirty_) {
    recv_dirty_ = true;
    bump_protocol_version();  // serialized role state changed
    trace(TraceKind::kDirtySet);
  }
}

void P1ActEngine::serialize_role_state(ByteWriter& w) const {
  w.u8(pseudo_dirty_ ? 1 : 0);
  w.u8(recv_dirty_ ? 1 : 0);
}

std::size_t P1ActEngine::role_state_size() const { return 2; }

void P1ActEngine::deserialize_role_state(ByteReader& r) {
  pseudo_dirty_ = r.u8() != 0;
  recv_dirty_ = r.u8() != 0;
}

}  // namespace synergy
