#include "analysis/global_state.hpp"

#include "app/state.hpp"
#include "common/assert.hpp"

namespace synergy {

const ProcessFacts* GlobalState::find(ProcessId id) const {
  for (const auto& p : processes) {
    if (p.id == id) return &p;
  }
  return nullptr;
}

ProcessFacts facts_from_record(const CheckpointRecord& record) {
  ProcessFacts facts;
  facts.id = record.owner;
  facts.state_time = record.state_time;
  facts.unacked = record.unacked;

  // The record's dirty_bit is the *contamination flag* the checkpointing
  // layer consulted (pseudo_dirty_bit for P1act under the modified
  // protocol): exactly the right notion for recovery-line analysis.
  facts.dirty = record.dirty_bit;

  // Engine-independent prefix of the protocol state (see
  // MdcdEngine::snapshot_protocol_state): dirty, msg_SN, guarded, views.
  ByteReader r(record.protocol_state);
  (void)r.u8();   // raw dirty bit (P1act: constant 1 while guarded)
  (void)r.u64();  // msg_SN
  (void)r.u8();   // guarded
  (void)r.u64();  // validated watermark
  (void)r.u64();  // dirty contamination watermark
  facts.sent = ViewLog::deserialize(r);
  facts.recv = ViewLog::deserialize(r);

  ApplicationState app;
  app.restore(record.app_state);
  facts.app_tainted = app.tainted();
  return facts;
}

ProcessFacts facts_from_engine(const MdcdEngine& engine,
                               TimePoint state_time) {
  ProcessFacts facts = facts_from_record(engine.make_record(CkptKind::kType1));
  facts.state_time = state_time;
  return facts;
}

}  // namespace synergy
