// MDCD protocol engine — shared machinery for the three roles.
//
// One engine instance embodies one process's error-containment algorithm
// (paper Appendix A gives the per-role algorithms; P1ActEngine, P1SdwEngine
// and P2Engine implement them on top of this base). The base owns:
//
//   - the dirty bit, its trace/observer plumbing, and Type-1 checkpoint
//     placement (immediately before contamination);
//   - msg_SN bookkeeping and sent/received validity views (the oracles'
//     ground for the paper's consistency/recoverability properties);
//   - blocking-period behaviour: application sends/steps/receives are
//     deferred, while (modified variant) passed-AT notifications are still
//     monitored with the Ndc gate;
//   - recovery-epoch fencing of stale messages;
//   - volatile checkpoint establishment and state restoration.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <variant>

#include "mdcd/checkpointable.hpp"
#include "mdcd/config.hpp"
#include "mdcd/services.hpp"
#include "mdcd/views.hpp"
#include "storage/checkpoint.hpp"

namespace synergy {

class MdcdEngine : public CheckpointableProcess {
 public:
  MdcdEngine(Role role, const MdcdConfig& config, ProcessServices services);
  ~MdcdEngine() override = default;

  MdcdEngine(const MdcdEngine&) = delete;
  MdcdEngine& operator=(const MdcdEngine&) = delete;

  Role role() const { return role_; }
  ProcessId self() const override { return services_.self; }
  const MdcdConfig& config() const { return config_; }

  // ---- Workload events -------------------------------------------------

  /// The application wants to emit a message (external or internal). The
  /// role decides what that means: AT + send, checkpoint-then-send,
  /// suppress-and-log, ... Deferred if a blocking period is active.
  void on_app_send(bool external, std::uint64_t input);

  /// One local computation step. Deferred during blocking.
  void on_local_step(std::uint64_t input);

  /// Redundant-execution coverage was lost (CFCSS signature mismatch):
  /// treat it like a failed AT feeding the dirty-bit machinery — anchor a
  /// Type-1 checkpoint and mark the state suspect until the next covering
  /// validation. Deferred during blocking (only passed-AT notifications
  /// may be processed then); the event is queued, never dropped.
  void on_confidence_loss();

  // ---- Transport events -------------------------------------------------

  /// Entry point for every non-ack delivery addressed to this process.
  void on_message(const Message& m);

  // ---- Blocking control (driven by the TB layer) -------------------------

  void begin_blocking() override;
  void end_blocking() override;
  bool in_blocking() const override { return blocking_; }

  // ---- Coordination surface ----------------------------------------------

  bool dirty() const { return dirty_; }

  /// The contamination bit the TB layer consults when choosing stable
  /// checkpoint contents: the dirty bit, except for P1act under the
  /// modified protocol, where it is pseudo_dirty_bit (paper footnote 2).
  bool contamination_flag() const override { return dirty_; }

  /// Supplies the process's current stable-checkpoint sequence number
  /// (owned by the TB engine). Defaults to a constant 0, which makes the
  /// Ndc gate vacuous when no TB protocol runs — the original MDCD setup.
  void set_ndc_provider(std::function<StableSeq()> fn);

  /// Observer fired whenever the contamination flag transitions 1 -> 0
  /// (the adapted TB engine uses it to abort-and-replace an in-progress
  /// stable write during a blocking period).
  void set_contamination_cleared_observer(std::function<void()> fn) override;

  /// Observer fired on every local validation event (own AT pass or an
  /// accepted passed-AT notification). The write-through baseline hangs
  /// its stable Type-2 writes off this.
  void set_validation_observer(std::function<void()> fn);

  // ---- Recovery / lifecycle ----------------------------------------------

  std::uint32_t epoch() const { return epoch_; }
  void set_epoch(std::uint32_t e) { epoch_ = e; }
  /// Drop application messages below these epochs at consumption: a
  /// hardware rollback fences everything, a software recovery fences only
  /// dirty-flagged messages (exactly the sends undone by contaminated
  /// processes).
  void fence_all_below(std::uint32_t epoch);
  void fence_dirty_below(std::uint32_t epoch);

  /// Guarded operation: the low-confidence version is in service. When
  /// guarded mode ends (successful upgrade or takeover), dirty bits stay 0
  /// and MDCD "goes on leave" (paper §4.2).
  bool guarded() const { return guarded_; }
  virtual void set_guarded(bool guarded) {
    guarded_ = guarded;
    bump_protocol_version();
  }

  /// A terminated engine ignores all events (P1act after takeover; any
  /// process while its node is crashed).
  bool alive() const override { return alive_; }
  void kill() { alive_ = false; }
  void revive() { alive_ = true; }

  // ---- Checkpointing -----------------------------------------------------

  /// Build a checkpoint record of the *current* instant: application
  /// snapshot, protocol state, transport dedup state and unacked log.
  CheckpointRecord make_record(CkptKind kind) const override;

  /// Establish a volatile checkpoint of the current state.
  void establish_volatile_checkpoint(CkptKind kind);

  /// Restore process state from a checkpoint record (software rollback or
  /// hardware recovery). Clears deferred/held queues and blocking.
  void restore_from_record(const CheckpointRecord& record);

  /// The most recent volatile checkpoint (rollback target).
  const std::optional<CheckpointRecord>& latest_volatile() const override {
    return services_.vstore->latest();
  }

  Bytes snapshot_protocol_state() const;
  void restore_protocol_state(const Bytes& state);

  // ---- Oracle / diagnostics surface ---------------------------------------

  /// Current true time as seen through the host services (used by
  /// coordination layers for trace stamps).
  TimePoint current_time() const override { return services_.now(); }

  const ViewLog& sent_views() const { return sent_views_; }
  const ViewLog& recv_views() const { return recv_views_; }
  MsgSeq msg_sn() const { return msg_sn_; }
  std::uint64_t volatile_checkpoints() const { return vckpts_; }
  /// Operations deferred by blocking periods so far (overhead metric).
  std::uint64_t deferred_ops() const { return deferred_ops_; }

  /// Monotone mutation stamp of the serialized protocol state. Bumped
  /// conservatively: at every event-dispatch site that can reach a role
  /// hook, and by every helper that touches a serialized field. An
  /// over-bump wastes one re-encode; an under-bump would hand out a stale
  /// checkpoint blob (the invalidation test hunts for those).
  std::uint64_t protocol_version() const { return protocol_version_; }
  std::uint64_t protocol_cache_hits() const { return proto_cache_.hits(); }
  std::uint64_t protocol_cache_misses() const {
    return proto_cache_.misses();
  }
  std::uint64_t protocol_bytes_encoded() const {
    return proto_cache_.bytes_encoded();
  }

 protected:
  // Role hooks, invoked outside blocking (or after deferral).
  virtual void do_app_send(bool external, std::uint64_t input) = 0;
  virtual void do_passed_at(const Message& m) = 0;
  virtual void do_app_message(const Message& m) = 0;
  virtual void serialize_role_state(ByteWriter& w) const;
  virtual void deserialize_role_state(ByteReader& r);
  /// Bytes serialize_role_state() appends (sizes the snapshot exactly).
  virtual std::size_t role_state_size() const { return 0; }

  /// How this role marks its state suspect on a confidence-loss event.
  /// Base: set the dirty bit. P1act (modified) overrides — its dirty bit
  /// is constant 1; received-contamination carries the suspicion instead.
  virtual void note_confidence_loss();

  // Shared helpers for role implementations.

  /// Application mutations route through the lane fan-out when redundant
  /// lanes are configured, so every replica replays the same history.
  void app_apply_message(std::uint64_t payload, bool payload_tainted);
  void app_local_step(std::uint64_t input);
  void app_corrupt(std::uint64_t noise);

  /// Vote the lanes at a send boundary. Returns false when the voter found
  /// an unmaskable divergence: the rollback handler has fired and the
  /// caller must abort the send (never forward a suspect message).
  /// Schemes without lanes trivially agree.
  bool vote_lanes();

  /// True iff the passed-AT notification passes the Ndc gate (modified
  /// variant: piggybacked Ndc must equal the local Ndc; original variant:
  /// always true).
  bool ndc_gate_ok(const Message& m);

  /// Is this message to be treated as potentially contaminating? Paper
  /// mode: the piggybacked dirty bit verbatim. Watermark mode: a dirty
  /// flag whose contamination watermark is already validated is stale and
  /// ignored.
  bool effectively_dirty(const Message& m);

  void mark_dirty();
  void clear_dirty();

  /// Record that contamination up to component-1 SN `watermark` has been
  /// validated: raises validated_w_ and upgrades the covered views (all
  /// views in paper mode).
  void note_validation(MsgSeq watermark);

  /// Does a validation covering `watermark` clear the *current* dirt?
  /// (Always true in paper mode, matching Appendix A's unconditional
  /// reset.)
  bool validation_covers_dirt(MsgSeq watermark) const;

  /// Track the watermark of newly consumed contamination.
  void absorb_contamination(const Message& m);

  /// Validation-gated acknowledgment: ack `m` now if the current state is
  /// a valid recovery anchor (contamination flag clear), else defer until
  /// the flag clears. Paper tracking mode acks immediately (Neves-Fuchs
  /// transport semantics).
  void settle_ack(const Message& m);

  /// Send every deferred ack (the contamination flag just cleared: the
  /// current state, which anchors those consumptions, is now the recovery
  /// content).
  void flush_deferred_acks();

  /// Dedup + ack + epoch fence. Returns true iff the message should be
  /// processed.
  bool consume_or_drop(const Message& m);

  /// Compose an outgoing message stamped with epoch/Ndc.
  Message base_message(MsgKind kind, ProcessId to, std::uint64_t payload,
                       bool tainted) const;

  /// Send + record the sent view (suspect per `suspect`; the view's
  /// contamination watermark is taken from m.contam_sn).
  void send_recorded(Message m, bool suspect);

  void record_recv(const Message& m, bool suspect);

  /// Detail is a view: no std::string is materialized unless tracing is
  /// actually enabled (campaigns run with it off; this is per-message hot).
  void trace(TraceKind kind, std::string_view detail = {}, std::uint64_t a = 0,
             std::uint64_t b = 0) const;
  bool tracing() const { return services_.trace != nullptr; }
  /// Roles call this whenever they mutate serialized role state outside
  /// the dispatched event hooks (which bump automatically).
  void bump_protocol_version() { ++protocol_version_; }
  TimePoint now() const { return services_.now(); }
  StableSeq ndc() const { return ndc_provider_(); }
  void notify_contamination_cleared();
  void notify_validation();

  Role role_;
  MdcdConfig config_;
  ProcessServices services_;

  bool dirty_ = false;
  MsgSeq msg_sn_ = 0;
  bool guarded_ = true;
  bool alive_ = true;
  /// Highest component-1 SN known validated (watermark tracking).
  MsgSeq validated_w_ = 0;
  /// Highest contamination watermark absorbed since last clean.
  MsgSeq dirty_contam_ = 0;
  ViewLog sent_views_;
  ViewLog recv_views_;

 private:
  struct SendReq {
    bool external;
    std::uint64_t input;
  };
  struct StepReq {
    std::uint64_t input;
  };
  struct ConfLossReq {};
  using Deferred = std::variant<SendReq, StepReq, Message, ConfLossReq>;

  void process_passed_at(const Message& m);
  void process_app_message(const Message& m);
  void process_confidence_loss();

  struct AckKey {
    ProcessId sender;
    std::uint64_t transport_seq;
  };

  bool blocking_ = false;
  std::deque<Deferred> deferred_;
  std::vector<AckKey> deferred_acks_;
  std::uint32_t epoch_ = 0;
  std::uint32_t fence_all_ = 0;
  std::uint32_t fence_dirty_ = 0;
  std::function<StableSeq()> ndc_provider_ = [] { return StableSeq{0}; };
  std::function<void()> contamination_cleared_;
  std::function<void()> validation_observer_;
  std::uint64_t vckpts_ = 0;
  std::uint64_t deferred_ops_ = 0;
  std::uint64_t protocol_version_ = 0;
  mutable SnapshotCache proto_cache_;
};

}  // namespace synergy
