(** Warm-standby broker failover.

    The replication scheme the paper's footnote 2 gestures at: because
    every piece of QoS state lives in the broker's MIBs, a standby fed
    periodic {!Snapshot} checkpoints can take over after a crash without
    involving any core router.  This module keeps the latest checkpoint,
    models the crash, and promotes a freshly built standby from that
    checkpoint.

    Recovery semantics without a journal: flows admitted after the last
    checkpoint are lost on promotion (their eventual DRQs are harmless
    no-ops thanks to idempotent teardown); everything checkpointed is
    restored exactly, under its original flow id.  With a {!Journal}
    attached, promotion additionally replays the journal tail — every
    mutation since the last checkpoint — so nothing durably journaled is
    lost at all: the recovered broker is decision-equivalent to the
    crashed one (equal {!Audit.mib_digest}).  In-flight requests are not
    the manager's problem — a reliable {!Cops} channel retransmits them
    to the promoted broker once {!Cops.set_broker} repoints it. *)

type t

type storage_recovery = {
  sr_gen : int option;  (** checkpoint generation restored; [None] = from empty *)
  sr_cover : int;  (** replay started at this journal sequence number *)
  sr_fallback : bool;
      (** a newer generation existed but failed verification, or the
          chosen candidate was not the first tried *)
  sr_truncated : string option;  (** why the record suffix stopped early *)
  sr_quarantined : int;  (** sealed segments quarantined during recovery *)
  sr_replayed : int;
}
(** What a storage-mode promotion actually recovered — the data-loss
    report callers surface (exit codes, scenario outcomes). *)

val recovery_loss : storage_recovery -> bool
(** True when the recovery was degraded in any visible way: generation
    fallback, truncated suffix, or quarantined segments. *)

val create :
  make_standby:(unit -> Broker.t) ->
  ?time:Broker.time_hooks ->
  ?journal:Journal.t ->
  ?storage:Storage.t ->
  Broker.t ->
  t
(** [make_standby ()] must build a fresh broker over the same topology
    and classes as the primary (it is called at promotion time, so the
    standby starts empty).  [time] defaults to {!Broker.immediate_time} —
    fine for manual {!checkpoint} calls, but see the warning on
    {!start_checkpoints}.  [journal], when given, is attached to the
    primary immediately (every mutation from here on is journaled),
    compacted at each {!checkpoint}, replayed and re-attached at
    {!promote}.

    [storage], when given, makes durability real: {!checkpoint} writes
    dual-generation verified checkpoints through {!Storage.checkpoint}
    (and skips compaction when the write fails — the journal is then the
    only durable copy), and {!promote} reads {e only} the store — newest
    verifiable generation plus longest intact record suffix, degrading
    across generations rather than failing.  Pair it with a journal
    created over the same store ([Journal.create ~storage]) so records
    write through to the segmented log. *)

val active : t -> Broker.t
(** The broker currently holding the PDP role: the primary until a
    promotion, the latest standby afterwards. *)

val is_up : t -> bool

val checkpoint : t -> unit
(** Snapshot the active broker now, replacing the previous checkpoint,
    and compact the attached journal (the checkpoint covers everything
    its records rebuilt).  Ignored while crashed. *)

val start_checkpoints : t -> every:float -> unit
(** Checkpoint on a periodic timer.  Requires real (engine-driven) time
    hooks: under {!Broker.immediate_time} the timer fires recursively on
    the spot and never returns.  The timer keeps rescheduling until
    {!stop}; when driving an {!Bbr_netsim.Engine}, bound the run with
    [~until].  Idempotent: a second call does not start a second timer.
    Raises [Invalid_argument] when [every <= 0]. *)

val stop : t -> unit
(** Stop the periodic checkpoint timer (it unschedules at its next
    firing). *)

val crash : t -> unit
(** The active broker fails: checkpoints stop until promotion.  Pair with
    {!Cops.set_pdp_up} to make the signaling channel see the outage. *)

val promote : t -> (int, string) result
(** Build a standby with [make_standby], restore the latest checkpoint
    into it, then replay the journal tail (when a journal is attached; a
    journal with no checkpoint yet replays from empty).  On [Ok n] ([n] =
    reservations restored + journal records applied) the standby is the
    new {!active} and is up, a fresh checkpoint of it is taken, and the
    journal — compacted and re-attached — resumes on the standby; repoint
    signaling with {!Cops.set_broker}.  [Error] when there is nothing to
    promote from or a restore/replay step fails — the previous active
    broker is left in place (still down), untouched: replay happens on
    the standby only. *)

val journal : t -> Journal.t option
(** The write-ahead journal attached at {!create}, if any. *)

val replay_warning : t -> string option
(** The tail-truncation warning of the last promotion's journal replay —
    [Some _] when a torn or corrupt record cut the replay short (records
    past the cut are lost, as after a real crash). *)

val last_recovery : t -> storage_recovery option
(** The data-loss report of the last storage-mode promotion; [None]
    before any promotion or without [storage]. *)

val recover_from :
  make:(unit -> Broker.t) ->
  Storage.t ->
  (Broker.t * int * storage_recovery, string) result
(** Cold recovery, the read-only core of storage-mode promotion: build a
    broker with [make], restore the newest verifiable checkpoint
    generation, replay the longest intact record suffix; degrade across
    generations (and ultimately to an intact chain from sequence 0, or
    the empty state with loss reported) rather than fail.  Returns the
    recovered broker, the count of reservations restored from the
    checkpoint, and the degradation report.  Mutates nothing but the
    store's quarantine renames and the link up/down state of the
    topology [make] builds on (restored to the checkpoint's, then moved
    forward by the replayed tail); never raises. *)

val storage : t -> Storage.t option
(** The segmented store given at {!create}, if any. *)

val snapshot_age : t -> float option
(** Time since the last checkpoint — the window of admissions a crash
    right now would lose.  [None] before the first checkpoint. *)

val checkpoints : t -> int
(** Checkpoints taken so far. *)

val generation : t -> int
(** Promotions so far: 0 while the original primary serves. *)
