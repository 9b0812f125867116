(** Scenario execution: wires a {!Scenario.t} through the full stack —
    power-law or Figure-8 topology, its COPS workload (the {!Traffic_mix}
    classes, or the Figure-10 churn stream), a reliable and optionally
    lossy COPS channel, the bounded overload pipeline shadowed by the
    exact admission oracle, journaled warm-standby failover over a
    simulated disk, deterministic fault injection — with the {!Monitor}
    sampling invariants throughout and the {!Slo} oracle judging every
    declared event's recovery.  This is the one soak rig: every
    crash/failover and overload experiment is a scenario value. *)

type outcome = {
  scenario : Scenario.t;
  offered : int;
  admitted : int;
  rejected : int;  (** broker resource/policy rejections *)
  busy : int;  (** resolved [Server_busy] after all retries *)
  completed : int;
  pipeline : Bbr_broker.Overload.stats;
  p50_latency : float;
  p95_latency : float;
  p99_latency : float;
  brownout_time : float;
      (** sim seconds spent degraded, sampled every half second *)
  baseline_goodput : float;  (** pre-disturbance admit ratio *)
  measurements : Slo.measurement list;
  genuine_anomalies : Monitor.anomaly list;
      (** invariant violations outside every declared fault window *)
  expected_anomalies : int;
  monitor_samples : int;
  audit_ok : bool;  (** final MIB cross-check *)
  digest : string;  (** final {!Bbr_broker.Audit.mib_digest} *)
  replay_digest_ok : bool;
      (** a standby recovered from the store alone (newest checkpoint plus
          journal tail) reproduces [digest] *)
  rerouted : int;  (** reservations moved to a surviving path, over all link failures *)
  dropped : int;  (** reservations released with no feasible alternative *)
  flows_at_crash : int;  (** live reservations at each crash, summed *)
  flows_lost : int;  (** of those, missing from the promoted standby *)
  messages : int;
  retransmissions : int;
  unresolved : int;
  promote_error : string option;
  checkpoint_fallback : bool;
      (** a storage-mode promotion skipped a corrupt/unverifiable
          checkpoint generation (expected under a
          {!Scenario.fault.Disk_fault}) *)
  storage_scrub_errors : int;
      (** corruption detections by the scrub passes a
          {!Scenario.fault.Disk_fault} triggers *)
}

val slo_ok : outcome -> bool
(** Every recovery-SLO measurement met its budget. *)

val ok : outcome -> bool
(** The scenario passed: no genuine anomalies (a promotion that is not
    digest-exact is always one), all SLOs met, final audit clean,
    digest-exact recovery from the store, no oracle violation, promotion
    (if any) succeeded, no unresolved transactions. *)

val pp_outcome : outcome Fmt.t

val run : Scenario.t -> outcome
(** Execute the scenario to completion (deterministic in
    [scenario.seed]).  Raises [Invalid_argument] on a Figure-8 scenario
    whose load is not {!Scenario.Constant}, or a {!Scenario.Link_fault}
    naming no link.  If a {!Bbr_obs.Flight} recorder is armed, its MIB
    digest closure is installed and any genuine anomaly or SLO breach
    triggers the black box. *)
