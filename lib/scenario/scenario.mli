(** Declarative chaos-scenario DSL.

    A scenario is a timeline: a topology, a time-varying load shape
    (diurnal sine, flash-crowd spikes, compositions), a list of fault
    injections (regional link bursts, network partitions, broker crash +
    warm-standby promotion), and per-scenario recovery-SLO budgets.  The
    {!Runner} executes it against the full broker stack; {!Monitor} and
    {!Slo} judge it. *)

type topology_spec =
  | Fig8 of { setting : Bbr_workload.Fig8.setting; detour : bool }
      (** the paper's Figure-8 domain, loaded with the Figure-10 churn
          stream ({!Bbr_workload.Dynamic.arrivals}) at a {!Constant} rate,
          its ingress-I1 traffic marked premium; [detour] adds a protection path
          R3 → R6 → R4 beside the R3 → R4 link, one hop longer, so
          routing takes it only while R3 → R4 is down *)
  | Power_law of { nodes : int; m : int }
      (** {!Bbr_workload.Topo_gen.power_law} ISP graph, loaded with the
          five-class {!Traffic_mix} *)

type load_shape =
  | Constant of float  (** arrivals/s *)
  | Diurnal of { base : float; amplitude : float; period : float }
      (** [base * (1 + amplitude * sin(2πt/period))], clamped at 0 *)
  | Flash of {
      shape : load_shape;  (** underlying shape the flash multiplies *)
      at : float;
      mult : float;  (** peak multiplier, e.g. 10. *)
      rise : float;
      hold : float;
      fall : float;
    }  (** trapezoid flash crowd composed over [shape] *)

type fault =
  | Regional_links of { at : float; duration : float; count : int }
      (** [count] links at the top hub go down together, restored after
          [duration] *)
  | Partition of { at : float; duration : float; leaves : int }
      (** the [leaves] lowest-degree nodes are cut off entirely *)
  | Link_fault of { at : float; duration : float; src : string; dst : string }
      (** the named link goes down, restored after [duration] *)
  | Broker_crash of { at : float; promote_after : float }
      (** primary dies (journal cut at last fsync), warm standby promoted
          after [promote_after] *)
  | Crash_at_record of { record : int }
      (** as {!Broker_crash}, but the primary dies the instant its
          [record]-th journal record is appended — an exact record
          boundary.  The standby is promoted after the first
          {!Broker_crash}'s [promote_after], or 0.5 s without one.  Its
          fault window is declared when it fires *)
  | Disk_fault of { at : float; duration : float }
      (** at-rest bit rot in the current checkpoint generation at [at];
          a scrub detects it on the spot.  [duration] bounds the
          expected-degradation window — recovery SLOs are measured from
          [at + duration].  Compose with a {!Broker_crash} shortly after
          to force promotion through the prior-generation fallback *)

(** Per-scenario recovery budgets, all in sim seconds measured from the
    declared heal instant of each event. *)
type slo = {
  recover_goodput : float;  (** goodput back to [goodput_frac] x baseline *)
  goodput_frac : float;
  clean_audit : float;  (** first clean MIB audit *)
  brownout_exit : float;  (** pipeline out of degraded mode *)
}

val default_slo : slo

type t = {
  name : string;
  descr : string;
  seed : int;
  topology : topology_spec;
  load : load_shape;
  mean_holding : float;
  duration : float;  (** arrivals stop here *)
  horizon : float;  (** engine runs (bounded) until here, then drains *)
  latency : float;  (** COPS one-way latency *)
  cops_loss : float;  (** COPS per-message loss probability, [0 <= p < 1] *)
  pipeline : Bbr_broker.Overload.config;
  faults : fault list;
  slo : slo;
}

val default : t
(** 400-node power-law domain, diurnal load, no faults. *)

val rate_at : load_shape -> float -> float
(** Instantaneous arrival rate (arrivals/s) at sim time [t]. *)

val peak_rate : load_shape -> float
(** Upper bound on {!rate_at} over all time — the thinning envelope. *)

(** A declared disturbance: every fault and every flash phase. *)
type event = { label : string; injected_at : float; healed_at : float }

val events : t -> event list
(** Every disturbance whose instants are known in advance (all but
    {!Crash_at_record}). *)

val grace : slo -> float
(** The largest recovery budget — how long after heal degradation is
    still "expected". *)

val windows : t -> (float * float) list
(** Expected-degradation windows: [(injected_at, healed_at + grace)] per
    event. *)

val in_windows : (float * float) list -> float -> bool

val scale : float -> t -> t
(** [scale k t] shrinks durations, event instants, holding times, SLO
    budgets and (power-law) topology size by [k] — the smoke-run knob.
    [scale 1.] is the identity.  Raises [Invalid_argument] on [k <= 0]. *)
