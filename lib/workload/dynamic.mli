(** Dynamic churn experiment (paper Section 5, Figure 10).

    Flows arrive as a Poisson process from the two sources, each flow with
    a flow type and delay bound drawn uniformly from Table 1 and an
    exponentially distributed holding time (mean 200 s).  The flow
    blocking rate is measured under per-flow BB/VTRS admission and under
    the aggregate scheme with either contingency method; for the aggregate
    scheme, a fluid edge-backlog model per macroflow drives the
    contingency-feedback signal. *)

type scheme =
  | Perflow
  | Aggr of Bbr_broker.Aggregate.method_

val pp_scheme : scheme Fmt.t

type config = {
  seed : int;
  setting : Fig8.setting;
  arrival_rate : float;  (** total flow arrivals per second, both sources *)
  mean_holding : float;  (** seconds; the paper uses 200 *)
  duration : float;  (** arrivals are offered during [0, duration) *)
  cd : float;  (** class delay parameter at delay-based hops *)
}

val default_config : config
(** seed 1, [`Rate_only], 0.15 arrivals/s, 200 s holding, 20000 s horizon,
    cd 0.24. *)

type outcome = {
  offered : int;
  blocked : int;
  blocking_rate : float;
  completed : int;  (** flows that departed before the horizon *)
}

(** One flow arrival in a materialized workload (see also {!Trace}). *)
type entry = {
  at : float;  (** arrival time, seconds *)
  holding : float;
  profile : Bbr_vtrs.Traffic.t;
  dreq : float;
  ingress : string;
  egress : string;
}

val arrivals : config -> entry list
(** The exact arrival sequence the configuration induces — {!run} replays
    this list, so a saved copy reproduces the run bit for bit. *)

val service_classes : float -> Bbr_broker.Aggregate.class_def list
(** The delay service classes every aggregating run uses: one per
    distinct Table-1 bound, all with fixed-delay parameter [cd].  A
    broker rebuilt offline (e.g. [bbsim recover]) must be created with
    the same classes before a journal or snapshot can replay into it. *)

val run_trace :
  ?setting:Fig8.setting ->
  ?cd:float ->
  ?observe:(Bbr_netsim.Engine.t -> Bbr_broker.Broker.t -> unit) ->
  entry list ->
  scheme ->
  outcome
(** Replay an arbitrary arrival list (defaults: rate-only setting,
    cd 0.24).  [observe] runs once on the engine and broker before the
    first arrival — the hook for registering telemetry gauges or
    capturing the broker; the trace sim clock is bound to the engine for the
    run either way. *)

val run : ?observe:(Bbr_netsim.Engine.t -> Bbr_broker.Broker.t -> unit) -> config -> scheme -> outcome

val blocking_vs_load :
  ?seeds:int list -> ?base:config -> loads:float list -> scheme -> (float * float) list
(** For each arrival rate in [loads], the blocking rate averaged over the
    seeds (default seeds 1..5, as in the paper's five runs per point). *)

type packet_outcome = {
  admission : outcome;
  packets : int;  (** packets delivered end to end *)
  bound_violations : int;
      (** packets that exceeded their flow's (or class's) end-to-end
          bound — must be 0 *)
  worst_slack : float;
      (** minimum of (bound - measured delay) over all flows, seconds *)
}

val run_packet_level :
  ?observe:(Bbr_netsim.Engine.t -> Bbr_broker.Broker.t -> unit) ->
  config ->
  scheme ->
  packet_outcome
(** The same churn experiment with a {e full packet-level data plane}: every
    admitted flow runs an on/off source through a real edge conditioner and
    the core-stateless schedulers of the Figure-8 network; under the
    aggregate schemes the macroflow edge conditioners supply the real
    queue-empty feedback.  Validates both the fluid model used by {!run}
    (blocking rates agree) and the delay guarantees under churn (no packet
    may exceed its bound).  Roughly 100x slower than {!run}; prefer short
    horizons. *)
