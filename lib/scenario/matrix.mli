(** The named scenario matrix and its benchmark artifact.

    Six composed chaos campaigns — diurnal soak, flash crowd, regional
    link failure, failure-under-overload, broker crash during a flash
    crowd, partition + heal — each with recovery-SLO budgets.  A full
    run writes [BENCH_scenarios.json] (schema [bbr/scenarios/v1]) with
    goodput, decision latency quantiles, recovery times and violation
    counts per scenario. *)

val scenarios : Scenario.t list

(** {1 Figure-8 soaks}

    Single-purpose experiments outside the matrix, on the paper's
    Figure-8 domain with the Figure-10 churn stream (0.15 arrivals/s base
    rate, 200 s mean holding).  Callers adjust the record fields. *)

val overload : float -> Scenario.t
(** [overload x]: the mixed setting at [x] times the base rate for
    1500 s (3000 s horizon) through a 32-deep pipeline with a 10 s
    deadline, 2.5 s exact and 0.5 s conservative decisions: past about
    3x the exact path saturates, the conservative one does not. *)

val flat : Scenario.t -> Scenario.t
(** The same scenario with brownout disabled: every decision pays the
    exact service time (the degradation baseline). *)

val failover : Scenario.t
(** Rate-only setting, 2000 s of arrivals (4000 s horizon); R3 → R4 fails
    at 600 s and returns at 900 s, its victims rerouted over the
    R3 → R6 → R4 detour; the broker crashes at 1500 s and a standby is
    promoted 0.5 s later. *)

val crash_at_record : Scenario.t
(** As {!failover} without the detour and link fault: the broker dies the
    instant journal record 150 is appended. *)

val names : string list

val find : string -> Scenario.t option

val run_all : ?scale:float -> ?names:string list -> unit -> Runner.outcome list
(** Run the whole matrix (or just [names]), each scenario shrunk by
    {!Scenario.scale} [scale] (default 1 — full size).  Raises
    [Invalid_argument] on an unknown name. *)

val to_json : scale:float -> Runner.outcome list -> string

val write_json : path:string -> scale:float -> Runner.outcome list -> unit
(** Raises [Sys_error] on I/O failure. *)
