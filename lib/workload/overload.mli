(** The lease-partition soak: two lease-holding edge brokers admit local
    flows from delegated quota; one partitions mid-run, its lease expires,
    and the central sweep must return the full delegation to the shared
    pool within one lease period; on reconnect the edge reconciles
    (re-registering still-live flows, surrendering the rest).  A pure
    function of its seed.

    It stays outside the scenario runner, which has no edge-broker layer;
    the overload soak through the admission pipeline is the
    [Bbr_scenario.Matrix.overload] scenario. *)

(** {1 Partition soak} *)

type partition_config = {
  p_seed : int;
  p_lease_period : float;
  p_chunk : float;  (** quota acquisition granularity, b/s *)
  p_arrival_rate : float;  (** local flow arrivals/s at each edge *)
  p_mean_holding : float;
  p_duration : float;
  p_horizon : float;
  p_disconnect_at : float;
  p_reconnect_at : float option;  (** [None]: the edge stays dead *)
}

val default_partition_config : partition_config
(** Seed 1, 30 s lease, disconnect at 150 s, reconnect at 350 s. *)

type partition_outcome = {
  p_offered : int;
  p_admitted : int;
  p_rejected : int;
  quota_at_disconnect : float;  (** delegated to the partitioned edge *)
  reclaim_time : float option;
      (** sim seconds from disconnect until the central broker held none
          of the partitioned edge's grant flows *)
  reclaimed_within_period : bool;  (** the acceptance criterion *)
  re_registered : int;
  surrendered : int;
  stale_leases : int;  (** [Stale_lease] findings in the final audit *)
  p_audit : Bbr_broker.Audit.report;
  central_transactions : int;
}

val run_partition : partition_config -> partition_outcome

val pp_partition_outcome : partition_outcome Fmt.t
