module Engine = Bbr_netsim.Engine
module Fault = Bbr_netsim.Fault
module Broker = Bbr_broker.Broker
module Cops = Bbr_broker.Cops
module Ov = Bbr_broker.Overload
module Admission = Bbr_broker.Admission
module Audit = Bbr_broker.Audit
module Journal = Bbr_broker.Journal
module Storage = Bbr_broker.Storage
module Failover = Bbr_broker.Failover
module Vfs = Bbr_util.Vfs
module Policy = Bbr_broker.Policy
module Types = Bbr_broker.Types
module Topology = Bbr_vtrs.Topology
module Topo_gen = Bbr_workload.Topo_gen
module Fig8 = Bbr_workload.Fig8
module Dynamic = Bbr_workload.Dynamic
module Prng = Bbr_util.Prng
module Flight = Bbr_obs.Flight

type outcome = {
  scenario : Scenario.t;
  offered : int;
  admitted : int;
  rejected : int;
  busy : int;
  completed : int;
  pipeline : Ov.stats;
  p50_latency : float;
  p95_latency : float;
  p99_latency : float;
  brownout_time : float;
  baseline_goodput : float;
  measurements : Slo.measurement list;
  genuine_anomalies : Monitor.anomaly list;
  expected_anomalies : int;
  monitor_samples : int;
  audit_ok : bool;
  digest : string;
  replay_digest_ok : bool;
  rerouted : int;
  dropped : int;
  flows_at_crash : int;
  flows_lost : int;
  messages : int;
  retransmissions : int;
  unresolved : int;
  promote_error : string option;
  checkpoint_fallback : bool;
  storage_scrub_errors : int;
}

let slo_ok o = List.for_all (fun (m : Slo.measurement) -> m.Slo.met) o.measurements

let ok o =
  o.genuine_anomalies = [] && slo_ok o && o.audit_ok && o.replay_digest_ok
  && o.pipeline.Ov.oracle_violations = 0
  && o.promote_error = None && o.unresolved = 0

let digest_mismatch o =
  List.exists
    (fun (a : Monitor.anomaly) -> a.Monitor.kind = Monitor.Digest_mismatch)
    o.genuine_anomalies

let pp_outcome ppf o =
  let match_ b = if b then "MATCH" else "MISMATCH" in
  Fmt.pf ppf
    "@[<v>%s: %s@,\
     offered %d  admitted %d  rejected %d  busy %d  completed %d@,\
     pipeline: decided %d  shed %d  max depth %d  brownout %.1f s  \
     conservative %d@,\
     latency: p50 %.3f s  p95 %.3f s  p99 %.3f s@,\
     signaling: %d messages, %d retransmissions, %d unresolved@,\
     goodput baseline %.3f@,\
     monitor: %d samples, %d expected anomalies, %d GENUINE@,\
     %aoracle violations %d  audit %s  journal replay digest %s%a@]"
    o.scenario.Scenario.name (if ok o then "PASS" else "FAIL") o.offered
    o.admitted o.rejected o.busy o.completed o.pipeline.Ov.decided
    (Ov.shed_total o.pipeline) o.pipeline.Ov.max_depth o.brownout_time
    o.pipeline.Ov.conservative_decisions o.p50_latency o.p95_latency o.p99_latency
    o.messages o.retransmissions o.unresolved o.baseline_goodput o.monitor_samples
    o.expected_anomalies
    (List.length o.genuine_anomalies)
    (Fmt.list ~sep:Fmt.nop (fun ppf m -> Fmt.pf ppf "%a@," Slo.pp_measurement m))
    o.measurements o.pipeline.Ov.oracle_violations
    (if o.audit_ok then "clean" else "VIOLATIONS")
    (match_ o.replay_digest_ok)
    (Fmt.option (fun ppf e -> Fmt.pf ppf "@,promotion FAILED: %s" e))
    o.promote_error;
  if o.rerouted + o.dropped > 0 then
    Fmt.pf ppf "@,link failures: rerouted %d  dropped %d" o.rerouted o.dropped;
  if o.flows_at_crash > 0 then
    Fmt.pf ppf "@,crash: %d flows at crash, %d lost; digests %s" o.flows_at_crash
      o.flows_lost
      (match_ (not (digest_mismatch o)));
  if o.checkpoint_fallback || o.storage_scrub_errors > 0 then
    Fmt.pf ppf "@,storage: %d scrub detection(s)%s" o.storage_scrub_errors
      (if o.checkpoint_fallback then
         ", promotion fell back to the prior checkpoint generation"
       else "")

(* ------------------------------------------------------------------ *)
(* Topology and fault targeting. *)

let build_topology sc prng =
  match sc.Scenario.topology with
  | Scenario.Fig8 { setting; detour } ->
      let topo = Fig8.topology setting in
      if detour then
        List.iter
          (fun (src, dst) ->
            ignore
              (Topology.add_link topo ~src ~dst ~capacity:Fig8.capacity
                 Topology.Rate_based))
          [ ("R3", "R6"); ("R6", "R4") ];
      topo
  | Scenario.Power_law { nodes; m } -> Topo_gen.power_law prng ~nodes ~m ()

(* Both directions of every undirected adjacency touching [node]. *)
let links_at topo node =
  List.filter
    (fun (l : Topology.link) -> l.Topology.src = node || l.Topology.dst = node)
    (Topology.links topo)

let take n l =
  let rec go n = function
    | [] -> []
    | _ when n <= 0 -> []
    | x :: rest -> x :: go (n - 1) rest
  in
  go n l

(* The concrete link ids a declared fault brings down. *)
let fault_links topo = function
  | Scenario.Broker_crash _ | Scenario.Crash_at_record _ | Scenario.Disk_fault _ -> []
  | Scenario.Link_fault { src; dst; _ } -> (
      match Topology.find_link topo ~src ~dst with
      | Some l -> [ l.Topology.link_id ]
      | None -> invalid_arg (Printf.sprintf "Runner.run: no link %s -> %s" src dst))
  | Scenario.Regional_links { count; _ } -> (
      match Topo_gen.hubs topo with
      | [] -> []
      | hub :: _ ->
          (* [count] undirected adjacencies at the top hub, both
             directions each — a regional outage around a core. *)
          let outgoing =
            List.filter (fun (l : Topology.link) -> l.Topology.src = hub)
              (Topology.links topo)
          in
          List.concat_map
            (fun (l : Topology.link) ->
              l.Topology.link_id
              ::
              (match Topology.find_link topo ~src:l.Topology.dst ~dst:l.Topology.src with
              | Some back -> [ back.Topology.link_id ]
              | None -> []))
            (take count outgoing))
  | Scenario.Partition { leaves; _ } ->
      let stubs = take leaves (Topo_gen.leaves topo) in
      List.sort_uniq compare
        (List.concat_map
           (fun node ->
             List.map (fun (l : Topology.link) -> l.Topology.link_id) (links_at topo node))
           stubs)

(* ------------------------------------------------------------------ *)
(* Workload materialization, a pure function of the seed.  On Figure 8 it
   is the Figure-10 churn stream at the load's constant rate (it draws
   nothing from [prng]); on a power-law graph a non-homogeneous Poisson
   process sampled by thinning against the shape's peak rate, each
   arrival carrying a {!Traffic_mix} class and random endpoints. *)

type arrival = { at : float; request : Types.request; holding : float }

let arrivals sc topo prng =
  match sc.Scenario.topology with
  | Scenario.Fig8 { setting; _ } ->
      let arrival_rate =
        match sc.Scenario.load with
        | Scenario.Constant r -> r
        | _ -> invalid_arg "Runner.run: a Figure-8 scenario takes a constant load"
      in
      List.map
        (fun (e : Dynamic.entry) ->
          {
            at = e.Dynamic.at;
            request =
              {
                Types.profile = e.Dynamic.profile;
                dreq = e.Dynamic.dreq;
                ingress = e.Dynamic.ingress;
                egress = e.Dynamic.egress;
              };
            holding = e.Dynamic.holding;
          })
        (Dynamic.arrivals
           {
             Dynamic.seed = sc.Scenario.seed;
             setting;
             arrival_rate;
             mean_holding = sc.Scenario.mean_holding;
             duration = sc.Scenario.duration;
             cd = 0.24;
           })
  | Scenario.Power_law _ ->
      let peak = Float.max 1e-9 (Scenario.peak_rate sc.Scenario.load) in
      let arr_rng = Prng.split prng in
      let thin_rng = Prng.split prng in
      let pick_rng = Prng.split prng in
      let hold_rng = Prng.split prng in
      let end_rng = Prng.split prng in
      let rec go acc t =
        let t = t +. Prng.exponential arr_rng ~mean:(1. /. peak) in
        if t >= sc.Scenario.duration then List.rev acc
        else if Prng.float thin_rng *. peak <= Scenario.rate_at sc.Scenario.load t then begin
          let klass = Traffic_mix.pick pick_rng in
          let ingress, egress = Topo_gen.random_endpoints end_rng topo in
          let holding = Prng.exponential hold_rng ~mean:sc.Scenario.mean_holding in
          let request =
            { Types.profile = klass.Traffic_mix.profile; dreq = klass.Traffic_mix.dreq;
              ingress; egress }
          in
          go ({ at = t; request; holding } :: acc) t
        end
        else go acc t
      in
      go [] 0.

(* Administrative priorities drive the pipeline's watermark shedding: on
   Figure 8 everything entering at I1 is premium; on a power-law graph
   each traffic class carries its own. *)
let install_policy sc policy =
  match sc.Scenario.topology with
  | Scenario.Fig8 _ ->
      Policy.add_priority_rule policy ~name:"premium-ingress"
        ~matches:(fun r -> r.Types.ingress = Fig8.ingress1)
        ~priority:10
  | Scenario.Power_law _ -> Traffic_mix.install_policy policy

let exact_oracle broker (req : Types.request) =
  match Broker.route_of broker req with
  | None -> false
  | Some path ->
      let ps =
        Admission.path_state (Broker.node_mib broker) (Broker.path_mib broker) path
      in
      Result.is_ok (Admission.admit ps req.Types.profile ~dreq:req.Types.dreq)

let live_flows broker = Broker.per_flow_count broker + Broker.class_flow_count broker

(* ------------------------------------------------------------------ *)

let run sc =
  let engine = Engine.create () in
  Option.iter
    (fun tr -> Bbr_obs.Trace.set_sim_clock tr (fun () -> Engine.now engine))
    (Bbr_obs.Trace.current ());
  let prng = Prng.create ~seed:sc.Scenario.seed in
  let topo = build_topology sc prng in
  let time =
    {
      Broker.now = (fun () -> Engine.now engine);
      after = (fun delay f -> Engine.schedule_after engine ~delay f);
    }
  in
  let policy = Policy.create () in
  install_policy sc policy;
  let make () = Broker.create ~policy ~time topo in
  (* fsync-per-record through a real (simulated) disk: the record chain
     loses nothing at a crash, so a promotion must reproduce the
     pre-crash digest exactly — any difference is a genuine violation,
     not modelled data loss.  Even when a Disk_fault rots the current
     checkpoint generation, recovery falls back to the prior generation
     plus a longer replay and the digest still matches. *)
  let store = Storage.create ~vfs:(Vfs.create ~seed:sc.Scenario.seed ()) () in
  let journal = Journal.create ~fsync_every:1 ~storage:store () in
  let fw = Failover.create ~make_standby:make ~time ~journal ~storage:store (make ()) in
  Failover.start_checkpoints fw ~every:(Float.max 5. (sc.Scenario.duration /. 50.));
  let ov =
    Ov.create ~config:sc.Scenario.pipeline
      ~oracle:(fun req -> exact_oracle (Failover.active fw) req)
      ~time (Failover.active fw)
  in
  (* The stream order is part of the seed contract: jitter, workload,
     then losses. *)
  let jitter_rng = Prng.split prng in
  let plan = arrivals sc topo prng in
  let loss_rng = Prng.split prng in
  let cops =
    Cops.create (Failover.active fw) ~latency:sc.Scenario.latency
      ~reliability:
        (Cops.reliability
           ~loss:(Fault.drop loss_rng ~p:sc.Scenario.cops_loss)
           ~jitter:(fun () -> Prng.float jitter_rng)
           ())
      ~pdp:(fun req k -> Ov.submit ov req k)
      ~defer:(fun delay f -> Engine.schedule_after engine ~delay f)
      ()
  in
  if Flight.armed () <> None then
    Flight.set_digest (fun () ->
        if Failover.is_up fw then Some (Audit.mib_digest (Failover.active fw))
        else None);
  (* Monitor + SLO plumbing. *)
  let monitor =
    Monitor.create ~now:(fun () -> Engine.now engine) ~windows:(Scenario.windows sc) ()
  in
  let slo = Slo.create ~budgets:sc.Scenario.slo in
  List.iter (Slo.declare slo) (Scenario.events sc);
  (* Workload. *)
  let submitted = ref 0 and admitted = ref 0 in
  let rejected = ref 0 and busy = ref 0 and completed = ref 0 in
  List.iter
    (fun a ->
      Engine.schedule engine ~at:a.at (fun () ->
          incr submitted;
          Cops.request cops a.request ~on_decision:(function
            | Ok (flow, _) ->
                incr admitted;
                Engine.schedule_after engine ~delay:a.holding (fun () ->
                    Cops.teardown cops flow;
                    incr completed)
            | Error (Types.Server_busy _) -> incr busy
            | Error _ -> incr rejected)))
    plan;
  (* Faults.  Link operations hitting a crashed broker are deferred (in
     injection order) until promotion: the data plane changed while the
     control plane was down, and the successor discovers it on arrival. *)
  let pending : (unit -> unit) list ref = ref [] in
  let when_up f = if Failover.is_up fw then f () else pending := f :: !pending in
  let flush_pending () =
    let ps = List.rev !pending in
    pending := [];
    List.iter (fun f -> f ()) ps
  in
  let rerouted = ref 0 and dropped = ref 0 in
  let flows_at_crash = ref 0 and flows_lost = ref 0 in
  let promote_error = ref None in
  let checkpoint_fallback = ref false in
  let scrub_errors = ref 0 in
  (* Every crash is promoted after the first timed crash's delay. *)
  let promote_after =
    Option.value ~default:0.5
      (List.find_map
         (function
           | Scenario.Broker_crash { promote_after; _ } -> Some promote_after
           | _ -> None)
         sc.Scenario.faults)
  in
  let hooks =
    Fault.hooks
      ~on_link_down:(fun link_id ->
        when_up (fun () ->
            let r = Broker.fail_link (Failover.active fw) ~link_id in
            rerouted := !rerouted + Broker.recovered_count r;
            dropped := !dropped + Broker.dropped_count r))
      ~on_link_up:(fun link_id ->
        when_up (fun () -> Broker.restore_link (Failover.active fw) ~link_id))
      ~on_crash:(fun _ ->
        let dying = Failover.active fw in
        let digest_at_crash = Audit.mib_digest dying in
        let live = live_flows dying in
        flows_at_crash := !flows_at_crash + live;
        (* The process dies: the disk keeps only what was fsynced. *)
        Storage.crash store;
        Ov.quiesce ov;
        Failover.crash fw;
        Cops.set_pdp_up cops false;
        Engine.schedule_after engine ~delay:promote_after (fun () ->
            match Failover.promote fw with
            | Ok _ ->
                let recovered = Failover.active fw in
                if Audit.mib_digest recovered <> digest_at_crash then
                  Monitor.note monitor Monitor.Digest_mismatch
                    "recovered broker digest differs from pre-crash digest";
                flows_lost := !flows_lost + Int.max 0 (live - live_flows recovered);
                (match Failover.last_recovery fw with
                | Some r ->
                    if r.Failover.sr_fallback then checkpoint_fallback := true
                | None -> ());
                Ov.retarget ov recovered;
                Cops.set_broker cops recovered;
                Cops.set_pdp_up cops true;
                flush_pending ()
            | Error e -> promote_error := Some e))
      ()
  in
  let fault_events =
    List.concat_map
      (fun fault ->
        match fault with
        | Scenario.Broker_crash { at; _ } -> [ Fault.event ~at (Fault.Crash "broker") ]
        | Scenario.Crash_at_record _ | Scenario.Disk_fault _ -> []
        | Scenario.Regional_links { at; duration; _ }
        | Scenario.Partition { at; duration; _ }
        | Scenario.Link_fault { at; duration; _ } ->
            let ids = fault_links topo fault in
            List.map (fun id -> Fault.event ~at (Fault.Link_down id)) ids
            @ List.map
                (fun id -> Fault.event ~at:(at +. duration) (Fault.Link_up id))
                ids)
      sc.Scenario.faults
  in
  Fault.install engine hooks fault_events;
  (* Record-boundary crashes: the journal calls back from inside the
     mutation that appends the record, and the crash is injected at that
     sim instant.  Its fault window is declared on the spot. *)
  let record_crashes =
    List.filter_map
      (function Scenario.Crash_at_record { record } -> Some record | _ -> None)
      sc.Scenario.faults
  in
  if record_crashes <> [] then
    Journal.on_record journal (fun total ->
        if List.mem total record_crashes && Failover.is_up fw then begin
          let now = Engine.now engine in
          let ev =
            { Scenario.label = Printf.sprintf "crash-at-record-%d" total;
              injected_at = now; healed_at = now +. promote_after }
          in
          Slo.declare slo ev;
          Monitor.add_window monitor (now, ev.Scenario.healed_at +. Scenario.grace sc.Scenario.slo);
          Fault.inject engine hooks (Fault.Crash "broker")
        end);
  (* Disk faults are not data-plane events: they rot the current
     checkpoint generation at rest, and an immediate scrub pass detects
     (and counts) the damage.  Recovery feels it only at the next
     promotion, which must degrade to the prior generation. *)
  List.iter
    (function
      | Scenario.Disk_fault { at; _ } ->
          Engine.schedule engine ~at (fun () ->
              ignore (Storage.bitrot_checkpoint store);
              let r = Storage.scrub store in
              scrub_errors := !scrub_errors + List.length r.Storage.errors)
      | _ -> ())
    sc.Scenario.faults;
  (* Standing invariant probe: the monitor samples it continuously and
     classifies each finding against the declared fault windows.  The
     audit verdict doubles as the SLO oracle's clean-audit series. *)
  let sample_every = Float.max 0.5 (sc.Scenario.duration /. 600.) in
  let last_oracle_violations = ref 0 in
  let probe () =
    let now = Engine.now engine in
    let up = Failover.is_up fw in
    let audit_clean = up && Audit.ok (Audit.check (Failover.active fw)) in
    Slo.note_audit slo ~at:now audit_clean;
    let found = ref [] in
    if not audit_clean then
      found :=
        (Monitor.Audit_violation, if up then "MIB cross-check failed" else "broker down")
        :: !found;
    let ovs = (Ov.stats ov).Ov.oracle_violations in
    if ovs > !last_oracle_violations then begin
      found :=
        ( Monitor.Oracle_violation,
          Printf.sprintf "%d new over-admissions" (ovs - !last_oracle_violations) )
        :: !found;
      last_oracle_violations := ovs
    end;
    !found
  in
  Monitor.start_sampling monitor engine ~every:sample_every ~probe;
  (* Goodput (trailing admit ratio) series for the SLO oracle, and the
     time spent degraded, integrated on a fixed half-second grid. *)
  let goodput_window = 10 in
  let history = ref [] (* (submitted, admitted), newest first *) in
  let sampling = ref true in
  let rec sample () =
    if !sampling then begin
      let now = Engine.now engine in
      history := (!submitted, !admitted) :: take goodput_window !history;
      (match List.rev !history with
      | (s0, a0) :: _ when !submitted > s0 ->
          Slo.note_goodput slo ~at:now
            (float_of_int (!admitted - a0) /. float_of_int (!submitted - s0))
      | _ -> ());
      Slo.note_brownout slo ~at:now (Ov.brownout ov);
      Engine.schedule_after engine ~delay:sample_every sample
    end
  in
  Engine.schedule_after engine ~delay:sample_every sample;
  let brownout_time = ref 0. in
  let rec brownout_tick () =
    if !sampling then begin
      if Ov.brownout ov then brownout_time := !brownout_time +. 0.5;
      Engine.schedule_after engine ~delay:0.5 brownout_tick
    end
  in
  brownout_tick ();
  (* Run, then drain: the pipeline sheds whatever is still queued, so
     every COPS transaction resolves. *)
  Engine.run ~until:sc.Scenario.horizon engine;
  sampling := false;
  Monitor.stop monitor;
  Ov.stop ov;
  Failover.stop fw;
  if !promote_error = None then Engine.run engine;
  let active = Failover.active fw in
  let audit = Audit.check active in
  let digest = Audit.mib_digest active in
  (* Standing recovery oracle: a standby rebuilt from the store alone —
     newest checkpoint plus journal tail — must hold the live state.  Each
     candidate runs on a topology built afresh from the seed, so its link
     states come only from the checkpoint and the tail, and the digest
     compares them too (promotions mid-run share the live topology). *)
  let replay_digest_ok =
    !promote_error = None
    &&
    let cold () =
      Broker.create ~policy ~time (build_topology sc (Prng.create ~seed:sc.Scenario.seed))
    in
    match Failover.recover_from ~make:cold store with
    | Ok (standby, _, _) -> Audit.mib_digest standby = digest
    | Error _ -> false
  in
  let measurements = Slo.report slo in
  {
    scenario = sc;
    offered = List.length plan;
    admitted = !admitted;
    rejected = !rejected;
    busy = !busy;
    completed = !completed;
    pipeline = Ov.stats ov;
    p50_latency = Ov.latency_quantile ov ~q:0.5;
    p95_latency = Ov.latency_quantile ov ~q:0.95;
    p99_latency = Ov.latency_quantile ov ~q:0.99;
    brownout_time = !brownout_time;
    baseline_goodput = Slo.baseline slo;
    measurements;
    genuine_anomalies = Monitor.genuine monitor;
    expected_anomalies = List.length (Monitor.expected monitor);
    monitor_samples = Monitor.samples monitor;
    audit_ok = Audit.ok audit;
    digest;
    replay_digest_ok;
    rerouted = !rerouted;
    dropped = !dropped;
    flows_at_crash = !flows_at_crash;
    flows_lost = !flows_lost;
    messages = Cops.messages cops;
    retransmissions = Cops.retransmissions cops;
    unresolved = Cops.pending cops;
    promote_error = !promote_error;
    checkpoint_fallback = !checkpoint_fallback;
    storage_scrub_errors = !scrub_errors;
  }
