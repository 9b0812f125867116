(* chain-edf: a 4-hop delay-based chain at 1e9 b/s behind the cached
   broker, called directly (no COPS, no journal), keeping about [cap] live
   flows so the VT-EDF class population M on every link is in the
   hundreds.  Admissibility dominates: the admission-cache merge, the
   VT-EDF breakpoints and the Figure-4 scan. *)

open Bbr_broker
module Topo_gen = Bbr_workload.Topo_gen

let cap = 512

let chain () =
  Topo_gen.chain ~capacity:1e9 ~sched:Bbr_vtrs.Topology.Delay_based ~hops:4 ()

type t = {
  rng : Random.State.t;
  ingress : string;
  egress : string;
  mutable fo : Failover.t;
  live : Types.flow_id Queue.t;
  mutable digest : int;
  mutable admitted : int;
}

let broker t = Failover.active t.fo

let request t = Wl.flow_request t.rng ~ingress:t.ingress ~egress:t.egress

let teardown t b =
  Layers.set_kind Layers.Other;
  let sp = Layers.start "bench.teardown" in
  Broker.teardown b (Queue.pop t.live);
  Layers.finish sp

(* The decision-sequence digest of [Wl_fig8], over admit/reject, flow id
   and reserved rate. *)
let note t = function
  | Ok (flow, (res : Types.reservation)) ->
      t.admitted <- t.admitted + 1;
      t.digest <-
        Mono.mix (Mono.mix t.digest flow) (Int64.to_int (Int64.bits_of_float res.Types.rate))
  | Error _ -> t.digest <- Mono.mix t.digest (-1)

let step t () =
  let b = broker t in
  let req = request t in
  Layers.set_kind Layers.Decision;
  let t0 = Mono.now_ns () in
  let sp = Layers.start "bench.decision" in
  let d = Broker.request b req in
  Layers.finish sp;
  let l = Mono.now_ns () - t0 in
  note t d;
  (match d with
  | Ok (flow, _) ->
      Queue.push flow t.live;
      if Queue.length t.live > cap then teardown t b
  | Error _ -> if not (Queue.is_empty t.live) then teardown t b);
  l

let run_n t n = for _ = 1 to n do ignore (step t ()) done

let standby () =
  let topology, _, _ = chain () in
  Broker.create topology

let create ~seed ~fast_path =
  let topology, ingress, egress = chain () in
  let fo = Failover.create ~make_standby:standby (Broker.create ~fast_path topology) in
  {
    rng = Random.State.make [| seed; 4 |];
    ingress;
    egress;
    fo;
    live = Queue.create ();
    digest = Mono.fnv0;
    admitted = 0;
  }

(* One crash/recovery cycle, with an in-memory journal attached for the
   cycle alone (the decision path runs without one): checkpoint, serve
   until the tail holds [tail] records, crash, promote (restore the
   512-flow checkpoint, then re-book every journaled admission through the
   exact VT-EDF test), require the standby's MIB digest to equal the
   primary's, and detach the journal from the promoted broker. *)
let recover t ~tail () =
  let journal = Journal.create () in
  t.fo <- Failover.create ~make_standby:standby ~journal (broker t);
  Failover.checkpoint t.fo;
  while Journal.records journal < tail do ignore (step t ()) done;
  let before = Audit.mib_digest (broker t) in
  let records = Journal.records journal in
  Failover.crash t.fo;
  let r, ns = Mono.timed_settled (fun () -> Failover.promote t.fo) in
  Broker.clear_mutation_hook (broker t);
  { Wl.ok = Result.is_ok r && String.equal before (Audit.mib_digest (broker t)); ns; records }

let finish t ~seed ~warm ~prefix:(digest, admitted) () =
  (* Exact-admission oracle: an uncached broker fed the same set-up
     stream must make the identical decision sequence. *)
  let oracle = create ~seed ~fast_path:false in
  run_n oracle warm;
  {
    Wl.checks =
      [
        ("uncached broker agrees on set-up decisions", oracle.digest = digest && oracle.admitted = admitted);
        ("audit clean", Audit.ok (Audit.check (broker t)));
      ];
    notes =
      [
        ("set-up decision digest", Printf.sprintf "%016x" digest);
        ("set-up admitted", string_of_int admitted);
        ("live flows", string_of_int (Broker.per_flow_count (broker t)));
      ];
    gauges = [];
  }

let setup ~seed ~smoke =
  let t = create ~seed ~fast_path:true in
  let warm = if smoke then 600 else 6_000 in
  run_n t warm;
  let prefix = (t.digest, t.admitted) in
  {
    Wl.classify = [||];
    run = (fun r ~ns -> Wl.closed_loop r ~ns (step t));
    recover = recover t ~tail:(if smoke then 50 else 6_000);
    counters =
      (fun () ->
        Wl.cache_counters "cache." [ Broker.fast_path_stats (broker t) ]
        @ Wl.gc_counters (Mono.gc ()));
    traced_hooks = Wl.no_hooks;
    finish = finish t ~seed ~warm ~prefix;
    discard = ignore;
  }
