(* fig8-durable: the cached broker behind the base COPS channel on a
   discrete-event engine, journaling every mutation (fsync_every 1) through
   the segmented store on a simulated disk, checkpointing every
   [checkpoint_every] decisions.  At most [cap] live flows.  Per-decision
   fixed overhead dominates: COPS messages, engine events, policy,
   routing, bookkeeping and journal encoding; admissibility is cheap
   because M <= 64. *)

open Bbr_broker
module Engine = Bbr_netsim.Engine
module Vfs = Bbr_util.Vfs
module Fig8 = Bbr_workload.Fig8

let cap = 64

let checkpoint_every = 1_000

type t = {
  rng : Random.State.t;
  engine : Engine.t;
  vfs : Vfs.t;
  journal : Journal.t;
  fo : Failover.t;
  cops : Cops.t;
  live : Types.flow_id Queue.t;
  mutable decisions : int;
  mutable digest : int;  (* running digest of the decision sequence *)
  mutable admitted : int;
  mutable checkpointing : bool;  (* off while serving a recovery tail *)
  checkpoint_ns : Mono.Buf.t;
}

let request rng =
  if Random.State.bool rng then
    Wl.flow_request rng ~ingress:Fig8.ingress1 ~egress:Fig8.egress1
  else Wl.flow_request rng ~ingress:Fig8.ingress2 ~egress:Fig8.egress2

let drain t = Engine.run t.engine

let teardown t flow =
  Layers.set_kind Layers.Other;
  let sp = Layers.start "bench.teardown" in
  Cops.teardown t.cops flow;
  drain t;
  Layers.finish sp

let checkpoint t =
  Layers.set_kind Layers.Other;
  let sp = Layers.start "bench.checkpoint" in
  let t0 = Mono.now_ns () in
  Failover.checkpoint t.fo;
  Mono.Buf.push t.checkpoint_ns (Mono.now_ns () - t0);
  Layers.finish sp

(* One closed-loop decision: REQ goes out, the engine runs until the DEC
   is back (and the PEP's report is sent), then the oldest flow is torn
   down when the population exceeds [cap] or the request was rejected. *)
let step t () =
  let req = request t.rng in
  let got = ref None in
  Layers.set_kind Layers.Decision;
  let t0 = Mono.now_ns () in
  let sp = Layers.start "bench.decision" in
  Cops.request t.cops req ~on_decision:(fun d -> got := Some d);
  drain t;
  Layers.finish sp;
  let l = Mono.now_ns () - t0 in
  match !got with
  | None -> -1
  | Some d ->
      t.decisions <- t.decisions + 1;
      (match d with
      | Ok (flow, res) ->
          t.admitted <- t.admitted + 1;
          t.digest <- Mono.mix (Mono.mix t.digest flow) (Int64.to_int (Int64.bits_of_float res.Types.rate));
          Queue.push flow t.live;
          if Queue.length t.live > cap then teardown t (Queue.pop t.live)
      | Error _ ->
          t.digest <- Mono.mix t.digest (-1);
          if not (Queue.is_empty t.live) then teardown t (Queue.pop t.live));
      if t.checkpointing && t.decisions mod checkpoint_every = 0 then checkpoint t;
      l

let run_n t n = for _ = 1 to n do ignore (step t ()) done

let vfs_bytes t =
  List.fold_left (fun s name -> s + Vfs.size t.vfs ~name) 0 (Vfs.list t.vfs)

(* The traced run wraps the journal's mutation hook in a benchmark span,
   so journal encoding and the simulated-disk write show as their own
   layer.  [Journal.attach] installs the plain hook back. *)
let traced_hooks t on =
  let b = Failover.active t.fo in
  if on then
    Broker.set_mutation_hook b (fun m ->
        let sp = Layers.start "bench.journal" in
        Journal.append t.journal ~at:(Broker.now b) m;
        Layers.finish sp)
  else Journal.attach t.journal b

let counters t () =
  let b = Failover.active t.fo in
  ("cops.msgs", float_of_int (Cops.messages t.cops))
  :: ("engine.events", float_of_int (Engine.executed t.engine))
  :: ("journal.records", float_of_int (Journal.appended_total t.journal))
  :: ("storage.vfs_bytes", float_of_int (vfs_bytes t))
  :: Wl.cache_counters "cache." [ Broker.fast_path_stats b ]
  @ Wl.gc_counters (Mono.gc ())

(* One crash/recovery cycle: checkpoint, serve until the journal tail
   holds [tail] records (a fixed amount of durable state, whatever the
   reject share), crash, promote from the store (newest checkpoint +
   journal tail), and require the promoted broker to hold the crashed
   primary's exact MIB digest with no recovery loss. *)
let recover t ~tail () =
  Failover.checkpoint t.fo;
  t.checkpointing <- false;
  while Journal.records t.journal < tail do ignore (step t ()) done;
  t.checkpointing <- true;
  let before = Audit.mib_digest (Failover.active t.fo) in
  Failover.crash t.fo;
  Cops.set_pdp_up t.cops false;
  let r, ns = Mono.timed_settled (fun () -> Failover.promote t.fo) in
  let b = Failover.active t.fo in
  Cops.set_broker t.cops b;
  Cops.set_pdp_up t.cops true;
  let sr = Failover.last_recovery t.fo in
  {
    Wl.ok =
      Result.is_ok r
      && String.equal before (Audit.mib_digest b)
      && not (Option.fold ~none:true ~some:Failover.recovery_loss sr);
    ns;
    records = Option.fold ~none:0 ~some:(fun sr -> sr.Failover.sr_replayed) sr;
  }

let finish t ~prefix:(prefix_digest, prefix_admitted) () =
  let ckpt = Mono.Buf.to_array t.checkpoint_ns in
  {
    Wl.checks =
      [
        ("audit clean", Audit.ok (Audit.check (Failover.active t.fo)));
        ("no exchange left pending", Cops.pending t.cops = 0);
      ];
    notes =
      [
        ("set-up decision digest", Printf.sprintf "%016x" prefix_digest);
        ("set-up admitted", string_of_int prefix_admitted);
      ];
    gauges =
      [
        ( "failover.checkpoint_ms",
          if Array.length ckpt = 0 then 0.
          else float_of_int (Mono.percentile_int ckpt ~p:50.) *. 1e-6 );
      ];
  }

let setup ~seed ~smoke =
  let rng = Random.State.make [| seed; 8 |] in
  let engine = Engine.create () in
  let time =
    {
      Broker.now = (fun () -> Engine.now engine);
      after = (fun delay f -> Engine.schedule_after engine ~delay f);
    }
  in
  let vfs = Vfs.create ~seed () in
  let storage = Storage.create ~vfs () in
  let journal = Journal.create ~fsync_every:1 ~storage () in
  let broker = Broker.create ~time (Fig8.topology `Mixed) in
  let fo =
    Failover.create
      ~make_standby:(fun () -> Broker.create ~time (Fig8.topology `Mixed))
      ~time ~journal ~storage broker
  in
  let cops =
    Cops.create broker ~defer:(fun delay f -> Engine.schedule_after engine ~delay f) ()
  in
  let t =
    {
      rng;
      engine;
      vfs;
      journal;
      fo;
      cops;
      live = Queue.create ();
      decisions = 0;
      digest = Mono.fnv0;
      admitted = 0;
      checkpointing = true;
      checkpoint_ns = Mono.Buf.create ();
    }
  in
  (* Fill to the steady population and warm the caches. *)
  run_n t (if smoke then 300 else 20_000);
  let prefix = (t.digest, t.admitted) in
  {
    Wl.classify = [||];
    run = (fun r ~ns -> Wl.closed_loop r ~ns (step t));
    recover = recover t ~tail:(if smoke then 200 else 20_000);
    counters = counters t;
    traced_hooks = traced_hooks t;
    finish = finish t ~prefix;
    discard = ignore;
  }
