(* The two sharded workloads, on the [Shard_load.default] regions domain
   split across two shards spawned on their own domains.

   regions-sharded: one client calls [Shard_router.request]/[teardown]
   directly; about 30% of requests cross regions, which drives the
   multi-shard two-phase path (Prepare + Book_segment) beside single-shard
   Admit.  The only workload with a mailbox round trip on every decision.

   regions-parallel: [Shard_router.churn] runs [Shard_load.specs] on both
   shards at once, regional traffic only.  The only workload where shard
   domains compute at the same time, so it carries OCaml 5's
   stop-the-world minor-GC cost while the mailbox carries one Churn per
   shard per round. *)

open Bbr_broker
module Shard_load = Bbr_workload.Shard_load
module Topology = Bbr_vtrs.Topology

let nshards = 2

let cfg = Shard_load.default

let partition = Shard_load.partition ~nshards

let router ?journal_for ~spawn topology =
  Shard_router.create ~spawn ?journal_for ~shards:nshards ~partition topology

let cache_stats r =
  List.init (Shard_router.nshards r) (fun i ->
      Broker.fast_path_stats (Shard.broker (Shard_router.shard r i)))

(* ---------------------------------------------------------------- *)
(* Recovery of the sharded broker shape: per-shard journal replay from
   the pristine topology.  On first use a journaled inline router serves
   [serve]'s load until the shard journals hold [records] records in all
   (inline and spawned shards write identical journals).  Each cycle then
   replays every shard's journal into a fresh broker, timed, and the
   rebuilt MIB digests must equal the shards'. *)
let recovery ~topology ~records ~serve =
  let prepared =
    lazy
      (let journals = Array.init nshards (fun _ -> Journal.create ~fsync_every:1 ()) in
       let r = router ~journal_for:(fun i -> Some journals.(i)) ~spawn:false topology in
       let written () = Array.fold_left (fun s j -> s + Journal.appended_total j) 0 journals in
       let step = serve r in
       while written () < records do step () done;
       ( Array.map Journal.text journals,
         Array.init nshards (fun i -> Audit.mib_digest (Shard.broker (Shard_router.shard r i))),
         written () ))
  in
  fun () ->
    let texts, want, records = Lazy.force prepared in
    let rebuilt, ns =
      Mono.timed_settled (fun () ->
          Array.map
            (fun text ->
              let b = Broker.create (Topology.copy topology) in
              (b, Journal.replay b text))
            texts)
    in
    let ok =
      Array.for_all2
        (fun (b, res) d -> Result.is_ok res && String.equal d (Audit.mib_digest b))
        rebuilt want
    in
    { Wl.ok; ns; records }

(* ---------------------------------------------------------------- *)
(* regions-sharded *)

let node r i = Printf.sprintf "R%d_N%d" r i

(* Request stream: [cross] percent of requests join two distinct regions,
   the rest stay inside one. *)
let mixed_request ?(cross = 30) rng =
  let npr = cfg.Shard_load.nodes_per_region in
  let ra = Random.State.int rng cfg.Shard_load.regions in
  let a = Random.State.int rng npr in
  let rb, b =
    if Random.State.int rng 100 < cross then
      ((ra + 1 + Random.State.int rng (cfg.Shard_load.regions - 1)) mod cfg.Shard_load.regions,
       Random.State.int rng npr)
    else (ra, (a + 1 + Random.State.int rng (npr - 1)) mod npr)
  in
  Wl.flow_request rng ~ingress:(node ra a) ~egress:(node rb b)

(* Which path class each ingress/egress pair takes: 0 = every link owned
   by one shard, 1 = links on several shards (two-phase path).  Routing is
   load-independent, so this is a property of the topology. *)
let classifier topology r =
  let scratch = Broker.create (Topology.copy topology) in
  let memo = Hashtbl.create 1024 in
  fun (req : Types.request) ->
    let key = (req.Types.ingress, req.Types.egress) in
    match Hashtbl.find_opt memo key with
    | Some c -> c
    | None ->
        let c =
          match Broker.route_of scratch req with
          | None -> 0
          | Some info -> (
              match
                List.sort_uniq compare
                  (List.map
                     (fun (l : Topology.link) ->
                       Shard_router.owner_of_link r ~link_id:l.Topology.link_id)
                     info.Path_mib.links)
              with
              | [] | [ _ ] -> 0
              | _ -> 1)
        in
        Hashtbl.replace memo key c;
        c

(* The closed-loop client, shared by the sharded run and its single-broker
   reference: a request stream from [rng], the oldest flow torn down when
   the population exceeds [live_cap] or a request is rejected, and a
   running digest of the decision sequence. *)
type client = {
  rng : Random.State.t;
  live : Types.flow_id Queue.t;
  mutable decisions : int;
  mutable digest : int;
}

let live_cap = 128

let client ~seed = { rng = Random.State.make [| seed; 70 |]; live = Queue.create (); decisions = 0; digest = Mono.fnv0 }

let settle c d ~teardown =
  c.decisions <- c.decisions + 1;
  match d with
  | Ok (flow, _) ->
      c.digest <- Mono.mix c.digest flow;
      Queue.push flow c.live;
      if Queue.length c.live > live_cap then teardown (Queue.pop c.live)
  | Error _ ->
      c.digest <- Mono.mix c.digest (-1);
      if not (Queue.is_empty c.live) then teardown (Queue.pop c.live)

type sharded = {
  seed : int;
  c : client;
  topology : Topology.t;
  r : Shard_router.t;
  cls : int ref;
  classify : Types.request -> int;
}

let sharded_teardown t flow =
  Layers.set_kind Layers.Other;
  let sp = Layers.start "bench.teardown" in
  let inner = Layers.start "bench.router" in
  Shard_router.teardown t.r flow;
  Layers.finish inner;
  Layers.finish sp

let sharded_step t () =
  let req = mixed_request t.c.rng in
  t.cls := t.classify req;
  Layers.set_kind Layers.Decision;
  let t0 = Mono.now_ns () in
  let sp = Layers.start "bench.decision" in
  let inner = Layers.start "bench.router" in
  let d = Shard_router.request t.r req in
  Layers.finish inner;
  Layers.finish sp;
  let l = Mono.now_ns () - t0 in
  settle t.c d ~teardown:(sharded_teardown t);
  l

(* A single broker driven by the same client for the same number of
   decisions: same decision digest, same MIB digest (the router allocates
   flow ids centrally). *)
let reference topology ~seed ~decisions =
  let b = Broker.create (Topology.copy topology) in
  let c = client ~seed in
  for _ = 1 to decisions do
    settle c (Broker.request b (mixed_request c.rng)) ~teardown:(Broker.teardown b)
  done;
  (b, c.digest)

(* Mailbox round trip alone: a Teardown of an id no shard holds. *)
let spsc_probe r ~n =
  let samples =
    Array.init n (fun i ->
        let s = Shard_router.shard r (i mod nshards) in
        snd (Mono.timed (fun () -> ignore (Shard.rpc s (Shard.Teardown max_int)))))
  in
  Mono.ns_to_us (Mono.percentile_int samples ~p:50.)

let recovery_records ~smoke = if smoke then 300 else 60_000

let sharded_finish t ~smoke ~prefix () =
  let b, digest = reference t.topology ~seed:t.seed ~decisions:t.c.decisions in
  let digest_ok = String.equal (Shard_router.mib_digest t.r) (Audit.mib_digest b) in
  let audits = Shard_router.audits_clean t.r in
  let probe = spsc_probe t.r ~n:(if smoke then 50 else 4_000) in
  Shard_router.stop t.r;
  let cache = Wl.cache_counters "" (cache_stats t.r) in
  let per_decision k = List.assoc k cache /. float_of_int (max 1 t.c.decisions) in
  let queries = List.assoc "hits" cache +. List.assoc "revalidations" cache in
  {
    Wl.checks =
      [
        ("decisions equal a single broker's", digest = t.c.digest);
        ("MIB digest equals a single broker's", digest_ok);
        ("shard audits clean", audits);
      ];
    notes =
      [
        ("set-up decision digest", prefix);
        ("decisions", string_of_int t.c.decisions);
      ];
    gauges =
      [
        ("spsc.rpc_roundtrip_p50_us", probe);
        (* Whole-run cache totals: shard brokers are readable only after
           their domains stop. *)
        ("cache.hit_ratio", if queries > 0. then List.assoc "hits" cache /. queries else 0.);
        ("cache.merges_per_decision", per_decision "merges");
        ("cache.link_refreshes_per_decision", per_decision "link_refreshes");
      ];
  }

let sharded_setup ~seed ~smoke =
  let topology = Shard_load.topology cfg in
  let r = router ~spawn:true topology in
  let t =
    { seed; c = client ~seed; topology; r; cls = ref (-1); classify = classifier topology r }
  in
  for _ = 1 to (if smoke then 100 else 1_500) do ignore (sharded_step t ()) done;
  let prefix = Printf.sprintf "%016x" t.c.digest in
  {
    Wl.classify = [| "single"; "multi" |];
    run = (fun region ~ns -> Wl.closed_loop ~cls:t.cls region ~ns (sharded_step t));
    recover =
      recovery ~topology ~records:(recovery_records ~smoke) ~serve:(fun r ->
          let u = { t with c = client ~seed:(seed + 1); r } in
          fun () -> ignore (sharded_step u ()));
    counters = (fun () -> Wl.gc_counters (Mono.gc ()));
    traced_hooks = Wl.no_hooks;
    finish = sharded_finish t ~smoke ~prefix;
    discard = (fun () -> Shard_router.stop r);
  }

(* ---------------------------------------------------------------- *)
(* regions-parallel: one spawned router; the timed region is a sequence of
   identical rounds, each one [churn] call running [Shard_load.specs] of
   the run's seed on both shards.  Between rounds (untimed) the client
   records the flowset digest and releases the leftover flows, so every
   round starts from an empty MIB with warm caches and reuses the same
   striped flow ids. *)

type parallel = {
  pcfg : Shard_load.config;
  topology : Topology.t;
  r : Shard_router.t;
  digests : (string, int) Hashtbl.t;  (* round flowset digest -> rounds *)
  mutable clean : bool;
  mutable gc : Mono.gc;  (* GC work accumulated inside timed churns *)
  mutable admitted : int;
}

let add_gc a (g0 : Mono.gc) (g1 : Mono.gc) =
  {
    Mono.minor_words = a.Mono.minor_words +. g1.Mono.minor_words -. g0.Mono.minor_words;
    promoted_words = a.Mono.promoted_words +. g1.Mono.promoted_words -. g0.Mono.promoted_words;
    minor = a.Mono.minor + g1.Mono.minor - g0.Mono.minor;
    major = a.Mono.major + g1.Mono.major - g0.Mono.major;
  }

(* Tear down every flow, pipelined on each shard's mailbox: a striped
   churn flow lives only on the shard that admitted it, so this is
   [Shard_router.teardown] without the broadcast and one mailbox wake-up
   per shard instead of one round trip per flow.  At most [cap] flows per
   shard, well inside the mailbox capacity. *)
let release r =
  for i = 0 to nshards - 1 do
    let s = Shard_router.shard r i in
    match Shard.rpc s Shard.Dump with
    | Shard.Flows flows ->
        List.iter (fun (flow, _, _, _) -> Shard.send s (Shard.Teardown flow)) flows;
        List.iter (fun _ -> ignore (Shard.recv s)) flows
    | _ -> assert false
  done

(* One round; returns the timed churn's ns. *)
let round p =
  let specs = Shard_load.specs p.pcfg ~nshards in
  Layers.set_kind Layers.Decision;
  let sp = Layers.start "bench.round" in
  let g0 = Mono.gc () in
  let t0 = Mono.now_ns () in
  let inner = Layers.start "bench.churn" in
  let results = Shard_router.churn p.r specs in
  Layers.finish inner;
  let ns = Mono.now_ns () - t0 in
  let g1 = Mono.gc () in
  Layers.finish sp;
  Layers.set_kind Layers.Other;
  p.gc <- add_gc p.gc g0 g1;
  Layers.without (fun () ->
      let d = Shard_router.flowset_digest p.r in
      Hashtbl.replace p.digests d (1 + Option.value ~default:0 (Hashtbl.find_opt p.digests d));
      if not (Shard_router.audits_clean p.r) then p.clean <- false;
      Array.iter
        (fun (x : Shard.churn_result) -> p.admitted <- p.admitted + x.Shard.admitted)
        results;
      release p.r);
  ns

let parallel_run p (region : Wl.region) ~ns =
  let t_end = region.Wl.elapsed_ns + ns in
  while region.Wl.elapsed_ns < t_end do
    let dt = round p in
    region.Wl.elapsed_ns <- region.Wl.elapsed_ns + dt;
    region.Wl.decisions <- region.Wl.decisions + (nshards * p.pcfg.Shard_load.ops_per_shard);
    (* Per-decision wall time inside a shard during this round: Shard.churn
       has no monotonic per-decision timer of its own.  Rounds are long
       (tens of ms) so that one descheduled shard domain adds a few percent
       to a sample instead of doubling it: with short rounds the p99 read
       how many such stalls a run happened to catch. *)
    Mono.Buf.push region.Wl.lat_ns (dt / p.pcfg.Shard_load.ops_per_shard)
  done

(* [Shard_load.reference_flows] builds its topology from the stream seed;
   here the topology is fixed and only the streams follow the run's seed,
   so the reference runs the same loop over [Shard_load.specs]. *)
let reference_flowset p =
  let b = Broker.create (Topology.copy p.topology) in
  Array.iter
    (fun (spec : Shard.churn_spec) ->
      let live = Queue.create () in
      for _ = 1 to spec.Shard.ops do
        match Broker.request b (spec.Shard.gen ()) with
        | Ok (flow, _) ->
            Queue.push flow live;
            if Queue.length live > spec.Shard.cap then Broker.teardown b (Queue.pop live)
        | Error _ -> ()
      done)
    (Shard_load.specs p.pcfg ~nshards);
  Shard_router.flowset_digest_of (Shard_router.flows_of_broker b)

let parallel_finish p () =
  let want = reference_flowset p in
  let rounds = Hashtbl.fold (fun _ n s -> s + n) p.digests 0 in
  let same = Hashtbl.length p.digests = 1 && Hashtbl.mem p.digests want in
  Shard_router.stop p.r;
  let cache = Wl.cache_counters "" (cache_stats p.r) in
  let decisions = float_of_int (max 1 (rounds * nshards * p.pcfg.Shard_load.ops_per_shard)) in
  let queries = List.assoc "hits" cache +. List.assoc "revalidations" cache in
  {
    Wl.checks =
      [
        ("every round's flowset equals the single-broker reference", same);
        ("shard audits clean", p.clean);
      ];
    notes =
      [
        ("rounds", string_of_int rounds);
        ("round flowset digest", want);
        ("admitted", string_of_int p.admitted);
      ];
    gauges =
      [
        ("cache.hit_ratio", if queries > 0. then List.assoc "hits" cache /. queries else 0.);
        ("cache.merges_per_decision", List.assoc "merges" cache /. decisions);
        ("cache.link_refreshes_per_decision", List.assoc "link_refreshes" cache /. decisions);
      ];
  }

let parallel_setup ~seed ~smoke =
  let topology = Shard_load.topology cfg in
  let p =
    {
      pcfg =
        { cfg with Shard_load.seed = seed; ops_per_shard = (if smoke then 500 else 20_000) };
      topology;
      r = router ~spawn:true topology;
      digests = Hashtbl.create 4;
      clean = true;
      gc = { Mono.minor_words = 0.; promoted_words = 0.; minor = 0; major = 0 };
      admitted = 0;
    }
  in
  (* Warm-up rounds: routes cached, code paths and the major heap warm. *)
  for _ = 1 to 3 do ignore (round p) done;
  {
    Wl.classify = [||];
    run = parallel_run p;
    (* Regional traffic only, as in the rounds, from a closed-loop client
       (the churn loop cannot stop at a record count). *)
    recover =
      recovery ~topology ~records:(recovery_records ~smoke) ~serve:(fun r ->
          let c = client ~seed:(seed + 1) in
          fun () ->
            settle c (Shard_router.request r (mixed_request ~cross:0 c.rng))
              ~teardown:(Shard_router.teardown r));
    counters = (fun () -> Wl.gc_counters p.gc);
    traced_hooks = Wl.no_hooks;
    finish = parallel_finish p;
    discard = (fun () -> Shard_router.stop p.r);
  }
