(* What every workload hands the runner in [brokerbench.ml]. *)

(* The timed part of a run, accumulated over its slices. *)
type region = {
  mutable decisions : int;  (* requests that got a decision (admit or reject) *)
  mutable failed : int;  (* requests that got none: exception, busy, hang *)
  mutable elapsed_ns : int;
  lat_ns : Mono.Buf.t;  (* per-decision latency samples *)
  classes : (string * Mono.Buf.t) array;
      (* latency samples per request class, for per-layer percentiles *)
}

let region classify =
  {
    decisions = 0;
    failed = 0;
    elapsed_ns = 0;
    lat_ns = Mono.Buf.create ();
    classes = Array.map (fun name -> (name, Mono.Buf.create ())) classify;
  }

(* One crash/recovery cycle of the workload's broker shape. *)
type recovery = {
  ok : bool;  (* the rebuilt state equals the crashed one *)
  ns : int;  (* wall time of the recovery itself *)
  records : int;  (* journal records it replayed *)
}

type outcome = {
  checks : (string * bool) list;  (* correctness checks, all must hold *)
  notes : (string * string) list;  (* digests and counts, printed *)
  gauges : (string * float) list;  (* per-layer values known at the end *)
}

type instance = {
  classify : string array;  (* request classes [run] reports latency for *)
  run : region -> ns:int -> unit;  (* serve for [ns], accumulating *)
  recover : unit -> recovery;
  counters : unit -> (string * float) list;
      (* cumulative counters; the runner reports their growth over a region *)
  traced_hooks : bool -> unit;
      (* switch benchmark-side spans that need a hook into the program *)
  finish : unit -> outcome;
  discard : unit -> unit;  (* release a set-up instance that will not run *)
}

(* Closed loop until [ns] have elapsed: [step ()] issues one request and
   returns its latency in ns, or -1 when it got no decision; it sets
   [cls] to the request's index in the region's classes (-1: none). *)
let closed_loop ?(cls = ref (-1)) (r : region) ~ns step =
  let t0 = Mono.now_ns () in
  let deadline = t0 + ns in
  let rec go () =
    let l = step () in
    if l < 0 then r.failed <- r.failed + 1
    else begin
      r.decisions <- r.decisions + 1;
      Mono.Buf.push r.lat_ns l;
      if !cls >= 0 then Mono.Buf.push (snd r.classes.(!cls)) l
    end;
    if Mono.now_ns () < deadline then go ()
  in
  go ();
  r.elapsed_ns <- r.elapsed_ns + (Mono.now_ns () - t0)

let cache_counters prefix (stats : Bbr_broker.Admission_cache.stats option list) =
  let sum f =
    List.fold_left
      (fun s st -> match st with Some st -> s + f st | None -> s)
      0 stats
  in
  let open Bbr_broker.Admission_cache in
  [
    (prefix ^ "hits", float_of_int (sum (fun s -> s.hits)));
    (prefix ^ "revalidations", float_of_int (sum (fun s -> s.revalidations)));
    (prefix ^ "merges", float_of_int (sum (fun s -> s.merges)));
    (prefix ^ "link_refreshes", float_of_int (sum (fun s -> s.link_refreshes)));
  ]

let gc_counters (g : Mono.gc) =
  [
    ("gc.minor_words", g.Mono.minor_words);
    ("gc.promoted_words", g.Mono.promoted_words);
    ("gc.minor", float_of_int g.Mono.minor);
    ("gc.major", float_of_int g.Mono.major);
  ]

(* Table-1 flow profile and a delay requirement in [0.5, 6] s, as the
   repository's admission benches draw them. *)
let flow_request rng ~ingress ~egress =
  {
    Bbr_broker.Types.profile = Bbr_workload.Profiles.profile (Random.State.int rng 4);
    dreq = 0.5 +. Random.State.float rng 5.5;
    ingress;
    egress;
  }

let no_hooks (_ : bool) = ()
