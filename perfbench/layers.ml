(* The traced run's span collector.

   [install] puts the program's own metrics registry and trace ring in
   place, so the broker's [bb.stage.*], [bb.request], [bb.cops.exchange]
   and [bb.journal.group] spans are recorded, and stamps every span with
   the monotonic clock.  The benchmark adds its own [bench.*] spans around
   each public call it makes ([start]/[finish]).  A tee sees every
   finished span, in finish order (children before parents), and keeps
   per-name totals of duration and self time: a span's self time is its
   duration minus the durations of its direct children. *)

module Trace = Bbr_obs.Trace
module Metrics = Bbr_obs.Metrics

(* What the client is doing when a span finishes: decision trees are the
   ones the coverage check sums over. *)
type kind = Decision | Other

type acc = { mutable self_s : float; mutable dur_s : float; mutable n : int }

type t = {
  tracer : Trace.t;
  by_name : (string, acc) Hashtbl.t;
  child_sum : (int, float) Hashtbl.t;
  mutable kind : kind;
  mutable decision_root_s : float;  (* summed durations of decision roots *)
  mutable decision_layers_s : float;  (* summed self time below them *)
}

let current = ref None

let acc t name =
  match Hashtbl.find_opt t.by_name name with
  | Some a -> a
  | None ->
      let a = { self_s = 0.; dur_s = 0.; n = 0 } in
      Hashtbl.replace t.by_name name a;
      a

let on_entry t (e : Trace.entry) =
  match (e.Trace.payload, e.Trace.ctx) with
  | Trace.Span { dur }, Some ctx ->
      let children =
        match Hashtbl.find_opt t.child_sum ctx.Trace.span_id with
        | Some s ->
            Hashtbl.remove t.child_sum ctx.Trace.span_id;
            s
        | None -> 0.
      in
      let self = dur -. children in
      let a = acc t e.Trace.name in
      a.self_s <- a.self_s +. self;
      a.dur_s <- a.dur_s +. dur;
      a.n <- a.n + 1;
      (match ctx.Trace.parent with
      | Some p ->
          let s = Option.value ~default:0. (Hashtbl.find_opt t.child_sum p) in
          Hashtbl.replace t.child_sum p (s +. dur);
          if t.kind = Decision then
            t.decision_layers_s <- t.decision_layers_s +. self
      | None ->
          if t.kind = Decision then
            t.decision_root_s <- t.decision_root_s +. dur)
  | _ -> ()

let ring_capacity = 1 lsl 14

let install () =
  let reg = Metrics.create () in
  Metrics.install reg;
  let tracer = Trace.create ~capacity:ring_capacity () in
  let t0 = Mono.now_ns () in
  Trace.set_wall_clock tracer (fun () -> Mono.ns_to_s (Mono.now_ns () - t0));
  let t =
    {
      tracer;
      by_name = Hashtbl.create 32;
      child_sum = Hashtbl.create 64;
      kind = Other;
      decision_root_s = 0.;
      decision_layers_s = 0.;
    }
  in
  Trace.set_tee tracer (Some (on_entry t));
  Trace.install tracer;
  current := Some t;
  t

let uninstall () =
  Trace.uninstall ();
  Metrics.uninstall ();
  current := None

(* Run [f] with tracing and metrics off: work the client does between
   timed calls (reference checks) stays out of the layer totals. *)
let without f =
  match !current with
  | None -> f ()
  | Some t ->
      let reg = Metrics.current () in
      Trace.uninstall ();
      Metrics.uninstall ();
      Fun.protect
        ~finally:(fun () ->
          Trace.install t.tracer;
          Option.iter Metrics.install reg)
        f

let set_kind k = match !current with Some t -> t.kind <- k | None -> ()

(* Benchmark-side spans.  Without a tracer both are a branch. *)
let start name =
  let sp = Trace.start_span name in
  Trace.push_ambient sp;
  sp

let finish sp =
  Trace.pop_ambient sp;
  Trace.finish_span sp

(* Self time per call of the named spans, summed, in seconds. *)
let self_s t names =
  List.fold_left
    (fun s n -> match Hashtbl.find_opt t.by_name n with Some a -> s +. a.self_s | None -> s)
    0. names

let coverage_pct t =
  if t.decision_root_s <= 0. then 0.
  else 100. *. t.decision_layers_s /. t.decision_root_s

(* Per-name table: calls, total and self microseconds. *)
let table t =
  Hashtbl.fold (fun name a l -> (name, a) :: l) t.by_name []
  |> List.sort (fun (_, a) (_, b) -> compare b.self_s a.self_s)
  |> List.map (fun (name, a) ->
         Printf.sprintf "  %-26s %9d calls %12.0f us total %12.0f us self" name a.n
           (a.dur_s *. 1e6) (a.self_s *. 1e6))

(* The retained ring (the last [ring_capacity] entries) as a Chrome
   trace_event document. *)
let chrome t = Bbr_obs.Trace_export.chrome_string (Trace.entries t.tracer)
