(* Closed-loop benchmark of the bandwidth broker.

     brokerbench --workload NAME --seed N --seconds S --trace 0|1
     brokerbench --smoke

   One client, closed loop: the next request goes out only when the
   previous decision is back, as a COPS PEP waits for its DEC, so
   throughput is what the broker sustains.  An admission reject is a
   successful decision; a request fails when it gets no decision.

   --trace 0 reports the end-to-end metrics.  --trace 1 splits the time
   into an untraced and a traced region on the same set-up and reports the
   per-layer metrics: self time per layer from the program's own spans
   plus benchmark spans around every public call, counters per decision,
   and the tracing overhead.  The traced run writes its spans as a Chrome
   trace next to its per-layer table in --out.  The last line of standard
   output is one JSON object: correct, attempted, failed, metrics. *)

module Json = Bbr_util.Json

let workloads =
  [
    ("fig8-durable", Wl_fig8.setup);
    ("chain-edf", Wl_chain.setup);
    ("regions-sharded", Wl_shard.sharded_setup);
    ("regions-parallel", Wl_shard.parallel_setup);
  ]

let end_to_end =
  [
    ("decisions_per_s", "1/s");
    ("decision_p50_us", "us");
    ("decision_p99_us", "us");
    ("setup_s", "s");
    ("recovery_s", "s");
    ("heap_peak_mb", "MB");
  ]

let per_layer =
  [
    ("stage.policy_us", "us");
    ("stage.routing_us", "us");
    ("stage.admissibility_us", "us");
    ("stage.bookkeeping_us", "us");
    ("broker.self_us", "us");
    ("cache.hit_ratio", "ratio");
    ("cache.merges_per_decision", "count");
    ("cache.link_refreshes_per_decision", "count");
    ("cops.self_us", "us");
    ("cops.msgs_per_decision", "count");
    ("engine.events_per_decision", "count");
    ("journal.self_us", "us");
    ("journal.records_per_decision", "count");
    ("storage.vfs_bytes", "bytes");
    ("failover.checkpoint_ms", "ms");
    ("failover.replay_records_per_s", "1/s");
    ("router.self_us", "us");
    ("router.single_shard_p50_us", "us");
    ("router.multi_shard_p50_us", "us");
    ("router.multi_shard_share", "ratio");
    ("spsc.rpc_roundtrip_p50_us", "us");
    ("teardown.self_us", "us");
    ("client.self_us", "us");
    ("gc.minor_words_per_decision", "words");
    ("gc.promoted_words_per_decision", "words");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("trace.overhead_pct", "%");
    ("trace.layer_coverage_pct", "%");
  ]

(* Set-ups per run; the reported set-up time is their median. *)
let setups = 3

(* Crash/recovery cycles per run.  They are interleaved with equal slices
   of the timed region, so recovery samples span the whole run instead of
   a few seconds at its end. *)
let cycles = 10

let setup_instances setup ~seed ~smoke =
  let rec go k acc =
    let inst, ns = Mono.timed (fun () -> setup ~seed ~smoke) in
    if k = 1 then (inst, ns :: acc)
    else begin
      inst.Wl.discard ();
      Gc.compact ();
      go (k - 1) (ns :: acc)
    end
  in
  go setups []

let delta before after =
  List.map (fun (k, v) -> (k, v -. List.assoc k before)) after

let get l k = Option.value ~default:0. (List.assoc_opt k l)

type run = {
  regions : Wl.region list;
  out : Wl.outcome;
  values : (string * float) list;  (* the reported metrics *)
  spans : string;  (* traced run: where the spans went, and their table *)
}

let median_s ns = Mono.median_float (List.map Mono.ns_to_s ns)

let e2e_values ~(region : Wl.region) ~recoveries ~setup_ns ~heap_peak_mb =
  let lat = Mono.Buf.to_array region.Wl.lat_ns in
  [
    ("decisions_per_s", float_of_int region.Wl.decisions /. Mono.ns_to_s region.Wl.elapsed_ns);
    ("decision_p50_us", Mono.ns_to_us (Mono.percentile_int lat ~p:50.));
    ("decision_p99_us", Mono.ns_to_us (Mono.percentile_int lat ~p:99.));
    ("setup_s", median_s setup_ns);
    ( "recovery_s",
      Mono.trimmed_mean_float (List.map (fun (c : Wl.recovery) -> Mono.ns_to_s c.Wl.ns) recoveries) );
    ("heap_peak_mb", heap_peak_mb);
  ]

let rate (g : Wl.region) = float_of_int g.Wl.decisions /. Mono.ns_to_s g.Wl.elapsed_ns

let layer_values ~(untraced : Wl.region) ~(traced : Wl.region) ~counters ~(lt : Layers.t)
    ~gauges =
  let dec = float_of_int (max 1 untraced.Wl.decisions) in
  let dec_t = float_of_int (max 1 traced.Wl.decisions) in
  let per_dec k = get counters k /. dec in
  let self_us names = Layers.self_s lt names *. 1e6 /. dec_t in
  let p50 name =
    match List.assoc_opt name (Array.to_list untraced.Wl.classes) with
    | Some b when Mono.Buf.length b > 0 ->
        Mono.ns_to_us (Mono.percentile_int (Mono.Buf.to_array b) ~p:50.)
    | _ -> 0.
  in
  let class_n name =
    match List.assoc_opt name (Array.to_list untraced.Wl.classes) with
    | Some b -> Mono.Buf.length b
    | None -> 0
  in
  let queries = get counters "cache.hits" +. get counters "cache.revalidations" in
  let computed =
    [
      ("stage.policy_us", self_us [ "bb.stage.policy" ]);
      ("stage.routing_us", self_us [ "bb.stage.routing" ]);
      ("stage.admissibility_us", self_us [ "bb.stage.admissibility" ]);
      ("stage.bookkeeping_us", self_us [ "bb.stage.bookkeeping" ]);
      ("broker.self_us", self_us [ "bb.request" ]);
      ("cache.hit_ratio", if queries > 0. then get counters "cache.hits" /. queries else 0.);
      ("cache.merges_per_decision", per_dec "cache.merges");
      ("cache.link_refreshes_per_decision", per_dec "cache.link_refreshes");
      ("cops.self_us", self_us [ "bb.cops.exchange"; "bb.stage.cops_push" ]);
      ("cops.msgs_per_decision", per_dec "cops.msgs");
      ("engine.events_per_decision", per_dec "engine.events");
      ("journal.self_us", self_us [ "bench.journal"; "bb.journal.group" ]);
      ("journal.records_per_decision", per_dec "journal.records");
      ("router.self_us", self_us [ "bench.router"; "bench.churn" ]);
      ("router.single_shard_p50_us", p50 "single");
      ("router.multi_shard_p50_us", p50 "multi");
      ( "router.multi_shard_share",
        let s = class_n "single" and m = class_n "multi" in
        if s + m = 0 then 0. else float_of_int m /. float_of_int (s + m) );
      ("teardown.self_us", self_us [ "bench.teardown" ]);
      ("client.self_us", self_us [ "bench.decision"; "bench.round" ]);
      ("gc.minor_words_per_decision", per_dec "gc.minor_words");
      ("gc.promoted_words_per_decision", per_dec "gc.promoted_words");
      ("gc.minor_collections", get counters "gc.minor");
      ("gc.major_collections", get counters "gc.major");
      ("trace.overhead_pct", 100. *. ((rate untraced /. rate traced) -. 1.));
      ("trace.layer_coverage_pct", Layers.coverage_pct lt);
    ]
  in
  List.map
    (fun (name, _) ->
      match List.assoc_opt name gauges with
      | Some v -> (name, v)
      | None -> (name, get computed name))
    per_layer

let out_dir = ref "perfbench-out"

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

(* The recovery check and figures every run reports. *)
let with_recoveries (out : Wl.outcome) recoveries =
  let rate (c : Wl.recovery) = float_of_int c.Wl.records /. Mono.ns_to_s (max 1 c.Wl.ns) in
  {
    Wl.checks =
      out.Wl.checks
      @ [ ("every recovery rebuilt the crashed state", List.for_all (fun (c : Wl.recovery) -> c.Wl.ok) recoveries) ];
    notes = out.Wl.notes;
    gauges =
      ("failover.replay_records_per_s", Mono.median_float (List.map rate recoveries)) :: out.Wl.gauges;
  }

let run_workload ~name ~setup ~seed ~seconds ~trace ~smoke =
  Gc.compact ();
  let ns = int_of_float (seconds *. 1e9) in
  let cycles = if smoke then 1 else cycles in
  if not trace then begin
    let inst, setup_ns = setup_instances setup ~seed ~smoke in
    let region = Wl.region inst.Wl.classify in
    let recoveries =
      List.init cycles (fun _ ->
          inst.Wl.run region ~ns:(ns / cycles);
          inst.Wl.recover ())
    in
    (* Peak through set-up, serving and recovery, before the checks. *)
    let heap_peak_mb = Mono.heap_peak_mb () in
    let out = with_recoveries (inst.Wl.finish ()) recoveries in
    {
      regions = [ region ];
      out;
      values = e2e_values ~region ~recoveries ~setup_ns ~heap_peak_mb;
      spans = "";
    }
  end
  else begin
    let inst = setup ~seed ~smoke in
    let c0 = inst.Wl.counters () in
    let untraced = Wl.region inst.Wl.classify in
    inst.Wl.run untraced ~ns:(ns / 2);
    let counters = delta c0 (inst.Wl.counters ()) in
    let lt = Layers.install () in
    inst.Wl.traced_hooks true;
    let traced = Wl.region inst.Wl.classify in
    inst.Wl.run traced ~ns:(ns / 2);
    inst.Wl.traced_hooks false;
    Layers.uninstall ();
    let recoveries = List.init 2 (fun _ -> inst.Wl.recover ()) in
    let out = with_recoveries (inst.Wl.finish ()) recoveries in
    let out =
      {
        out with
        Wl.checks =
          out.Wl.checks
          @ [ ("layer self times cover >= 90% of traced decisions", Layers.coverage_pct lt >= 90.) ];
      }
    in
    let values =
      layer_values ~untraced ~traced ~counters ~lt
        ~gauges:
          (* Bytes on the simulated disk at the end, not their growth. *)
          (("storage.vfs_bytes", get (inst.Wl.counters ()) "storage.vfs_bytes") :: out.Wl.gauges)
    in
    (try Sys.mkdir !out_dir 0o755 with Sys_error _ -> ());
    let base = Filename.concat !out_dir (Printf.sprintf "%s.seed%d" name seed) in
    let table = String.concat "\n" (Layers.table lt) ^ "\n" in
    write_file (base ^ ".trace.json") (Layers.chrome lt);
    write_file (base ^ ".layers.txt") table;
    let spans =
      Printf.sprintf "spans (self time per span name; Chrome trace %s.trace.json):\n%s" base table
    in
    { regions = [ untraced; traced ]; out; values; spans }
  end

let result_json ~trace r =
  let correct = List.for_all snd r.out.Wl.checks in
  let attempted = List.fold_left (fun s g -> s + g.Wl.decisions + g.Wl.failed) 0 r.regions in
  let failed =
    if correct then List.fold_left (fun s g -> s + g.Wl.failed) 0 r.regions else attempted
  in
  let units = if trace then per_layer else end_to_end in
  let metrics =
    List.map
      (fun (name, unit) ->
        (name, Json.Obj [ ("value", Json.Num (List.assoc name r.values)); ("unit", Json.Str unit) ]))
      units
  in
  ( correct && failed = 0,
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Num (float_of_int attempted));
        ("failed", Json.Num (float_of_int failed));
        ("metrics", Json.Obj metrics);
      ] )

let report ~name ~trace r =
  print_string r.spans;
  Printf.printf "workload %s (%s run)\n" name (if trace then "traced" else "untraced");
  List.iter (fun (k, ok) -> Printf.printf "  check %-48s %s\n" k (if ok then "ok" else "FAILED"))
    r.out.Wl.checks;
  List.iter (fun (k, v) -> Printf.printf "  %-28s %s\n" k v) r.out.Wl.notes;
  let main = List.hd r.regions in
  Printf.printf "  %-28s %d decisions in %.3f s, %d latency samples\n" "timed region"
    main.Wl.decisions (Mono.ns_to_s main.Wl.elapsed_ns) (Mono.Buf.length main.Wl.lat_ns);
  List.iter
    (fun (k, unit) -> Printf.printf "  %-34s %14.4f %s\n" k (List.assoc k r.values) unit)
    (if trace then per_layer else end_to_end)

let smoke () =
  let bad = ref [] in
  List.iter
    (fun (name, setup) ->
      List.iter
        (fun trace ->
          let r = run_workload ~name ~setup ~seed:1 ~seconds:0.05 ~trace ~smoke:true in
          let ok, json = result_json ~trace r in
          let metrics = Option.get (Json.member "metrics" json) in
          let want = if trace then per_layer else end_to_end in
          let printed =
            List.for_all
              (fun (k, unit) ->
                match Json.member k metrics with
                | Some m -> (
                    match (Json.member "unit" m, Option.bind (Json.member "value" m) Json.to_float) with
                    | Some (Json.Str u), Some v -> u = unit && Float.is_finite v
                    | _ -> false)
                | None -> false)
              want
          in
          if not (ok && printed) then begin
            report ~name ~trace r;
            bad := Printf.sprintf "%s/trace=%b" name trace :: !bad
          end)
        [ false; true ])
    workloads;
  match !bad with
  | [] -> print_endline "smoke: every workload printed every metric and passed its checks"
  | l ->
      prerr_endline ("smoke: FAILED " ^ String.concat ", " (List.rev l));
      exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let smoke_mode = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed region");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--out", Arg.Set_string out_dir, "DIR where the traced run writes its spans");
      ("--smoke", Arg.Set smoke_mode, " tiny run of every workload, asserting the output");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "brokerbench --workload NAME --seed N --seconds S --trace 0|1";
  if !smoke_mode then smoke ()
  else
    match List.assoc_opt !workload workloads with
    | None ->
        prerr_endline
          ("unknown workload; one of: " ^ String.concat ", " (List.map fst workloads));
        exit 2
    | Some setup ->
        let trace = !trace = 1 in
        let r =
          run_workload ~name:!workload ~setup ~seed:!seed ~seconds:!seconds ~trace ~smoke:false
        in
        report ~name:!workload ~trace r;
        let ok, json = result_json ~trace r in
        print_endline (Json.to_string json);
        if not ok then exit 1
