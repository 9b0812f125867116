module Ov = Bbr_broker.Overload

let base_load = Scenario.Constant 1.0

let diurnal = Scenario.Diurnal { base = 1.0; amplitude = 0.3; period = 300. }

let flash ?(at = 200.) ?(mult = 8.) shape =
  Scenario.Flash { shape; at; mult; rise = 20.; hold = 60.; fall = 20. }

let scenarios =
  [
    {
      Scenario.default with
      Scenario.name = "diurnal-soak";
      descr = "diurnal sine load on a power-law domain, no faults";
      seed = 11;
      load = diurnal;
      faults = [];
    };
    {
      Scenario.default with
      Scenario.name = "flash-crowd";
      descr = "8x flash crowd over diurnal load; pipeline must brown out and recover";
      seed = 12;
      load = flash diurnal;
      slo = { Scenario.default_slo with Scenario.recover_goodput = 60.; brownout_exit = 90. };
    };
    {
      Scenario.default with
      Scenario.name = "regional-failure";
      descr = "4 core adjacencies at the top hub fail for 60 s under steady load";
      seed = 13;
      load = base_load;
      faults = [ Scenario.Regional_links { at = 200.; duration = 60.; count = 4 } ];
    };
    {
      Scenario.default with
      Scenario.name = "failure-under-overload";
      descr = "regional link burst at the peak of a 6x flash crowd";
      seed = 14;
      load = flash ~at:150. ~mult:6. base_load;
      faults = [ Scenario.Regional_links { at = 190.; duration = 40.; count = 4 } ];
      slo = { Scenario.default_slo with Scenario.recover_goodput = 90.; brownout_exit = 120. };
    };
    {
      Scenario.default with
      Scenario.name = "crash-during-flash-crowd";
      descr = "broker crash + warm-standby promotion in the tail of an 8x flash crowd";
      seed = 15;
      load = flash ~at:200. ~mult:8. base_load;
      faults = [ Scenario.Broker_crash { at = 260.; promote_after = 2. } ];
      slo =
        { Scenario.default_slo with
          Scenario.recover_goodput = 90.; clean_audit = 30.; brownout_exit = 120. };
    };
    {
      Scenario.default with
      Scenario.name = "disk-fault-recovery";
      descr =
        "bit rot in the current checkpoint generation, then a broker crash: \
         promotion must fall back to the prior generation and still recover \
         digest-exact from the intact journal";
      seed = 17;
      load = base_load;
      faults =
        [
          Scenario.Disk_fault { at = 234.; duration = 30. };
          Scenario.Broker_crash { at = 235.; promote_after = 2. };
        ];
      slo = { Scenario.default_slo with Scenario.clean_audit = 30. };
    };
    {
      Scenario.default with
      Scenario.name = "partition-heal";
      descr = "20 stub nodes partitioned for 80 s, then healed";
      seed = 16;
      load = base_load;
      faults = [ Scenario.Partition { at = 200.; duration = 80.; leaves = 20 } ];
    };
  ]

(* ------------------------------------------------------------------ *)
(* Figure-8 soaks outside the matrix: the crash/failover and overload
   experiments, each a scenario value its callers adjust. *)

let fig8 ?(detour = false) setting = Scenario.Fig8 { setting; detour }

let overload x =
  {
    Scenario.default with
    Scenario.name = Printf.sprintf "overload-x%g" x;
    descr = "Figure-10 churn at a multiple of the base load through the bounded pipeline";
    topology = fig8 `Mixed;
    load = Scenario.Constant (0.15 *. x);
    mean_holding = 200.;
    duration = 1500.;
    horizon = 3000.;
    (* Service times sized so 10x the base arrival rate (~1.5 req/s)
       saturates the exact O(M) path (capacity 1/2.5 = 0.4 req/s) but not
       the conservative O(1) path (capacity 2 req/s): the flat pipeline
       melts, the brownout pipeline degrades and keeps deciding. *)
    pipeline =
      {
        Ov.default_config with
        Ov.queue_limit = 32;
        deadline = 10.;
        service_exact = 2.5;
        service_conservative = 0.5;
        brownout_sustain = 5.;
        retry_after = 10.;
      };
  }

(* A flat pipeline never degrades: the enter watermark is the full queue
   and the sustain horizon is unreachable. *)
let flat sc =
  {
    sc with
    Scenario.pipeline =
      { sc.Scenario.pipeline with Ov.brownout_enter = 1.; brownout_sustain = infinity };
  }

(* Decisions well inside the 50 ms COPS retransmission timeout: at this
   load the pipeline never queues, so a loss-free channel retransmits only
   into a crashed broker. *)
let churn =
  {
    Scenario.default with
    Scenario.topology = fig8 `Rate_only;
    load = Scenario.Constant 0.15;
    mean_holding = 200.;
    duration = 2000.;
    horizon = 4000.;
    pipeline =
      {
        Scenario.default.Scenario.pipeline with
        Ov.service_exact = 0.01;
        service_conservative = 0.002;
      };
  }

let failover =
  {
    churn with
    Scenario.name = "fig8-failover";
    descr =
      "R3->R4 down 600-900 s with an R3->R6->R4 detour, broker crash at 1500 s";
    topology = fig8 ~detour:true `Rate_only;
    faults =
      [
        Scenario.Link_fault { at = 600.; duration = 300.; src = "R3"; dst = "R4" };
        Scenario.Broker_crash { at = 1500.; promote_after = 0.5 };
      ];
  }

let crash_at_record =
  {
    churn with
    Scenario.name = "fig8-crash-at-record";
    descr = "broker killed the instant journal record 150 is appended";
    faults = [ Scenario.Crash_at_record { record = 150 } ];
  }

let names = List.map (fun s -> s.Scenario.name) scenarios

let find name = List.find_opt (fun s -> s.Scenario.name = name) scenarios

let run_all ?(scale = 1.) ?names:(wanted = []) () =
  let picked =
    if wanted = [] then scenarios
    else
      List.filter_map
        (fun n ->
          match find n with
          | Some s -> Some s
          | None -> invalid_arg (Printf.sprintf "Matrix.run_all: unknown scenario %S" n))
        wanted
  in
  List.map (fun s -> Runner.run (Scenario.scale scale s)) picked

(* ------------------------------------------------------------------ *)
(* BENCH_scenarios.json *)

let json_float b x =
  if Float.is_nan x || Float.is_integer x && Float.abs x < 1e15 then
    if Float.is_nan x then Buffer.add_string b "null"
    else Buffer.add_string b (Printf.sprintf "%.0f" x)
  else Buffer.add_string b (Printf.sprintf "%.6g" x)

let to_json ~scale outcomes =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "{\n  \"schema\": \"bbr/scenarios/v1\",\n  \"scale\": %.6g,\n  \"scenarios\": [" scale;
  List.iteri
    (fun i (o : Runner.outcome) ->
      if i > 0 then pf ",";
      let s = o.Runner.scenario in
      pf
        "\n    {\n\
        \      \"name\": %S,\n\
        \      \"descr\": %S,\n\
        \      \"pass\": %b,\n\
        \      \"offered\": %d,\n\
        \      \"admitted\": %d,\n\
        \      \"rejected\": %d,\n\
        \      \"busy\": %d,\n\
        \      \"completed\": %d,\n\
        \      \"goodput_baseline\": "
        s.Scenario.name s.Scenario.descr (Runner.ok o) o.Runner.offered
        o.Runner.admitted o.Runner.rejected o.Runner.busy o.Runner.completed;
      json_float b o.Runner.baseline_goodput;
      pf ",\n      \"decision_p50_s\": ";
      json_float b o.Runner.p50_latency;
      pf ",\n      \"decision_p95_s\": ";
      json_float b o.Runner.p95_latency;
      pf ",\n      \"brownout_time_s\": ";
      json_float b o.Runner.brownout_time;
      pf
        ",\n\
        \      \"genuine_violations\": %d,\n\
        \      \"expected_anomalies\": %d,\n\
        \      \"monitor_samples\": %d,\n\
        \      \"audit_ok\": %b,\n\
        \      \"checkpoint_fallback\": %b,\n\
        \      \"storage_scrub_errors\": %d,\n\
        \      \"slo\": ["
        (List.length o.Runner.genuine_anomalies)
        o.Runner.expected_anomalies o.Runner.monitor_samples o.Runner.audit_ok
        o.Runner.checkpoint_fallback o.Runner.storage_scrub_errors;
      List.iteri
        (fun j (m : Slo.measurement) ->
          if j > 0 then pf ",";
          pf "\n        { \"event\": %S, \"metric\": %S, \"seconds\": " m.Slo.event
            m.Slo.metric;
          (match m.Slo.value with
          | Some v -> json_float b v
          | None -> Buffer.add_string b "null");
          pf ", \"budget\": ";
          json_float b m.Slo.budget;
          pf ", \"met\": %b }" m.Slo.met)
        o.Runner.measurements;
      pf "\n      ]\n    }")
    outcomes;
  pf "\n  ]\n}\n";
  Buffer.contents b

let write_json ~path ~scale outcomes =
  let oc = open_out path in
  output_string oc (to_json ~scale outcomes);
  close_out oc
