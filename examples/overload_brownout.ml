(* Overload tour: the same 10x-overload churn run through a flat pipeline
   (no degradation) and through the brownout controller, then the
   lease-partition scenario.  The flat run sheds more work at the deadline
   because every decision pays the O(M) service time; brownout trades
   admission precision (the conservative O(1) bound) for throughput while
   the exact oracle confirms nothing unsafe was ever admitted. *)

module Ov = Bbr_broker.Overload
module Runner = Bbr_scenario.Runner
module Matrix = Bbr_scenario.Matrix
module Overload = Bbr_workload.Overload

let () =
  let base = Matrix.overload 10. in
  Fmt.pr "=== flat pipeline (no brownout), 10x offered load ===@.";
  let flat = Runner.run (Matrix.flat base) in
  Fmt.pr "%a@.@." Runner.pp_outcome flat;
  Fmt.pr "=== brownout pipeline, same workload ===@.";
  let brown = Runner.run base in
  Fmt.pr "%a@.@." Runner.pp_outcome brown;
  Fmt.pr "decided: flat %d vs brownout %d; p99 latency: %.3f s vs %.3f s@.@."
    flat.Runner.pipeline.Ov.decided brown.Runner.pipeline.Ov.decided
    flat.Runner.p99_latency brown.Runner.p99_latency;
  Fmt.pr "=== lease partition: edge broker silent at t=150 s ===@.";
  let part = Overload.run_partition Overload.default_partition_config in
  Fmt.pr "%a@." Overload.pp_partition_outcome part;
  if Runner.ok flat && Runner.ok brown && part.Overload.reclaimed_within_period then
    Fmt.pr "@.all invariants held@."
  else begin
    Fmt.pr "@.INVARIANT VIOLATION@.";
    exit 1
  end
