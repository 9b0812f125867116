(* Fault-tolerant control plane, end to end: churn workload over a lossy
   reliable COPS channel, a link failure rerouted by the broker onto a
   protection detour, and a broker crash recovered by promoting a warm
   standby from its journal.  Seeded, so every run prints the same
   numbers.

   The detour R3 -> R6 -> R4 runs parallel to the R3 -> R4 link and is one
   hop longer, so routing ignores it until R3 -> R4 dies at 600 s — then
   victims are re-admitted over it, keeping their flow ids.  The broker
   crashes at 1500 s; every mutation was journaled and fsynced before its
   decision left the broker, so the standby loses nothing. *)

module Scenario = Bbr_scenario.Scenario
module Runner = Bbr_scenario.Runner
module Matrix = Bbr_scenario.Matrix

let run ~loss =
  let o = Runner.run { Matrix.failover with Scenario.cops_loss = loss } in
  Fmt.pr "%a@.@." Runner.pp_outcome o;
  assert (Runner.ok o);
  assert (o.Runner.rerouted > 0);
  assert (o.Runner.flows_lost = 0);
  o

let () =
  Fmt.pr "=== Failover under a loss-free channel ===@.";
  let o = run ~loss:0. in
  Fmt.pr "crash lost %d of %d flows@.@." o.Runner.flows_lost o.Runner.flows_at_crash;
  Fmt.pr "=== Same scenario, 10%% COPS message loss ===@.";
  let o = run ~loss:0.1 in
  (* Reliability at work: despite the loss every transaction resolved. *)
  assert (o.Runner.unresolved = 0);
  Fmt.pr "every request resolved despite loss: %d retransmissions covered it@."
    o.Runner.retransmissions
