(* Crash-consistent recovery, end to end: the broker write-ahead journals
   every state mutation to a simulated disk, fsyncing each record, and is
   killed the instant journal record #150 is appended, mid-churn.  The
   promoted standby restores the newest checkpoint and replays the journal
   tail.  The proof of correctness is the canonical MIB digest: the
   recovered broker must be bit-for-bit decision-equivalent to the one
   that died — zero lost, zero phantom reservations — and at the end of
   the run a standby rebuilt from the disk alone must match the live
   broker too.

   Run: dune exec examples/crash_recovery.exe *)

module Runner = Bbr_scenario.Runner
module Matrix = Bbr_scenario.Matrix

let () =
  Fmt.pr "=== Crash at a record boundary, fsync every record ===@.";
  let o = Runner.run Matrix.crash_at_record in
  Fmt.pr "%a@.@." Runner.pp_outcome o;
  (* [Runner.ok] fails on any promotion that is not digest-exact. *)
  if not (Runner.ok o && o.Runner.flows_at_crash > 0 && o.Runner.flows_lost = 0)
  then begin
    Fmt.epr "recovery was not exact@.";
    exit 1
  end;
  Fmt.pr "PASS: recovered broker is digest-identical to the crashed one@."
