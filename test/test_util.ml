(* Shared helpers for the test suites. *)

let qtest ?(count = 500) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let check_no_violation name (result : Sim.Model_check.result) =
  match result.violation with
  | None -> ()
  | Some v ->
      Alcotest.failf "%s: %s (schedule [%s])" name v.message
        (String.concat ";" (List.map string_of_int v.schedule))

let seeds n = List.init n (fun i -> 0x5EED + (i * 7919))

(* [sub] occurs somewhere in [s]. *)
let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* Run [procs] under a seeded random schedule with the uniqueness
   monitor; returns the outcome and the monitor for inspection.
   Raises (via the monitor) on any uniqueness violation. *)
let run_random ?max_steps ~seed ~name_space layout procs =
  let u = Sim.Checks.uniqueness ~name_space () in
  let t = Sim.Sched.create ~monitor:(Sim.Checks.uniqueness_monitor u) layout procs in
  let outcome = Sim.Sched.run ?max_steps t (Sim.Sched.random (Sim.Rng.make seed)) in
  (outcome, u)

let all_completed (o : Sim.Sched.outcome) = Array.for_all Fun.id o.completed
