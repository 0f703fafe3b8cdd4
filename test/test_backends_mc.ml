(* Model-check closure for the newest backends.  LevelArray and the
   compact splitter cascade must close exhaustively at 2-process sizes
   with the reductions on, agree with plain DFS on every verdict, and
   stay clean under park and crash fault plans (the park-only cases
   keep POR sound, so those also assert completeness).  The seeded
   mutants of both backends must yield a concrete replayable
   counterexample. *)

module Mc = Sim.Model_check
module F = Sim.Faults
module La = Renaming.Level_array
module Cs = Renaming.Compact_split
module Ml = Renaming.Mutations.Mutant_level
module Mcs = Renaming.Mutations.Mutant_compact

let reduced = { Mc.default_options with max_paths = 500_000 }

let plain =
  { Mc.por = false; cache_bound = 0; max_steps = 10_000; max_paths = 2_000_000 }

let plan s =
  match F.of_string s with
  | Ok p -> p
  | Error e -> Alcotest.failf "bad plan %S: %s" s e

(* ----- builders ----- *)

let pids2 = [| 1; 4 |]
let pids3 = [| 0; 3; 7 |]

let level_builder ~pids ~k ~cycles () =
  Workload.protocol_config (module La) (fun l -> La.create l ~k) ~pids ~cycles ()

let compact_builder ~pids ~k ~cycles () =
  Workload.protocol_config (module Cs) (fun l -> Cs.create l ~k) ~pids ~cycles ()

let mutant_level_builder ~cycles () =
  Workload.protocol_config (module Ml)
    (fun l -> Ml.create l Ml.Torn_claim ~k:2)
    ~pids:[| 1; 4 |] ~cycles ()

let mutant_compact_builder ~cycles () =
  Workload.protocol_config (module Mcs)
    (fun l -> Mcs.create l ~k:2)
    ~pids:[| 1; 4 |] ~cycles ()

(* ----- exhaustive closure at 2-proc sizes ----- *)

let exhaustive name builder =
  let r = Mc.check ~options:reduced builder in
  Test_util.check_no_violation name r.outcome;
  Alcotest.(check bool) (name ^ ": complete") true r.outcome.complete;
  Alcotest.(check bool) (name ^ ": pruned something") true
    (r.stats.pruned_by_sleep > 0 || r.stats.pruned_by_cache > 0)

let test_exhaustive_2proc () =
  (* the LevelArray backstop loop is unbounded in the source; closure
     here is the proof that every schedule of the bounded-cycle system
     is finite (each wrap needs a fresh claim by the finitely-cycled
     peer) *)
  exhaustive "level k=2 cycles=2" (level_builder ~pids:pids2 ~k:2 ~cycles:2);
  exhaustive "compact k=2 cycles=2" (compact_builder ~pids:pids2 ~k:2 ~cycles:2);
  (* the 3-stage cascade, still driven by two processes *)
  exhaustive "compact k=3 cycles=1" (compact_builder ~pids:pids2 ~k:3 ~cycles:1)

(* ----- reduced/plain verdict agreement ----- *)

let agree_clean name builder =
  let p = Mc.check ~options:plain builder in
  let r = Mc.check ~options:reduced builder in
  Test_util.check_no_violation (name ^ " (plain)") p.outcome;
  Test_util.check_no_violation (name ^ " (reduced)") r.outcome;
  Alcotest.(check bool) (name ^ ": plain complete") true p.outcome.complete;
  Alcotest.(check bool) (name ^ ": reduced complete") true r.outcome.complete;
  Alcotest.(check bool)
    (Printf.sprintf "%s: reduced paths (%d) < plain paths (%d)" name r.outcome.paths
       p.outcome.paths)
    true
    (r.outcome.paths < p.outcome.paths)

let test_agree_correct () =
  agree_clean "level k=2" (level_builder ~pids:pids2 ~k:2 ~cycles:1);
  agree_clean "compact k=2" (compact_builder ~pids:pids2 ~k:2 ~cycles:1)

(* ----- the seeded mutants die, with replayable schedules ----- *)

let mutant_dies name builder =
  let p = Mc.check ~options:plain builder in
  let r = Mc.check ~options:reduced builder in
  Alcotest.(check bool) (name ^ ": plain finds the bug") true
    (p.outcome.violation <> None);
  match r.outcome.violation with
  | None -> Alcotest.failf "%s: reduced search missed the bug" name
  | Some v -> (
      match Mc.replay builder v.schedule with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "%s: violating schedule does not replay" name)

let test_mutants_die () =
  mutant_dies "level torn-claim" (mutant_level_builder ~cycles:1);
  mutant_dies "compact no-interference" (mutant_compact_builder ~cycles:1)

(* ----- park plans: POR stays sound and the verdict stays clean ----- *)

let park_clean name builder faults =
  Alcotest.(check bool) (name ^ ": plan is POR-safe") true (F.por_safe faults);
  let r = Mc.check ~options:reduced ~faults builder in
  let p = Mc.check ~options:plain ~faults builder in
  Test_util.check_no_violation (name ^ " (reduced)") r.outcome;
  Test_util.check_no_violation (name ^ " (plain)") p.outcome;
  Alcotest.(check bool) (name ^ ": reduced complete") true r.outcome.complete;
  Alcotest.(check bool) (name ^ ": reduction pruned") true
    (r.outcome.paths < p.outcome.paths)

let test_park_plans () =
  (* parked mid-probe: the victim may hold a claimed bit / a splitter's
     LAST without ever acquiring; the peer must still rename uniquely *)
  park_clean "level park mid-probe" (level_builder ~pids:pids2 ~k:2 ~cycles:2) (plan "park@p0:acc2");
  park_clean "compact park mid-cascade"
    (compact_builder ~pids:pids2 ~k:3 ~cycles:2)
    (plan "park@p0:acc3");
  (* parked while holding: the name stays leaked for the whole run *)
  park_clean "level park holding" (level_builder ~pids:pids2 ~k:2 ~cycles:2)
    (plan "park@p1:acquire");
  park_clean "compact park holding"
    (compact_builder ~pids:pids2 ~k:3 ~cycles:2)
    (plan "park@p1:acquire")

(* ----- crash plans: death while holding must not break uniqueness ----- *)

let test_crash_plans () =
  List.iter
    (fun (name, builder, spec) ->
      let faults = plan spec in
      Alcotest.(check bool) (name ^ ": plan is POR-safe") true (F.por_safe faults);
      let r = Mc.check ~options:reduced ~faults builder in
      Test_util.check_no_violation name r.outcome;
      Alcotest.(check bool) (name ^ ": complete") true r.outcome.complete)
    [
      ("level crash holding", level_builder ~pids:pids2 ~k:2 ~cycles:2, "crash@p0:acquire");
      ("level crash mid-probe", level_builder ~pids:pids2 ~k:2 ~cycles:2, "crash@p1:acc1");
      ("compact crash holding", compact_builder ~pids:pids2 ~k:3 ~cycles:2, "crash@p0:acquire");
      ("compact crash mid-cascade", compact_builder ~pids:pids2 ~k:3 ~cycles:2, "crash@p1:acc2");
    ]

(* ----- 3 processes: sampled sweeps at the full concurrency bound ----- *)

let test_three_procs_sampled () =
  List.iter
    (fun (name, builder) ->
      let r = Mc.sample ~seeds:(Test_util.seeds 300) builder in
      (match r.violation with
      | None -> ()
      | Some v -> Alcotest.failf "%s: %s" name v.message);
      Alcotest.(check int) (name ^ ": all seeds ran") 300 r.paths)
    [
      ("level k=3 x3", level_builder ~pids:pids3 ~k:3 ~cycles:2);
      ("compact k=3 x3", compact_builder ~pids:pids3 ~k:3 ~cycles:2);
    ]

let () =
  Alcotest.run "backends_mc"
    [
      ( "closure",
        [
          Alcotest.test_case "exhaustive at 2 procs" `Slow test_exhaustive_2proc;
          Alcotest.test_case "reduced = plain on correct backends" `Slow
            test_agree_correct;
          Alcotest.test_case "mutants die with replayable schedules" `Slow
            test_mutants_die;
        ] );
      ( "faults",
        [
          Alcotest.test_case "park plans close exhaustively" `Slow test_park_plans;
          Alcotest.test_case "crash plans close exhaustively" `Slow test_crash_plans;
        ] );
      ( "sampling",
        [ Alcotest.test_case "3 procs, 300 seeds" `Slow test_three_procs_sampled ] );
    ]
