(* Regression suite for the model-check engine.  The reduced search
   (sleep-set POR + state cache) must agree with plain DFS on every
   verdict — on broken mutants AND on correct protocols — while
   exploring strictly fewer paths; violating or truncated runs must
   leave no suspended fiber behind; and every reported schedule,
   including [sample]'s, must replay. *)

open Shared_mem
module Mc = Sim.Model_check
module Mm = Renaming.Mutations.Mutant_mutex
module Msp = Renaming.Mutations.Mutant_splitter
module Mma = Renaming.Mutations.Mutant_ma

let reduced = { Mc.default_options with max_paths = 500_000 }

let plain =
  { Mc.por = false; cache_bound = 0; max_steps = 10_000; max_paths = 500_000 }

(* ----- builders: the harnesses every checker of the guarantees runs ----- *)

let mutex_builder variant =
  Workload.mutex_config ~retries:6 (module Mm) (fun l -> Mm.create l variant)

let splitter_mutant_builder variant ~procs =
  Workload.splitter_config (module Msp)
    (fun l -> Msp.create l variant)
    ~pids:(Array.init procs (fun p -> p + 1))

let splitter_builder ~procs =
  Workload.splitter_config (module Renaming.Splitter) Renaming.Splitter.create
    ~pids:(Array.init procs (fun p -> p + 1))

let pf_mutex_builder =
  Workload.mutex_config ~retries:6 (module Renaming.Pf_mutex) Renaming.Pf_mutex.create

let ma_mutant_builder =
  Workload.protocol_config (module Mma)
    (fun l -> Mma.create l Mma.No_recheck ~k:2 ~s:3)
    ~pids:[| 0; 2 |] ~cycles:1

(* ----- verdict agreement: reduced search finds what plain DFS finds ----- *)

let agree name builder =
  let p = Mc.check ~options:plain builder in
  let r = Mc.check ~options:reduced builder in
  let verdict (rep : Mc.report) = rep.outcome.violation <> None in
  Alcotest.(check bool)
    (name ^ ": same verdict") (verdict p) (verdict r);
  (* the reduction must never be slower in paths *)
  Alcotest.(check bool)
    (Printf.sprintf "%s: reduced paths (%d) <= plain paths (%d)" name
       r.outcome.paths p.outcome.paths)
    true
    (r.outcome.paths <= p.outcome.paths);
  (* a reduced-search violation must be a real schedule of the system *)
  match r.outcome.violation with
  | None -> ()
  | Some v -> (
      match Mc.replay builder v.schedule with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "%s: reduced violation does not replay" name)

let test_agree_mutants () =
  agree "mutex read-before-write" (mutex_builder Mm.Read_before_write ~cycles:1);
  agree "mutex no-yield" (mutex_builder Mm.No_yield ~cycles:1);
  agree "splitter no-interference-check"
    (splitter_mutant_builder Msp.No_interference_check ~procs:2 ~cycles:1);
  agree "ma no-recheck" ma_mutant_builder

let test_agree_correct () =
  let strictly_fewer ?(max_paths = 500_000) ?(plain_completes = true) name builder =
    let p = Mc.check ~options:{ plain with max_paths } builder in
    let r = Mc.check ~options:{ reduced with max_paths } builder in
    Test_util.check_no_violation (name ^ " (plain)") p.outcome;
    Test_util.check_no_violation (name ^ " (reduced)") r.outcome;
    Alcotest.(check bool)
      (name ^ ": plain complete") plain_completes p.outcome.complete;
    Alcotest.(check bool) (name ^ ": reduced complete") true r.outcome.complete;
    Alcotest.(check bool)
      (Printf.sprintf "%s: reduced paths (%d) < plain paths (%d)" name
         r.outcome.paths p.outcome.paths)
      true
      (r.outcome.paths < p.outcome.paths)
  in
  strictly_fewer "splitter l=2" (splitter_builder ~procs:2 ~cycles:1);
  (* plain DFS cannot even finish the 2-cycle handover within a
     million paths; the reduced search closes it exhaustively *)
  strictly_fewer ~max_paths:1_000_000 ~plain_completes:false "pf_mutex"
    (pf_mutex_builder ~cycles:2)

(* The occupancy monitor is history-dependent (its high-water mark
   feeds the violation threshold), which is exactly what the ordered
   event hash in the state fingerprint must protect: the reduced
   search may not cache away the interleaving that pushes occupancy
   over the limit. *)
let test_reduced_catches_advice_flip () =
  let builder = splitter_mutant_builder Msp.No_advice_flip ~procs:2 ~cycles:2 in
  let r = Mc.check ~options:{ Mc.default_options with max_paths = 2_000_000 } builder in
  match r.outcome.violation with
  | None ->
      Alcotest.failf "reduced search missed no-advice-flip (%d paths%s)"
        r.outcome.paths
        (if r.outcome.complete then ", complete" else "")
  | Some v -> (
      match Mc.replay builder v.schedule with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "violating schedule does not replay")

(* With the reductions on, the 3-process splitter is exhaustively
   checkable within the default budgets — far beyond plain DFS. *)
let test_splitter_l3_exhaustive () =
  let r = Mc.check (splitter_builder ~procs:3 ~cycles:1) in
  Test_util.check_no_violation "splitter l=3" r.outcome;
  Alcotest.(check bool) "complete" true r.outcome.complete;
  Alcotest.(check bool) "actually pruned something" true
    (r.stats.pruned_by_sleep > 0 || r.stats.pruned_by_cache > 0)

(* ----- pinned exploration counts ----- *)

(* The campaign, the bench, the experiments and the CLI all run these
   harnesses.  The state fingerprint mixes cell ids and note strings,
   so any edit to a body or to its layout order moves these counts
   (the splitter figures are BENCH_modelcheck.json's). *)
let test_pinned_counts () =
  let pin name options builder ~paths ~states =
    let r = Mc.check ~options builder in
    Alcotest.(check (pair int int))
      (name ^ ": paths, states") (paths, states)
      (r.outcome.paths, r.stats.states)
  in
  pin "splitter l=2, plain" plain (splitter_builder ~procs:2 ~cycles:1) ~paths:22898
    ~states:64733;
  pin "splitter l=2, reduced" reduced (splitter_builder ~procs:2 ~cycles:1) ~paths:328
    ~states:1332;
  pin "pf_mutex 1 cycle, reduced" reduced (pf_mutex_builder ~cycles:1) ~paths:528
    ~states:2332

(* ----- sample: replayable schedules and run counting ----- *)

let test_sample_schedule_replays () =
  let builder = mutex_builder Mm.Turn_lost_on_release ~cycles:15 in
  match (Mc.sample ~seeds:(Test_util.seeds 4000) builder).violation with
  | None -> Alcotest.fail "sampling failed to catch turn-lost-on-release"
  | Some v -> (
      Alcotest.(check bool) "schedule recorded" true (v.schedule <> []);
      match Mc.replay ~max_steps:100_000 builder v.schedule with
      | Ok () -> Alcotest.fail "sampled schedule did not reproduce the violation"
      | Error v' ->
          (* sample prefixes the message with "[seed N] " *)
          let suffix = v'.message in
          let n = String.length v.message and m = String.length suffix in
          Alcotest.(check string)
            "same underlying violation" suffix
            (if n >= m then String.sub v.message (n - m) m else v.message))

let test_sample_counts_violating_run () =
  let builder () : Mc.config =
    let layout = Layout.create () in
    let c = Layout.alloc layout ~name:"c" 0 in
    let body (ops : Store.ops) =
      ignore (ops.read c);
      Sim.Sched.emit (Sim.Event.Note ("boom", 0))
    in
    {
      layout;
      procs = [| (0, body) |];
      monitor =
        Sim.Sched.monitor
          ~on_event:(fun _ _ _ -> raise (Mc.Violation "always")) ();
    }
  in
  let r = Mc.sample ~seeds:[ 1; 2; 3 ] builder in
  Alcotest.(check bool) "violation found" true (r.violation <> None);
  (* the violating run itself is a sampled path: 1, not 0 *)
  Alcotest.(check int) "violating run counted" 1 r.paths

(* ----- fiber hygiene: early exits must not abandon continuations ----- *)

(* [live] counts bodies that started but whose cleanup has not run;
   after any checker entry point returns it must be back to 0, whether
   paths ended by completion, violation, or truncation. *)
let leak_builder ~violating live () : Mc.config =
  let layout = Layout.create () in
  let c = Layout.alloc layout ~name:"c" 0 in
  let guarded f (ops : Store.ops) =
    incr live;
    Fun.protect ~finally:(fun () -> decr live) (fun () -> f ops)
  in
  let stepper (ops : Store.ops) =
    let v = ops.read c in
    ops.write c (v + 1);
    if violating && ops.read c = 2 then raise (Mc.Violation "reached 2")
  in
  let spinner (ops : Store.ops) =
    while ops.read c >= 0 do
      ()
    done
  in
  {
    layout;
    procs = [| (0, guarded stepper); (1, guarded stepper); (2, guarded spinner) |];
    monitor = Sim.Sched.no_monitor;
  }

let test_no_leak_on_violation () =
  let live = ref 0 in
  let r = Mc.explore ~max_steps:60 ~max_paths:100 (leak_builder ~violating:true live) in
  Alcotest.(check bool) "violation found" true (r.violation <> None);
  Alcotest.(check int) "all fibers unwound" 0 !live

let test_no_leak_on_truncation () =
  let live = ref 0 in
  let r = Mc.explore ~max_steps:30 ~max_paths:50 (leak_builder ~violating:false live) in
  Alcotest.(check bool) "no violation" true (r.violation = None);
  Alcotest.(check int) "all fibers unwound" 0 !live

let test_no_leak_under_reductions () =
  let live = ref 0 in
  let (_ : Mc.report) =
    Mc.check
      ~options:{ Mc.default_options with max_steps = 30; max_paths = 200 }
      (leak_builder ~violating:false live)
  in
  Alcotest.(check int) "all fibers unwound" 0 !live;
  let live' = ref 0 in
  let r = Mc.check ~options:{ Mc.default_options with max_steps = 60 }
      (leak_builder ~violating:true live')
  in
  Alcotest.(check bool) "violation found" true (r.outcome.violation <> None);
  Alcotest.(check int) "all fibers unwound after violation" 0 !live'

let test_sample_does_not_leak () =
  let live = ref 0 in
  let r = Mc.sample ~max_steps:40 ~seeds:[ 3; 5; 8 ] (leak_builder ~violating:false live) in
  Alcotest.(check bool) "runs counted" true (r.paths = 3);
  Alcotest.(check int) "all fibers unwound" 0 !live

(* ----- observability ----- *)

let test_report_json () =
  let r = Mc.check ~options:reduced (splitter_builder ~procs:2 ~cycles:1) in
  let j = Mc.report_json ~label:"splitter_l2" r in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (Test_util.contains ~sub:needle j))
    [ "\"label\":\"splitter_l2\""; "\"paths\":"; "\"states\":"; "\"pruned_by_sleep\":";
      "\"pruned_by_cache\":"; "\"paths_per_sec\":" ]

let () =
  Alcotest.run "model_check"
    [
      ( "agreement",
        [
          Alcotest.test_case "mutants: reduced = plain verdict" `Slow test_agree_mutants;
          Alcotest.test_case "correct: no violation, strictly fewer paths" `Slow
            test_agree_correct;
          Alcotest.test_case "reduced catches no-advice-flip" `Slow
            test_reduced_catches_advice_flip;
          Alcotest.test_case "splitter l=3 exhaustive under reductions" `Slow
            test_splitter_l3_exhaustive;
        ] );
      ("pinned", [ Alcotest.test_case "exploration counts" `Quick test_pinned_counts ]);
      ( "sample",
        [
          Alcotest.test_case "violating schedule replays" `Slow test_sample_schedule_replays;
          Alcotest.test_case "violating run is counted" `Quick test_sample_counts_violating_run;
        ] );
      ( "fiber hygiene",
        [
          Alcotest.test_case "no leak on violation" `Quick test_no_leak_on_violation;
          Alcotest.test_case "no leak on truncation" `Quick test_no_leak_on_truncation;
          Alcotest.test_case "no leak under reductions" `Quick test_no_leak_under_reductions;
          Alcotest.test_case "no leak while sampling" `Quick test_sample_does_not_leak;
        ] );
      ("observability", [ Alcotest.test_case "json report" `Quick test_report_json ]);
    ]
