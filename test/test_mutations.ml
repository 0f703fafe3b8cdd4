(* Mutation testing: the model checker must find a concrete violating
   schedule for every deliberately broken protocol variant — otherwise
   all the green "no violation" results elsewhere mean little. *)

open Shared_mem
module Mm = Renaming.Mutations.Mutant_mutex
module Msp = Renaming.Mutations.Mutant_splitter
module Mma = Renaming.Mutations.Mutant_ma

let expect_violation name (r : Sim.Model_check.result) =
  match r.violation with
  | Some _ -> ()
  | None ->
      Alcotest.failf "%s: checker failed to catch the mutation (%d paths%s)" name r.paths
        (if r.complete then ", complete" else "")

(* ----- mutant mutexes: exclusion must break ----- *)

let mutex_builder variant =
  Workload.mutex_config ~retries:6 (module Mm) (fun l -> Mm.create l variant)

let test_mutex_read_before_write () =
  expect_violation "read-before-write"
    (Sim.Model_check.explore ~max_paths:500_000 (mutex_builder Mm.Read_before_write ~cycles:1))

let test_mutex_turn_lost () =
  (* the stale-turn race needs many re-entries and a lucky interleaving:
     random sampling finds it where a bounded DFS corner does not (this
     is also how the bug was originally discovered during development) *)
  expect_violation "turn-lost-on-release"
    (Sim.Model_check.sample ~seeds:(Test_util.seeds 4000)
       (mutex_builder Mm.Turn_lost_on_release ~cycles:15))

let test_mutex_no_yield () =
  expect_violation "no-yield"
    (Sim.Model_check.explore ~max_paths:500_000 (mutex_builder Mm.No_yield ~cycles:1))

(* The violating schedule must replay. *)
let test_violation_replays () =
  let builder = mutex_builder Mm.Read_before_write ~cycles:1 in
  match (Sim.Model_check.explore ~max_paths:500_000 builder).violation with
  | None -> Alcotest.fail "expected a violation"
  | Some v -> (
      match Sim.Model_check.replay builder v.schedule with
      | Error v' -> Alcotest.(check string) "same message" v.message v'.message
      | Ok () -> Alcotest.fail "replay lost the violation")

(* ----- mutant splitters: the occupancy invariant must break ----- *)

let splitter_builder variant ~procs =
  Workload.splitter_config (module Msp)
    (fun l -> Msp.create l variant)
    ~pids:(Array.init procs (fun p -> p + 1))

let test_splitter_no_interference_check () =
  expect_violation "no-interference-check"
    (Sim.Model_check.explore ~max_paths:500_000
       (splitter_builder Msp.No_interference_check ~procs:2 ~cycles:1))

let test_splitter_no_advice_flip () =
  (* two strictly sequential entrants join the same set; concurrency is
     needed only to have both inside simultaneously *)
  expect_violation "no-advice-flip"
    (Sim.Model_check.explore ~max_paths:2_000_000
       (splitter_builder Msp.No_advice_flip ~procs:2 ~cycles:2))

(* ----- mutant MA: name uniqueness must break ----- *)

let test_ma_no_recheck () =
  let builder =
    Workload.protocol_config (module Mma)
      (fun l -> Mma.create l Mma.No_recheck ~k:2 ~s:3)
      ~pids:[| 0; 2 |] ~cycles:1
  in
  expect_violation "ma-no-recheck" (Sim.Model_check.explore ~max_paths:500_000 builder)

(* Iterative deepening yields a minimal counterexample. *)
let test_shortest_counterexample () =
  match
    Sim.Model_check.shortest_violation ~max_steps:20
      (mutex_builder Mm.Read_before_write ~cycles:1)
  with
  | None -> Alcotest.fail "expected a violation"
  | Some v ->
      (* the race needs both enters (3+3 accesses incl. the failed one);
         6 scheduling choices suffice *)
      Alcotest.(check int) "minimal schedule length" 6 (List.length v.schedule)

(* The post-hoc trace revalidator independently catches what the
   on-line monitor would: run the broken MA with ONLY a trace attached,
   then check the recorded intervals. *)
let test_trace_revalidation_catches () =
  let tr = Sim.Trace.create () in
  let layout = Layout.create () in
  let m = Mma.create layout Mma.No_recheck ~k:2 ~s:3 in
  let work = Layout.alloc layout ~name:"work" 0 in
  let body = Workload.protocol_body (module Mma) m ~work ~cycles:1 in
  (* find a violating seed by brute force over random schedules *)
  let rec hunt seed =
    if seed > 5_000 then Alcotest.fail "no violating schedule found"
    else begin
      Sim.Trace.clear tr;
      let t =
        Sim.Sched.create ~monitor:(Sim.Trace.monitor tr) layout [| (0, body); (2, body) |]
      in
      let (_ : Sim.Sched.outcome) = Sim.Sched.run t (Sim.Sched.random (Sim.Rng.make seed)) in
      match Sim.Checks.revalidate_intervals (Sim.Trace.items tr) with
      | Error _ -> () (* caught post-hoc, as intended *)
      | Ok _ -> hunt (seed + 1)
    end
  in
  hunt 0

let test_trace_revalidation_passes_correct () =
  let tr = Sim.Trace.create () in
  let layout = Layout.create () in
  let m = Renaming.Ma.create layout ~k:3 ~s:9 in
  let work = Layout.alloc layout ~name:"work" 0 in
  let body = Workload.protocol_body (module Renaming.Ma) m ~work ~cycles:4 in
  let t =
    Sim.Sched.create ~monitor:(Sim.Trace.monitor tr) layout
      [| (0, body); (4, body); (8, body) |]
  in
  let (_ : Sim.Sched.outcome) = Sim.Sched.run t (Sim.Sched.random (Sim.Rng.make 77)) in
  match Sim.Checks.revalidate_intervals (Sim.Trace.items tr) with
  | Ok n -> Alcotest.(check int) "all acquisitions checked" 12 n
  | Error msg -> Alcotest.fail msg

(* ----- and the real protocols still pass the very same harnesses ----- *)

let test_real_mutex_still_passes () =
  let builder =
    Workload.mutex_config ~retries:6 (module Renaming.Pf_mutex) Renaming.Pf_mutex.create
      ~cycles:2
  in
  let r = Sim.Model_check.explore ~max_paths:2_000_000 builder in
  Test_util.check_no_violation "real mutex under the mutation harness" r

let () =
  Alcotest.run "mutations"
    [
      ( "mutex",
        [
          Alcotest.test_case "read-before-write caught" `Slow test_mutex_read_before_write;
          Alcotest.test_case "turn-lost-on-release caught" `Slow test_mutex_turn_lost;
          Alcotest.test_case "no-yield caught" `Slow test_mutex_no_yield;
          Alcotest.test_case "violations replay" `Slow test_violation_replays;
        ] );
      ( "splitter",
        [
          Alcotest.test_case "no-interference-check caught" `Slow
            test_splitter_no_interference_check;
          Alcotest.test_case "no-advice-flip caught" `Slow test_splitter_no_advice_flip;
        ] );
      ("ma", [ Alcotest.test_case "no-recheck caught" `Slow test_ma_no_recheck ]);
      ( "tooling",
        [
          Alcotest.test_case "shortest counterexample" `Slow test_shortest_counterexample;
          Alcotest.test_case "post-hoc revalidation catches" `Slow
            test_trace_revalidation_catches;
          Alcotest.test_case "post-hoc revalidation passes correct" `Quick
            test_trace_revalidation_passes_correct;
        ] );
      ( "control",
        [ Alcotest.test_case "real mutex passes same harness" `Slow test_real_mutex_still_passes ]
      );
    ]
