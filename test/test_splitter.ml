(* Theorem 5: the splitter building block.  Exhaustive model checking
   for 2 processes, randomized schedule sampling for 3-5, plus basic
   sequential behaviour and the reset on behalf of a dead holder. *)

open Shared_mem
module Splitter = Renaming.Splitter

(* Figure 2 declares the register domains: LAST holds a pid,
   ADVICE[1] in {-1, bottom=0, 1}, ADVICE[2] in {-1, 1}.  Enforce them
   on every write. *)
let domain_monitor pids =
  Sim.Sched.monitor
    ~on_access:(fun _ _ access ->
      match access with
      | Sim.Sched.Write (c, v) ->
          let name = Shared_mem.Cell.name c in
          let ok =
            if String.equal name "LAST" then List.mem v pids
            else if String.equal name "ADVICE1" then List.mem v [ -1; 0; 1 ]
            else if String.equal name "ADVICE2" then List.mem v [ -1; 1 ]
            else true
          in
          if not ok then
            raise
              (Sim.Model_check.Violation
                 (Printf.sprintf "register %s left its domain: %d" name v))
      | Sim.Sched.Read _ | Sim.Sched.Update _ -> ())
    ()

let builder ~procs =
  let pids = List.init procs Fun.id in
  Workload.splitter_config ~monitors:[ domain_monitor pids ]
    (module Splitter)
    Splitter.create ~pids:(Array.of_list pids)

(* Sequential sanity: a lone process enters and leaves; it must not be
   sent to set 0 (no interference) and must terminate. *)
let test_solo () =
  let layout = Layout.create () in
  let sp = Splitter.create layout in
  let mem = Store.seq_create layout in
  let ops = Store.seq_ops mem ~pid:42 in
  let tok = Splitter.enter sp ops in
  Alcotest.(check bool) "non-middle" true (Splitter.direction tok <> 0);
  Splitter.release sp ops tok;
  (* Long-lived: a second cycle also works and is again non-middle. *)
  let tok2 = Splitter.enter sp ops in
  Alcotest.(check bool) "non-middle again" true (Splitter.direction tok2 <> 0);
  Splitter.release sp ops tok2

(* Two sequential processes: the second must be steered away from the
   set the first currently occupies (this is what the advice does when
   processes run without interleaving). *)
let test_sequential_distinct () =
  let layout = Layout.create () in
  let sp = Splitter.create layout in
  let mem = Store.seq_create layout in
  let a = Store.seq_ops mem ~pid:0 in
  let b = Store.seq_ops mem ~pid:1 in
  let ta = Splitter.enter sp a in
  let tb = Splitter.enter sp b in
  let da = Splitter.direction ta and db = Splitter.direction tb in
  Alcotest.(check bool)
    (Printf.sprintf "sets %d vs %d differ" da db)
    true (da <> db);
  Splitter.release sp b tb;
  Splitter.release sp a ta

let test_exhaustive_2procs () =
  let r = Sim.Model_check.explore ~max_paths:5_000_000 (builder ~procs:2 ~cycles:1) in
  Test_util.check_no_violation "2 procs, 1 cycle" r;
  Alcotest.(check bool) "explored completely" true r.complete;
  Alcotest.(check bool) "nontrivial path count" true (r.paths > 1000)

let test_exhaustive_2procs_2cycles () =
  (* Full exhaustion is ~C(40,20) paths; cap it and treat the explored
     corner as a deep regression test. *)
  let r = Sim.Model_check.explore ~max_paths:200_000 (builder ~procs:2 ~cycles:2) in
  Test_util.check_no_violation "2 procs, 2 cycles" r

let test_sample_3procs () =
  let r = Sim.Model_check.sample ~seeds:(Test_util.seeds 3000) (builder ~procs:3 ~cycles:3) in
  Test_util.check_no_violation "3 procs sampled" r

let test_sample_5procs () =
  let r = Sim.Model_check.sample ~seeds:(Test_util.seeds 1500) (builder ~procs:5 ~cycles:4) in
  Test_util.check_no_violation "5 procs sampled" r

(* Random pid assignment: the invariant does not depend on the source
   names being small or dense. *)
let prop_sparse_pids =
  Test_util.qtest ~count:60 "occupancy with sparse pids"
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 2 5))
    (fun (seed, procs) ->
      let rng = Sim.Rng.make seed in
      let pids = Array.init procs (fun i -> (i * 7919) + Sim.Rng.int rng 1000) in
      let build =
        Workload.splitter_config (module Splitter) Splitter.create ~pids ~cycles:2
      in
      let r = Sim.Model_check.sample ~seeds:[ seed; seed + 1; seed + 2 ] build in
      r.violation = None)

(* ----- reset on behalf of a corpse ----- *)

let test_splitter_reset () =
  let layout = Layout.create () in
  let s = Renaming.Splitter.create layout in
  let seq = Store.seq_create layout in
  let ops0 = Store.seq_ops seq ~pid:0 in
  let ops1 = Store.seq_ops seq ~pid:1 in
  let tok0 = Renaming.Splitter.enter s ops0 in
  Alcotest.(check bool) "solo entry is non-zero" true
    (Renaming.Splitter.direction tok0 <> 0);
  (* the holder dies with its LAST claim in place *)
  Renaming.Splitter.reset s ops0 tok0;
  let tok1 = Renaming.Splitter.enter s ops1 in
  Alcotest.(check bool) "next solo entry sees no interference" true
    (Renaming.Splitter.direction tok1 <> 0);
  Renaming.Splitter.release s ops1 tok1

let () =
  Alcotest.run "splitter"
    [
      ( "sequential",
        [
          Alcotest.test_case "solo process" `Quick test_solo;
          Alcotest.test_case "two sequential processes split" `Quick test_sequential_distinct;
        ] );
      ( "model-check",
        [
          Alcotest.test_case "exhaustive 2 procs 1 cycle" `Slow test_exhaustive_2procs;
          Alcotest.test_case "bounded 2 procs 2 cycles" `Slow test_exhaustive_2procs_2cycles;
          Alcotest.test_case "sampled 3 procs" `Slow test_sample_3procs;
          Alcotest.test_case "sampled 5 procs" `Slow test_sample_5procs;
        ] );
      ("property", [ prop_sparse_pids ]);
      ("resets", [ Alcotest.test_case "splitter" `Quick test_splitter_reset ]);
    ]
