(* The fault-injection subsystem: plan parsing, controller semantics
   (park / timed stall / slow lane / deadlock fast-forward), composition
   with the model checker, and POR soundness under park-only and crash
   plans. *)

open Shared_mem
module F = Sim.Faults
module MC = Sim.Model_check
module Split = Renaming.Split

(* ----- textual plans ----- *)

let roundtrip s =
  match F.of_string s with
  | Error e -> Alcotest.failf "%S did not parse: %s" s e
  | Ok plan -> Alcotest.(check string) s s (F.to_string plan)

let test_plan_roundtrip () =
  List.iter roundtrip
    [
      "none";
      "park@p1:acc7";
      "stall24@p2:note(in)#2";
      "slow3@p0:acquire";
      "park@p0:acquire#3";
      "park@p2:note(cycle=4)";
      "park@p1:acc7,stall8@p0:acquire,slow2@p3:note(cs)";
      "crash@p1:acc7";
      "crash@p2:acquire#2";
      "crash@p0:acquire,crash@p1:acc3";
    ]

let test_plan_rejects () =
  List.iter
    (fun s ->
      match F.of_string s with
      | Ok _ -> Alcotest.failf "%S should not parse" s
      | Error _ -> ())
    [
      "park";
      "park@q1:acc7";
      "stall0@p1:acc7";
      "stall@p1:acc7";
      "park@p1:acc";
      "park@p1:note()";
      "park@p1:acquire#0";
      "park@p-1:acc3";
      "warp@p1:acc3";
    ]

let test_plan_roundtrip_prop =
  (* parse . print = id on generated plans *)
  Test_util.qtest ~count:300 "to_string/of_string round-trip" QCheck2.Gen.int
    (fun seed ->
      let plan =
        F.gen (Sim.Rng.make seed) ~nprocs:4 ~tags:[ "in"; "cycle" ] ()
      in
      match F.of_string (F.to_string plan) with
      | Ok plan' -> F.to_string plan' = F.to_string plan
      | Error e -> QCheck2.Test.fail_reportf "no round-trip: %s" e)

let test_por_safe () =
  let get s = Result.get_ok (F.of_string s) in
  Alcotest.(check bool) "parks only" true (F.por_safe (get "park@p1:acc7,park@p0:acquire"));
  Alcotest.(check bool) "stall is timed" false (F.por_safe (get "stall3@p1:acc7"));
  Alcotest.(check bool) "slow is timed" false (F.por_safe (get "slow2@p1:acc7"));
  Alcotest.(check bool) "crash freezes like park" true
    (F.por_safe (get "crash@p1:acc3,park@p0:acquire"));
  Alcotest.(check bool) "empty" true (F.por_safe [])

let test_gen_deterministic () =
  let plan_of seed = F.to_string (F.gen (Sim.Rng.make seed) ~nprocs:5 ~tags:[ "x" ] ()) in
  Alcotest.(check string) "same seed, same plan" (plan_of 42) (plan_of 42);
  (* at least one fault-free process, victims distinct *)
  for seed = 0 to 199 do
    let plan = F.gen (Sim.Rng.make seed) ~nprocs:3 () in
    let vs = F.victims plan in
    Alcotest.(check bool) "≤ nprocs-1 victims" true (List.length vs <= 2);
    Alcotest.(check bool) "victims in range" true (List.for_all (fun v -> v >= 0 && v < 3) vs)
  done

let test_gen_crash () =
  let plan_of seed =
    F.to_string (F.gen_crash (Sim.Rng.make seed) ~nprocs:4 ~max_cycle:2 ())
  in
  Alcotest.(check string) "same seed, same plan" (plan_of 42) (plan_of 42);
  Alcotest.(check string) "nprocs 1 generates nothing" "none"
    (F.to_string (F.gen_crash (Sim.Rng.make 0) ~nprocs:1 ()));
  for seed = 0 to 99 do
    let plan = F.gen_crash (Sim.Rng.make seed) ~nprocs:4 ~max_cycle:2 () in
    let vs = F.victims plan in
    Alcotest.(check bool) "at least one crash" true (List.length vs >= 1);
    Alcotest.(check bool) "at least one survivor" true (List.length vs <= 3);
    Alcotest.(check bool) "victims distinct" true
      (List.length (List.sort_uniq compare vs) = List.length vs);
    Alcotest.(check bool) "victims in range" true
      (List.for_all (fun v -> v >= 0 && v < 4) vs);
    (* every generated fault is a crash on an acquire trigger *)
    List.iter
      (fun f ->
        let s = F.to_string [ f ] in
        Alcotest.(check bool) (s ^ " is a crash@acquire") true
          (String.length s >= 7
          && String.sub s 0 7 = "crash@p"
          && Test_util.contains ~sub:":acquire" s))
      plan;
    (* and the whole plan round-trips *)
    match F.of_string (F.to_string plan) with
    | Ok plan' -> Alcotest.(check string) "round-trip" (F.to_string plan) (F.to_string plan')
    | Error e -> Alcotest.failf "gen_crash plan did not parse: %s" e
  done

(* ----- controller semantics on a hand-made config ----- *)

(* Two processes, each performing [n] writes to its own cell then one
   Acquired/Released pair; no real protocol, so outcomes are exact. *)
let writers ?(accesses = 6) () =
  let layout = Layout.create () in
  let cells = Layout.alloc_array layout ~name:"C" 2 0 in
  let body i (ops : Store.ops) =
    for _ = 1 to accesses do
      ops.write cells.(i) 1
    done;
    Sim.Sched.emit (Sim.Event.Acquired i);
    ops.write cells.(i) 2;
    Sim.Sched.emit (Sim.Event.Released i)
  in
  (layout, [| (0, body 0); (1, body 1) |])

let run_with plan ?(max_steps = 10_000) (layout, procs) =
  let ctrl = F.controller plan in
  let t = Sim.Sched.create ~monitor:(F.monitor ctrl) layout procs in
  let outcome = F.run ~max_steps ctrl t Sim.Sched.round_robin in
  Sim.Sched.abort t;
  (outcome, ctrl)

let plan s = Result.get_ok (F.of_string s)

let test_park_freezes () =
  let outcome, ctrl = run_with (plan "park@p1:acc2") (writers ()) in
  Alcotest.(check bool) "p0 completed" true outcome.completed.(0);
  Alcotest.(check bool) "p1 parked forever" false outcome.completed.(1);
  Alcotest.(check int) "p1 froze after its 2nd access" 2 outcome.steps.(1);
  Alcotest.(check (list int)) "reported parked" [ 1 ] (F.parked ctrl);
  Alcotest.(check int) "one fault fired" 1 (F.fired ctrl)

let test_stall_resumes () =
  let outcome, ctrl = run_with (plan "stall4@p1:acc2") (writers ()) in
  Alcotest.(check bool) "p0 completed" true outcome.completed.(0);
  Alcotest.(check bool) "p1 resumed and completed" true outcome.completed.(1);
  Alcotest.(check (list int)) "nobody left parked" [] (F.parked ctrl)

let test_slow_lane_completes () =
  let outcome, _ = run_with (plan "slow3@p0:acc1") (writers ()) in
  Alcotest.(check bool) "slow p0 still completes" true outcome.completed.(0);
  Alcotest.(check bool) "p1 completes" true outcome.completed.(1)

let test_acquire_trigger () =
  (* firing on Acquired parks the victim while it holds the name *)
  let outcome, ctrl = run_with (plan "park@p1:acquire") (writers ()) in
  Alcotest.(check bool) "p1 parked holding" false outcome.completed.(1);
  Alcotest.(check (list int)) "parked" [ 1 ] (F.parked ctrl)

let test_unstick_deadlock () =
  (* both processes timed-stalled at once: pauses consume no steps, so
     only the fast-forward can ever resume them *)
  let outcome, ctrl = run_with (plan "stall50@p0:acc1,stall90@p1:acc1") (writers ()) in
  Alcotest.(check bool) "p0 completed" true outcome.completed.(0);
  Alcotest.(check bool) "p1 completed" true outcome.completed.(1);
  Alcotest.(check bool) "no pending resumes" false (F.pending_resumes ctrl)

let test_crash_freezes_and_records () =
  (* operationally a crash is a park — frozen forever — but the
     controller reports it in [crashed] so harnesses can tell process
     death from a mere stall *)
  let outcome, ctrl = run_with (plan "crash@p1:acquire") (writers ()) in
  Alcotest.(check bool) "p0 completed" true outcome.completed.(0);
  Alcotest.(check bool) "p1 died holding" false outcome.completed.(1);
  Alcotest.(check (list int)) "reported crashed" [ 1 ] (F.crashed ctrl);
  Alcotest.(check (list int)) "crashed is frozen" [ 1 ] (F.parked ctrl);
  Alcotest.(check int) "one fault fired" 1 (F.fired ctrl);
  (* a parked process is frozen but not dead *)
  let _, ctrl' = run_with (plan "park@p1:acquire") (writers ()) in
  Alcotest.(check (list int)) "park is not a crash" [] (F.crashed ctrl')

let test_note_occurrence () =
  (* a note trigger with occurrence 2 must not fire on the first hit *)
  let layout = Layout.create () in
  let c = Layout.alloc layout ~name:"c" 0 in
  let body (ops : Store.ops) =
    for i = 1 to 3 do
      ops.write c i;
      Sim.Sched.emit (Sim.Event.Note ("tick", i))
    done
  in
  let ctrl = F.controller (plan "park@p0:note(tick)#2") in
  let t = Sim.Sched.create ~monitor:(F.monitor ctrl) layout [| (0, body) |] in
  let outcome = F.run ctrl t Sim.Sched.round_robin in
  Sim.Sched.abort t;
  Alcotest.(check bool) "parked at 2nd tick" false outcome.completed.(0);
  Alcotest.(check int) "two accesses ran" 2 outcome.steps.(0)

(* ----- composition with the model checker ----- *)

let ma_builder =
  Workload.protocol_config (module Renaming.Ma)
    (fun l -> Renaming.Ma.create l ~k:2 ~s:4)
    ~pids:[| 0; 2 |] ~cycles:2

let test_check_with_faults_clean () =
  (* exhaustive search over all schedules of a correct MA with one
     process parked mid-GetName: no violation, and park-only keeps the
     reductions on (verdict must agree with the unreduced search) *)
  let faults = plan "park@p1:acc3" in
  let reduced = MC.check ~faults ma_builder in
  let plain =
    MC.check ~options:{ MC.default_options with por = false; cache_bound = 0 } ~faults
      ma_builder
  in
  Test_util.check_no_violation "reduced" reduced.outcome;
  Test_util.check_no_violation "plain" plain.outcome;
  Alcotest.(check bool) "reduced explored complete" true reduced.outcome.complete;
  Alcotest.(check bool) "reduction actually pruned" true
    (reduced.outcome.paths < plain.outcome.paths)

let test_sample_replay_with_faults () =
  (* a violating faulty run must replay to the same message under the
     same plan *)
  let builder =
    Workload.protocol_config
      (module Renaming.Mutations.Mutant_ma)
      (fun l ->
        Renaming.Mutations.Mutant_ma.create l Renaming.Mutations.Mutant_ma.No_recheck ~k:2
          ~s:3)
      ~pids:[| 0; 2 |] ~cycles:2
  in
  let faults = plan "slow2@p1:acc1" in
  match (MC.sample ~faults ~seeds:(Test_util.seeds 500) builder).violation with
  | None -> Alcotest.fail "sampling under faults failed to catch the mutant"
  | Some v ->
      let stripped =
        (* drop the "[seed N] " prefix for comparison *)
        match String.index_opt v.message ']' with
        | Some i -> String.sub v.message (i + 2) (String.length v.message - i - 2)
        | None -> v.message
      in
      (match MC.replay ~faults builder v.schedule with
      | Error v' -> Alcotest.(check string) "same violation" stripped v'.message
      | Ok () -> Alcotest.fail "replay with the plan lost the violation");
      (* without the plan the schedule means something else entirely —
         it may or may not violate, but it must not crash *)
      ignore (MC.replay builder v.schedule)

let test_minimize_shrinks () =
  let tg = Option.get (Campaign.find "mutant:ma-no-recheck") in
  match
    (MC.sample ~seeds:(Test_util.seeds 500) tg.Campaign.builder).violation
  with
  | None -> Alcotest.fail "no violation to shrink"
  | Some v -> (
      match MC.minimize tg.Campaign.builder v.schedule with
      | None -> Alcotest.fail "minimize lost the violation"
      | Some m ->
          Alcotest.(check bool) "not longer" true
            (List.length m.schedule <= List.length v.schedule);
          (* the shrunk schedule replays deterministically: same result twice *)
          let r1 = MC.replay tg.Campaign.builder m.schedule in
          let r2 = MC.replay tg.Campaign.builder m.schedule in
          match (r1, r2) with
          | Error a, Error b -> Alcotest.(check string) "stable replay" a.message b.message
          | _ -> Alcotest.fail "shrunk schedule no longer violates")

(* ----- crash faults through the model checker ----- *)

(* Bare 2-process split, one acquire/release cycle each.  For every
   access point of the victim, kill it there and explore all
   interleavings: uniqueness must hold in every one (the bare protocol
   leaks the crashed name but never double-grants).  Crash freezes a
   transition, so partial-order reduction stays sound and exploration
   must report completeness. *)
let split2_builder =
  Workload.protocol_config (module Split) (fun l -> Split.create l ~k:2) ~pids:[| 1; 2 |]
    ~cycles:1

let test_modelcheck_crash_every_access () =
  for acc = 1 to 12 do
    let faults = Result.get_ok (F.of_string (Printf.sprintf "crash@p1:acc%d" acc)) in
    let rep = MC.check ~faults split2_builder in
    Test_util.check_no_violation (Printf.sprintf "crash at access %d" acc) rep.outcome;
    Alcotest.(check bool)
      (Printf.sprintf "complete at access %d" acc)
      true rep.outcome.complete
  done;
  (* and right at the grant, where the name is definitely held *)
  let faults = Result.get_ok (F.of_string "crash@p1:acquire") in
  let rep = MC.check ~faults split2_builder in
  Test_util.check_no_violation "crash at acquire" rep.outcome;
  Alcotest.(check bool) "complete at acquire" true rep.outcome.complete

let test_modelcheck_crash_por_sound () =
  let faults = Result.get_ok (F.of_string "crash@p1:acc5") in
  let reduced = MC.check ~faults split2_builder in
  let plain =
    MC.check ~options:{ MC.default_options with por = false; cache_bound = 0 } ~faults
      split2_builder
  in
  Test_util.check_no_violation "reduced" reduced.outcome;
  Test_util.check_no_violation "plain" plain.outcome;
  Alcotest.(check bool) "same completeness" plain.outcome.complete reduced.outcome.complete;
  Alcotest.(check bool) "reduction pruned" true
    (reduced.outcome.paths <= plain.outcome.paths)

(* ----- deterministic post-reclamation re-acquisition ----- *)

(* Split for two, round-robin schedule.  The victim is granted a name
   and crashes on the spot; a reclaimer resets the corpse's footprint
   on its behalf, as the crash matrix's [+reset] twins and the name
   server do.  The survivor waits for the reclaim, then cycles twice
   alone: with the footprint gone the grid is clean again, so it is
   granted the corpse's name both times.  The event log must show
   exactly grant(corpse) -> reclaim(corpse's name) -> grants(survivor). *)
let test_sim_reacquire_after_reclaim () =
  let layout = Layout.create () in
  let sp = Split.create layout ~k:2 in
  let reset = Option.get Split.reset_footprint in
  let work = Layout.alloc layout ~name:"work" 0 in
  let ctrl = F.controller (plan "crash@p0:acquire") in
  let victim_pid = 1 and survivor_pid = 2 in
  let log = ref [] in
  let push e = log := e :: !log in
  let corpse = ref None in
  let reclaimed = ref false in
  (* one shared access per iteration, so the spinner always yields;
     bounded, so a lost crash or reclaim fails the checks below
     instead of hanging *)
  let await (ops : Store.ops) cond =
    let budget = ref 10_000 in
    while (not (cond ())) && !budget > 0 do
      decr budget;
      ignore (ops.read work)
    done
  in
  let cycle (ops : Store.ops) =
    let lease = Split.get_name sp ops in
    let n = Split.name_of sp lease in
    push (`Grant (ops.pid, n));
    if ops.pid = victim_pid then corpse := Some lease;
    Sim.Sched.emit (Sim.Event.Acquired n);
    ignore (ops.read work);
    Sim.Sched.emit (Sim.Event.Released n);
    Split.release_name sp ops lease
  in
  let survivor ops =
    await ops (fun () -> !reclaimed);
    cycle ops;
    cycle ops
  in
  let reclaimer (ops : Store.ops) =
    await ops (fun () -> F.crashed ctrl <> []);
    match !corpse with
    | None -> ()
    | Some lease ->
        let n = Split.name_of sp lease in
        push (`Reclaim n);
        Sim.Sched.emit (Sim.Event.Note ("reclaimed", n));
        reset sp (Store.with_pid ops victim_pid) lease;
        reclaimed := true
  in
  let u = Sim.Checks.uniqueness ~name_space:(Split.name_space sp) () in
  let t =
    Sim.Sched.create
      ~monitor:(Sim.Checks.combine [ Sim.Checks.uniqueness_monitor u; F.monitor ctrl ])
      layout
      [| (victim_pid, cycle); (survivor_pid, survivor); (3, reclaimer) |]
  in
  let outcome = F.run ~max_steps:100_000 ctrl t Sim.Sched.round_robin in
  Sim.Sched.abort t;
  Alcotest.(check bool) "not truncated" false outcome.truncated;
  Alcotest.(check (list int)) "victim crashed" [ 0 ] (F.crashed ctrl);
  Alcotest.(check bool) "survivor finished" true outcome.completed.(1);
  Alcotest.(check bool) "reclaimer finished" true outcome.completed.(2);
  Alcotest.(check (list (pair int int))) "nothing held at the end" [] (Sim.Checks.held_now u);
  match List.rev !log with
  | `Grant (p, n0) :: rest ->
      Alcotest.(check int) "victim granted first" victim_pid p;
      Alcotest.(check bool) "log after the corpse's grant" true
        (rest = [ `Reclaim n0; `Grant (survivor_pid, n0); `Grant (survivor_pid, n0) ])
  | _ -> Alcotest.fail "the victim was never granted"

let () =
  Alcotest.run "faults"
    [
      ( "plans",
        [
          Alcotest.test_case "round-trip" `Quick test_plan_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_plan_rejects;
          test_plan_roundtrip_prop;
          Alcotest.test_case "por_safe" `Quick test_por_safe;
          Alcotest.test_case "gen deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "gen_crash" `Quick test_gen_crash;
        ] );
      ( "controller",
        [
          Alcotest.test_case "park freezes forever" `Quick test_park_freezes;
          Alcotest.test_case "stall resumes" `Quick test_stall_resumes;
          Alcotest.test_case "slow lane completes" `Quick test_slow_lane_completes;
          Alcotest.test_case "acquire trigger" `Quick test_acquire_trigger;
          Alcotest.test_case "crash freezes + records" `Quick test_crash_freezes_and_records;
          Alcotest.test_case "deadlock fast-forward" `Quick test_unstick_deadlock;
          Alcotest.test_case "note occurrence" `Quick test_note_occurrence;
        ] );
      ( "model_check",
        [
          Alcotest.test_case "park-only keeps POR sound" `Slow test_check_with_faults_clean;
          Alcotest.test_case "faulty sample replays" `Slow test_sample_replay_with_faults;
          Alcotest.test_case "minimize shrinks + replays" `Slow test_minimize_shrinks;
          Alcotest.test_case "crash at every access point" `Slow
            test_modelcheck_crash_every_access;
          Alcotest.test_case "crash keeps POR sound" `Slow test_modelcheck_crash_por_sound;
        ] );
      ( "sim",
        [
          Alcotest.test_case "re-acquire after reclaim" `Quick
            test_sim_reacquire_after_reclaim;
        ] );
    ]
