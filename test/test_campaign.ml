(* The discrimination matrix: every mutant must be killed by the fixed
   seed matrix, every correct protocol must survive it, and findings
   must shrink to schedules that replay deterministically. *)

let test_matrix_discriminates () =
  let outcomes = Campaign.run_all () in
  List.iter
    (fun (o : Campaign.outcome) ->
      match (o.correct, o.finding) with
      | true, Some f ->
          Alcotest.failf "correct target %s violated under %s (seed %d): %s" o.target
            (Sim.Faults.to_string f.plan) f.seed f.message
      | false, None ->
          Alcotest.failf "mutant %s survived the whole matrix (%d runs)" o.target o.runs
      | true, None | false, Some _ -> ())
    outcomes;
  Alcotest.(check bool) "ok agrees" true (Campaign.ok outcomes);
  (* the matrix covers every registered target *)
  Alcotest.(check int) "all targets ran" (List.length (Campaign.targets ()))
    (List.length outcomes)

let test_targets_well_formed () =
  List.iter
    (fun (tg : Campaign.target) ->
      Alcotest.(check bool) (tg.name ^ " nprocs") true (tg.nprocs >= 2);
      Alcotest.(check bool) (tg.name ^ " sched_per_plan") true (tg.sched_per_plan >= 1);
      let prefix_is_mutant =
        String.length tg.name >= 7 && String.sub tg.name 0 7 = "mutant:"
      in
      Alcotest.(check bool)
        (tg.name ^ " naming convention")
        tg.correct (not prefix_is_mutant))
    (Campaign.targets ())

let test_find () =
  Alcotest.(check bool) "finds splitter" true (Campaign.find "splitter" <> None);
  Alcotest.(check bool) "finds mutant" true (Campaign.find "mutant:ma-costly" <> None);
  Alcotest.(check bool) "rejects junk" true (Campaign.find "no-such-target" = None)

(* A kill of a specific mutant, end to end: find it, shrink it, replay
   the shrunk schedule twice and demand identical messages. *)
let test_shrink_replays () =
  let tg = Option.get (Campaign.find "mutant:mutex-turn-lost") in
  let o = Campaign.run_target tg in
  match o.finding with
  | None -> Alcotest.fail "mutex-turn-lost was not killed"
  | Some f -> (
      match Campaign.shrink tg f with
      | None ->
          (* wait-freedom timeouts have no replayable schedule; this
             mutant's kill is a monitor violation, so shrink must work *)
          Alcotest.fail "finding did not shrink"
      | Some m ->
          Alcotest.(check bool) "no longer than the original" true
            (List.length m.schedule <= List.length f.schedule);
          let replay () = Campaign.replay tg f.plan m.schedule in
          (match (replay (), replay ()) with
          | Error a, Error b ->
              Alcotest.(check string) "deterministic replay" a.message b.message;
              Alcotest.(check string) "same verdict as the shrunk run" m.message a.message
          | _ -> Alcotest.fail "shrunk schedule stopped violating"))

let test_determinism () =
  (* the whole matrix is a pure function of the seed list *)
  let seeds = [ 0xFA17; 0xFA17 + 104729 ] in
  let render os =
    String.concat "\n" (List.map (fun o -> Format.asprintf "%a" Campaign.pp_outcome o) os)
  in
  let a = render (Campaign.run_all ~seeds ()) in
  let b = render (Campaign.run_all ~seeds ()) in
  Alcotest.(check string) "identical campaign output" a b

let test_report_json_shape () =
  let seeds = [ 0xFA17 ] in
  let os = Campaign.run_all ~seeds () in
  let json = Campaign.report_json ~seeds os in
  let contains needle =
    Alcotest.(check bool) ("report contains " ^ needle) true
      (Test_util.contains ~sub:needle json)
  in
  contains "renaming.faults/v1";
  contains "\"splitter\"";
  contains "\"mutant:ma-costly\""

(* ----- the crash matrix ----- *)

let crash_seeds = [ 0xFA17; 0xFA17 + 104729 ]

let test_crash_targets_paired () =
  let ts = Campaign.crash_targets () in
  List.iter
    (fun (t : Campaign.crash_target) ->
      Alcotest.(check bool) (t.c_name ^ " nprocs") true (t.c_nprocs >= 2);
      let suffix = "+reset" in
      let has_suffix =
        let n = String.length suffix and l = String.length t.c_name in
        l >= n && String.sub t.c_name (l - n) n = suffix
      in
      Alcotest.(check bool) (t.c_name ^ " naming convention") t.reset has_suffix;
      (* every bare target has its +reset twin and vice versa *)
      let twin =
        if t.reset then String.sub t.c_name 0 (String.length t.c_name - String.length suffix)
        else t.c_name ^ suffix
      in
      Alcotest.(check bool) (t.c_name ^ " has twin " ^ twin) true
        (Campaign.find_crash twin <> None))
    ts;
  Alcotest.(check bool) "rejects junk" true (Campaign.find_crash "no-such" = None)

let test_crash_matrix_discriminates () =
  let outcomes = Campaign.run_all_crash ~seeds:crash_seeds () in
  List.iter
    (fun (o : Campaign.crash_outcome) ->
      (match o.crash_finding with
      | Some f ->
          Alcotest.failf "%s failed under %s (seed %d): %s" o.crash_target_name
            (Sim.Faults.to_string f.plan) f.seed f.message
      | None -> ());
      Alcotest.(check bool) (o.crash_target_name ^ " crashes fired") true
        (o.crashes_fired >= 1);
      if o.crash_reset then begin
        Alcotest.(check int) (o.crash_target_name ^ " leak-free") 0 o.leak_runs;
        Alcotest.(check int) (o.crash_target_name ^ " reclaims = crashes") o.crashes_fired
          o.total_reclaimed
      end
      else begin
        Alcotest.(check bool) (o.crash_target_name ^ " leaks") true (o.leak_runs >= 1);
        Alcotest.(check int) (o.crash_target_name ^ " reclaims nothing") 0
          o.total_reclaimed
      end)
    outcomes;
  Alcotest.(check bool) "crash_ok agrees" true (Campaign.crash_ok outcomes);
  Alcotest.(check int) "all crash targets ran"
    (List.length (Campaign.crash_targets ()))
    (List.length outcomes)

(* ----- single crash runs: one pinned plan, every scheduler seed ----- *)

let crash_plan s = Result.get_ok (Sim.Faults.of_string s)

let crash_runs name plan =
  let tg = Option.get (Campaign.find_crash name) in
  List.map
    (fun sched_seed -> Campaign.run_crash_once tg (crash_plan plan) ~sched_seed)
    (Test_util.seeds 8)

let check_clean name (r : Campaign.crash_run) =
  match r.failure with
  | Some (message, _) -> Alcotest.failf "%s: %s" name message
  | None -> ()

let test_bare_run_leaks () =
  List.iter
    (fun (r : Campaign.crash_run) ->
      check_clean "split" r;
      Alcotest.(check int) "one crash fired" 1 r.crashed;
      Alcotest.(check int) "the victim's name leaks" 1 (List.length r.leaked);
      Alcotest.(check int) "nothing reclaimed" 0 r.run_reclaimed)
    (crash_runs "split" "crash@p0:acquire")

let test_twin_run_reclaims () =
  List.iter
    (fun (r : Campaign.crash_run) ->
      check_clean "split+reset" r;
      Alcotest.(check int) "one crash fired" 1 r.crashed;
      Alcotest.(check int) "the corpse reclaimed once" 1 r.run_reclaimed;
      Alcotest.(check (list (pair int int))) "nothing held" [] r.leaked)
    (crash_runs "split+reset" "crash@p0:acquire")

let test_twin_reclaims_every_corpse () =
  (* two of split's three workers die holding; the reclaimer resets
     both, and the survivor's cycles still hand out distinct names *)
  List.iter
    (fun (r : Campaign.crash_run) ->
      check_clean "split+reset" r;
      Alcotest.(check int) "two crashes fired" 2 r.crashed;
      Alcotest.(check int) "both corpses reclaimed" 2 r.run_reclaimed;
      Alcotest.(check (list (pair int int))) "nothing held" [] r.leaked)
    (crash_runs "split+reset" "crash@p0:acquire,crash@p2:acquire")

let test_twin_idles_out () =
  (* no crash fires: the reclaimer must still stop once the workers
     finish, and reset nothing *)
  List.iter
    (fun (tg : Campaign.crash_target) ->
      if tg.reset then
        List.iter
          (fun sched_seed ->
            let r = Campaign.run_crash_once tg [] ~sched_seed in
            check_clean tg.c_name r;
            Alcotest.(check int) (tg.c_name ^ " no crash") 0 r.crashed;
            Alcotest.(check int) (tg.c_name ^ " nothing reclaimed") 0 r.run_reclaimed;
            Alcotest.(check (list (pair int int))) (tg.c_name ^ " nothing held") [] r.leaked)
          (Test_util.seeds 4))
    (Campaign.crash_targets ())

let test_reclaim_note_names_corpse () =
  (* the uniqueness monitor frees exactly the name a "reclaimed" note
     carries, so in every family the twin's note must carry the name the
     victim was granted, and come from the reclaimer process *)
  List.iter
    (fun (tg : Campaign.crash_target) ->
      if tg.reset then begin
        let ctrl = Sim.Faults.controller (crash_plan "crash@p0:acquire") in
        let cc = tg.c_builder ctrl in
        let granted = ref [] and notes = ref [] in
        let record =
          Sim.Sched.monitor
            ~on_event:(fun _ i -> function
              | Sim.Event.Acquired n when i = 0 -> granted := n :: !granted
              | Sim.Event.Note ("reclaimed", n) -> notes := (i, n) :: !notes
              | _ -> ())
            ()
        in
        let monitor =
          Sim.Checks.combine [ cc.ccfg.monitor; Sim.Faults.monitor ctrl; record ]
        in
        let t = Sim.Sched.create ~monitor cc.ccfg.layout cc.ccfg.procs in
        let outcome = Sim.Faults.run ~max_steps:200_000 ctrl t Sim.Sched.round_robin in
        Sim.Sched.abort t;
        Alcotest.(check bool) (tg.c_name ^ " settled") false outcome.truncated;
        Alcotest.(check (list int)) (tg.c_name ^ " victim crashed") [ 0 ]
          (Sim.Faults.crashed ctrl);
        Alcotest.(check (list (pair int int)))
          (tg.c_name ^ " one note for the corpse's name")
          [ (tg.c_nprocs, List.hd !granted) ]
          !notes;
        Alcotest.(check (list (pair int int))) (tg.c_name ^ " nothing held") []
          (cc.held_now ())
      end)
    (Campaign.crash_targets ())

let test_plans_spare_reclaimer () =
  (* the reclaimer runs as process c_nprocs; a plan that could crash it
     would turn a twin into a bare target *)
  List.iter
    (fun (tg : Campaign.crash_target) ->
      List.iter
        (fun seed ->
          List.iter
            (fun v ->
              Alcotest.(check bool)
                (Printf.sprintf "%s seed %d victim %d is a worker" tg.c_name seed v)
                true
                (v >= 0 && v < tg.c_nprocs))
            (Sim.Faults.victims (Campaign.crash_plan_for tg seed)))
        (Test_util.seeds 32))
    (Campaign.crash_targets ())

let test_report_verdict_covers_crash () =
  (* the faults document fails when its nested crash matrix fails, even
     with every mutant outcome in order *)
  let seeds = [ 0xFA17 ] in
  let crash_fail =
    {
      Campaign.crash_target_name = "split";
      crash_reset = false;
      crash_runs = 1;
      crashes_fired = 0;
      leak_runs = 0;
      total_reclaimed = 0;
      crash_finding = None;
    }
  in
  let json = Campaign.report_json ~crash:[ crash_fail ] ~seeds [] in
  let contains sub = Test_util.contains ~sub json in
  Alcotest.(check bool) "nested crash report" true
    (contains {|"crash":{"schema":"renaming.crash/v1"|});
  Alcotest.(check bool) "crash half failed" false (Campaign.crash_ok [ crash_fail ]);
  Alcotest.(check bool) "mutant half alone passes" true (Campaign.ok []);
  Alcotest.(check bool) "overall verdict false" true
    (contains {|{"schema":"renaming.faults/v1","matrix_size":1,"ok":false,|})

let test_crash_report_byte_identical () =
  (* the ISSUE's reproducibility bar: the whole report is a pure
     function of the seed list, byte for byte *)
  let seeds = [ 0xFA17 ] in
  let render () = Campaign.crash_report_json ~seeds (Campaign.run_all_crash ~seeds ()) in
  let a = render () in
  Alcotest.(check string) "byte-identical reports" a (render ());
  let contains needle =
    Alcotest.(check bool) ("report contains " ^ needle) true
      (Test_util.contains ~sub:needle a)
  in
  contains "renaming.crash/v1";
  contains "\"split+reset\"";
  contains "\"pipeline\""

let () =
  Alcotest.run "campaign"
    [
      ( "registry",
        [
          Alcotest.test_case "targets well-formed" `Quick test_targets_well_formed;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "report json" `Quick test_report_json_shape;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "discriminates" `Slow test_matrix_discriminates;
          Alcotest.test_case "deterministic" `Slow test_determinism;
          Alcotest.test_case "shrink + replay" `Slow test_shrink_replays;
        ] );
      ( "crash",
        [
          Alcotest.test_case "targets paired" `Quick test_crash_targets_paired;
          Alcotest.test_case "bare leaks, reset reclaims" `Slow
            test_crash_matrix_discriminates;
          Alcotest.test_case "report byte-identical" `Slow
            test_crash_report_byte_identical;
          Alcotest.test_case "bare run leaks the victim" `Quick test_bare_run_leaks;
          Alcotest.test_case "reset run reclaims the victim" `Quick test_twin_run_reclaims;
          Alcotest.test_case "reset reclaims every corpse" `Quick
            test_twin_reclaims_every_corpse;
          Alcotest.test_case "reset without crashes idles out" `Quick test_twin_idles_out;
          Alcotest.test_case "reclaim note names the corpse" `Quick
            test_reclaim_note_names_corpse;
          Alcotest.test_case "plans spare the reclaimer" `Quick test_plans_spare_reclaimer;
          Alcotest.test_case "faults verdict covers crash" `Quick
            test_report_verdict_covers_crash;
        ] );
    ]
