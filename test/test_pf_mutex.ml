(* Lemma 6 / Figure 3: the two-process Enter/Check/Release mutex block
   and the tournament trees built from it, with their resets on behalf
   of a dead holder. *)

open Shared_mem
module Pf = Renaming.Pf_mutex
module Tournament = Renaming.Tournament

(* ----- deterministic sequential-store tests (call-level schedules) ----- *)

let with_block f =
  let layout = Layout.create () in
  let b = Pf.create layout in
  let mem = Store.seq_create layout in
  f b (Store.seq_ops mem ~pid:0) (Store.seq_ops mem ~pid:1)

let test_solo_wins () =
  with_block (fun b ops _ ->
      let s = Pf.enter b ops ~dir:0 in
      Alcotest.(check bool) "alone -> CS" true (Pf.check b ops ~dir:0 s);
      Pf.release b ops ~dir:0 s;
      let s = Pf.enter b ops ~dir:0 in
      Alcotest.(check bool) "alone again" true (Pf.check b ops ~dir:0 s))

let test_first_entrant_has_priority () =
  with_block (fun b p q ->
      let sp = Pf.enter b p ~dir:0 in
      let sq = Pf.enter b q ~dir:1 in
      Alcotest.(check bool) "first wins" true (Pf.check b p ~dir:0 sp);
      Alcotest.(check bool) "second waits" false (Pf.check b q ~dir:1 sq);
      Pf.release b p ~dir:0 sp;
      Alcotest.(check bool) "second proceeds" true (Pf.check b q ~dir:1 sq))

let test_fifo_on_reentry () =
  (* p holds the CS, q waits; p releases and re-enters: q must now have
     priority (the FIFO property Lemma 7's progress argument needs). *)
  with_block (fun b p q ->
      let sp = Pf.enter b p ~dir:0 in
      let sq = Pf.enter b q ~dir:1 in
      Alcotest.(check bool) "p in CS" true (Pf.check b p ~dir:0 sp);
      Pf.release b p ~dir:0 sp;
      let sp' = Pf.enter b p ~dir:0 in
      Alcotest.(check bool) "q now wins" true (Pf.check b q ~dir:1 sq);
      Alcotest.(check bool) "p now waits" false (Pf.check b p ~dir:0 sp');
      Pf.release b q ~dir:1 sq;
      Alcotest.(check bool) "p after q releases" true (Pf.check b p ~dir:0 sp'))

let test_symmetric_directions () =
  with_block (fun b p q ->
      let sq = Pf.enter b q ~dir:1 in
      let sp = Pf.enter b p ~dir:0 in
      Alcotest.(check bool) "right entered first wins" true (Pf.check b q ~dir:1 sq);
      Alcotest.(check bool) "left waits" false (Pf.check b p ~dir:0 sp))

(* ----- model checking ----- *)

(* A process enters, checks up to [retries] times, runs a one-access
   critical section when it wins, and releases either way.  Bounding
   the retries keeps the schedule tree finite while still covering
   every interleaving of the writes that could break exclusion. *)
let contender b ~work ~dir ~retries (ops : Store.ops) =
  let slot = Pf.enter b ops ~dir in
  let rec go n =
    if Pf.check b ops ~dir slot then begin
      Sim.Sched.emit (Sim.Event.Note ("cs", dir));
      ignore (ops.read work);
      Sim.Sched.emit (Sim.Event.Note ("cs_exit", dir))
    end
    else if n > 0 then go (n - 1)
  in
  go retries;
  Pf.release b ops ~dir slot

let exclusion_monitor () =
  let in_cs = ref 0 in
  Sim.Sched.monitor
    ~on_event:(fun _ _ ev ->
      match ev with
      | Sim.Event.Note ("cs", _) ->
          incr in_cs;
          if !in_cs > 1 then raise (Sim.Model_check.Violation "two processes in the CS")
      | Sim.Event.Note ("cs_exit", _) -> decr in_cs
      | _ -> ())
    ()

(* Each direction register carries two bits: values stay in 0..3. *)
let domain_monitor =
  Sim.Sched.monitor
    ~on_access:(fun _ _ access ->
      match access with
      | Sim.Sched.Write (c, v)
        when String.length (Cell.name c) >= 1 && (Cell.name c).[0] = 'R' ->
          if v < 0 || v > 3 then
            raise (Sim.Model_check.Violation "mutex register left its 2-bit domain")
      | Sim.Sched.Write _ | Sim.Sched.Read _ | Sim.Sched.Update _ -> ())
    ()

let builder ~retries ~cycles () : Sim.Model_check.config =
  let layout = Layout.create () in
  let b = Pf.create layout in
  let work = Layout.alloc layout ~name:"work" 0 in
  let body dir ops =
    for _ = 1 to cycles do
      contender b ~work ~dir ~retries ops
    done
  in
  {
    layout;
    procs = [| (0, body 0); (1, body 1) |];
    monitor = Sim.Checks.combine [ exclusion_monitor (); domain_monitor ];
  }

let test_exclusion_exhaustive () =
  let r = Sim.Model_check.explore (builder ~retries:3 ~cycles:1) in
  Test_util.check_no_violation "pf exclusion" r;
  Alcotest.(check bool) "complete" true r.complete

let test_exclusion_exhaustive_2cycles () =
  let r = Sim.Model_check.explore ~max_paths:500_000 (builder ~retries:2 ~cycles:2) in
  Test_util.check_no_violation "pf exclusion, 2 cycles" r

(* Spinning contenders under random schedules: exclusion plus
   starvation-freedom (both bodies finish). *)
let test_exclusion_sampled_spinning () =
  let build () : Sim.Model_check.config =
    let layout = Layout.create () in
    let b = Pf.create layout in
    let work = Layout.alloc layout ~name:"work" 0 in
    let body dir (ops : Store.ops) =
      for _ = 1 to 25 do
        let slot = Pf.enter b ops ~dir in
        while not (Pf.check b ops ~dir slot) do
          ()
        done;
        Sim.Sched.emit (Sim.Event.Note ("cs", dir));
        ignore (ops.read work);
        Sim.Sched.emit (Sim.Event.Note ("cs_exit", dir));
        Pf.release b ops ~dir slot
      done
    in
    { layout; procs = [| (0, body 0); (1, body 1) |]; monitor = exclusion_monitor () }
  in
  let r = Sim.Model_check.sample ~seeds:(Test_util.seeds 2000) build in
  Test_util.check_no_violation "spinning exclusion" r

(* ----- tournament trees ----- *)

let test_tournament_shape () =
  let layout = Layout.create () in
  let t = Tournament.create layout ~inputs:5 in
  Alcotest.(check int) "levels for 5 inputs" 3 (Tournament.levels t);
  Alcotest.(check int) "rounded inputs" 8 (Tournament.inputs t);
  Alcotest.(check int) "registers: 2 per block, 7 blocks" 14 (Layout.size layout);
  Alcotest.check_raises "input range" (Invalid_argument "Tournament.position") (fun () ->
      ignore (Tournament.position t ~input:8))

let test_tournament_solo_climb () =
  let layout = Layout.create () in
  let t = Tournament.create layout ~inputs:8 in
  let mem = Store.seq_create layout in
  let ops = Store.seq_ops mem ~pid:5 in
  let pos = Tournament.position t ~input:5 in
  Alcotest.(check bool) "not yet won" false (Tournament.won t pos);
  Alcotest.(check bool) "solo wins in one push" true (Tournament.try_advance t ops pos);
  Alcotest.(check bool) "won" true (Tournament.won t pos);
  Alcotest.(check int) "at the top" 3 (Tournament.level_of pos);
  Alcotest.(check int) "3 checks (one per level)" 3 (Tournament.checks pos);
  Tournament.release t ops pos;
  Alcotest.(check int) "reset" 0 (Tournament.level_of pos);
  Alcotest.(check bool) "reusable" true (Tournament.try_advance t ops pos)

let test_tournament_two_contenders () =
  let layout = Layout.create () in
  let t = Tournament.create layout ~inputs:4 in
  let mem = Store.seq_create layout in
  let p = Store.seq_ops mem ~pid:0 and q = Store.seq_ops mem ~pid:3 in
  let pp = Tournament.position t ~input:0 in
  let pq = Tournament.position t ~input:3 in
  Alcotest.(check bool) "p wins first" true (Tournament.try_advance t p pp);
  Alcotest.(check bool) "q blocked at root" false (Tournament.try_advance t q pq);
  Alcotest.(check int) "q reached top level" 2 (Tournament.level_of pq);
  Tournament.release t p pp;
  Alcotest.(check bool) "q wins after release" true (Tournament.try_advance t q pq);
  Tournament.release t q pq

(* Exactly one tree owner at a time, under random schedules with 4
   spinning processes on a shared 8-input tree. *)
let test_tournament_sampled () =
  let build () : Sim.Model_check.config =
    let layout = Layout.create () in
    let t = Tournament.create layout ~inputs:8 in
    let work = Layout.alloc layout ~name:"work" 0 in
    let body input (ops : Store.ops) =
      for _ = 1 to 6 do
        let pos = Tournament.position t ~input in
        while not (Tournament.try_advance t ops pos) do
          ()
        done;
        Sim.Sched.emit (Sim.Event.Note ("cs", input));
        ignore (ops.read work);
        Sim.Sched.emit (Sim.Event.Note ("cs_exit", input));
        Tournament.release t ops pos
      done
    in
    {
      layout;
      procs = Array.of_list (List.map (fun i -> (i, body i)) [ 0; 3; 5; 6 ]);
      monitor = exclusion_monitor ();
    }
  in
  let r = Sim.Model_check.sample ~seeds:(Test_util.seeds 800) build in
  Test_util.check_no_violation "tournament exclusion" r

let test_tournament_exhaustive_2procs () =
  (* Two processes, 2-input tree (one block): equivalent to the raw
     mutex but exercised through the tournament climbing logic. *)
  let build () : Sim.Model_check.config =
    let layout = Layout.create () in
    let t = Tournament.create layout ~inputs:2 in
    let work = Layout.alloc layout ~name:"work" 0 in
    let body input (ops : Store.ops) =
      let pos = Tournament.position t ~input in
      let attempts = ref 4 in
      let rec go () =
        if Tournament.try_advance t ops pos then begin
          Sim.Sched.emit (Sim.Event.Note ("cs", input));
          ignore (ops.read work);
          Sim.Sched.emit (Sim.Event.Note ("cs_exit", input))
        end
        else if !attempts > 0 then begin
          decr attempts;
          go ()
        end
      in
      go ();
      Tournament.release t ops pos
    in
    { layout; procs = [| (0, body 0); (1, body 1) |]; monitor = exclusion_monitor () }
  in
  let r = Sim.Model_check.explore build in
  Test_util.check_no_violation "tournament 2-input" r;
  Alcotest.(check bool) "complete" true r.complete

(* ----- reset on behalf of a corpse ----- *)

(* A corpse in the critical section of a PF block wedges the opposite
   direction forever; reset must free it. *)
let test_pf_mutex_reset () =
  let layout = Layout.create () in
  let b = Renaming.Pf_mutex.create layout in
  let seq = Store.seq_create layout in
  let ops0 = Store.seq_ops seq ~pid:0 in
  let ops1 = Store.seq_ops seq ~pid:1 in
  let s0 = Renaming.Pf_mutex.enter b ops0 ~dir:0 in
  Alcotest.(check bool) "corpse won" true (Renaming.Pf_mutex.check b ops0 ~dir:0 s0);
  let s1 = Renaming.Pf_mutex.enter b ops1 ~dir:1 in
  Alcotest.(check bool) "opponent blocked" false (Renaming.Pf_mutex.check b ops1 ~dir:1 s1);
  (* direction 0's holder dies; recover its direction from the register *)
  Renaming.Pf_mutex.reset b ops0 ~dir:0;
  Alcotest.(check bool) "opponent freed" true (Renaming.Pf_mutex.check b ops1 ~dir:1 s1)

let test_tournament_reset () =
  let layout = Layout.create () in
  let t = Renaming.Tournament.create layout ~inputs:2 in
  let seq = Store.seq_create layout in
  let ops0 = Store.seq_ops seq ~pid:0 in
  let ops1 = Store.seq_ops seq ~pid:1 in
  let p0 = Renaming.Tournament.position t ~input:0 in
  Alcotest.(check bool) "corpse owns the tree" true (Renaming.Tournament.try_advance t ops0 p0);
  let p1 = Renaming.Tournament.position t ~input:1 in
  Alcotest.(check bool) "challenger blocked" false (Renaming.Tournament.try_advance t ops1 p1);
  Renaming.Tournament.reset t ops0 p0;
  Alcotest.(check bool) "challenger wins after reset" true
    (Renaming.Tournament.try_advance t ops1 p1)

let () =
  Alcotest.run "pf_mutex"
    [
      ( "sequential",
        [
          Alcotest.test_case "solo wins" `Quick test_solo_wins;
          Alcotest.test_case "first entrant priority" `Quick test_first_entrant_has_priority;
          Alcotest.test_case "FIFO on re-entry" `Quick test_fifo_on_reentry;
          Alcotest.test_case "symmetric directions" `Quick test_symmetric_directions;
        ] );
      ( "model-check",
        [
          Alcotest.test_case "exclusion exhaustive" `Slow test_exclusion_exhaustive;
          Alcotest.test_case "exclusion exhaustive, 2 cycles" `Slow
            test_exclusion_exhaustive_2cycles;
          Alcotest.test_case "exclusion sampled, spinning" `Slow test_exclusion_sampled_spinning;
        ] );
      ( "tournament",
        [
          Alcotest.test_case "shape" `Quick test_tournament_shape;
          Alcotest.test_case "solo climb" `Quick test_tournament_solo_climb;
          Alcotest.test_case "two contenders" `Quick test_tournament_two_contenders;
          Alcotest.test_case "exhaustive 2-input" `Slow test_tournament_exhaustive_2procs;
          Alcotest.test_case "sampled 4 procs" `Slow test_tournament_sampled;
        ] );
      ( "resets",
        [
          Alcotest.test_case "pf_mutex" `Quick test_pf_mutex_reset;
          Alcotest.test_case "tournament" `Quick test_tournament_reset;
        ] );
    ]
