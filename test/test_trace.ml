(* Trace-ring accounting, timeline rendering, and span-profiled replay
   of model-checker schedules. *)

open Shared_mem
module Mc = Sim.Model_check
module Mma = Renaming.Mutations.Mutant_ma

let is_suffix sub s =
  let n = String.length sub and m = String.length s in
  n <= m && String.sub s (m - n) n = sub

(* ----- ring overflow: bounded and unbounded rings, same run ----- *)

let test_ring_overflow () =
  let layout = Layout.create () in
  let c = Layout.alloc layout ~name:"c" 0 in
  let body (ops : Store.ops) =
    for i = 1 to 10 do
      ops.write c i;
      Sim.Sched.emit (Sim.Event.Note ("tick", i))
    done
  in
  let small = Sim.Trace.create ~capacity:4 () in
  let full = Sim.Trace.create () in
  let t =
    Sim.Sched.create
      ~monitor:(Sim.Checks.combine [ Sim.Trace.monitor small; Sim.Trace.monitor full ])
      layout [| (0, body) |]
  in
  ignore (Sim.Sched.run t Sim.Sched.round_robin);
  (* 10 writes + 10 notes *)
  Alcotest.(check int) "full ring holds everything" 20 (Sim.Trace.length full);
  Alcotest.(check int) "full ring dropped nothing" 0 (Sim.Trace.dropped full);
  Alcotest.(check int) "bounded ring holds its capacity" 4 (Sim.Trace.length small);
  Alcotest.(check int) "dropped = recorded - capacity" 16 (Sim.Trace.dropped small);
  let show tr = List.map (Format.asprintf "%a" Sim.Trace.pp_item) (Sim.Trace.items tr) in
  let all = show full in
  let tail = List.filteri (fun i _ -> i >= List.length all - 4) all in
  Alcotest.(check (list string)) "ring keeps the newest items" tail (show small);
  Sim.Trace.clear small;
  Alcotest.(check int) "clear resets length" 0 (Sim.Trace.length small);
  Alcotest.(check int) "clear resets dropped" 0 (Sim.Trace.dropped small)

(* ----- timeline: a known 2-process round-robin schedule ----- *)

let test_timeline_known_schedule () =
  let layout = Layout.create () in
  let work = Layout.alloc layout ~name:"work" 0 in
  (* read, acquire, read, release: under round-robin the accesses
     interleave p0,p1,p0,p1 and each event is atomic with the access
     just before it, so the 4-step timeline is fully determined. *)
  let body name (ops : Store.ops) =
    ignore (ops.read work);
    Sim.Sched.emit (Sim.Event.Acquired name);
    ignore (ops.read work);
    Sim.Sched.emit (Sim.Event.Released name)
  in
  let tr = Sim.Trace.create () in
  let t =
    Sim.Sched.create ~monitor:(Sim.Trace.monitor tr) layout
      [| (0, body 0); (1, body 1) |]
  in
  let outcome = Sim.Sched.run t Sim.Sched.round_robin in
  Alcotest.(check int) "four accesses" 4 outcome.total;
  let tl = Sim.Trace.timeline tr in
  let contains sub =
    Alcotest.(check bool) (Printf.sprintf "timeline contains %S" sub) true
      (Test_util.contains ~sub tl)
  in
  contains "steps 1..4";
  (* p0 acquires name 0 at step 1 and releases at its step-3 access;
     p1 holds name 1 over steps 2 and 4; one bucket per step *)
  contains "p0 (pid      0) |0 0 |";
  contains "p1 (pid      1) | 1 1|"

(* ----- timeline edge cases ----- *)

let run_traced bodies =
  let layout = Layout.create () in
  let work = Layout.alloc layout ~name:"work" 0 in
  let tr = Sim.Trace.create () in
  let t =
    Sim.Sched.create ~monitor:(Sim.Trace.monitor tr) layout
      (Array.mapi (fun i body -> (i, body work)) bodies)
  in
  ignore (Sim.Sched.run t Sim.Sched.round_robin);
  tr

let test_timeline_empty () =
  let tl = Sim.Trace.timeline (Sim.Trace.create ()) in
  Alcotest.(check bool) "header present" true (Test_util.contains ~sub:"steps 1..1" tl);
  Alcotest.(check int) "no lanes for an empty trace" 1
    (List.length (String.split_on_char '\n' tl))

let test_timeline_zero_length_hold () =
  (* acquire and release back-to-back, no access in between: the
     holding interval spans zero steps but must still be painted *)
  let tr =
    run_traced
      [|
        (fun work (ops : Store.ops) ->
          ignore (ops.read work);
          Sim.Sched.emit (Sim.Event.Acquired 5);
          Sim.Sched.emit (Sim.Event.Released 5));
      |]
  in
  let tl = Sim.Trace.timeline tr in
  Alcotest.(check bool) "zero-length hold still painted" true
    (Test_util.contains ~sub:"|5|" tl)

let test_timeline_more_procs_than_width () =
  let body work (ops : Store.ops) =
    ignore (ops.read work);
    Sim.Sched.emit (Sim.Event.Acquired ops.pid);
    ignore (ops.read work);
    Sim.Sched.emit (Sim.Event.Released ops.pid)
  in
  let tr = run_traced (Array.make 5 body) in
  let tl = Sim.Trace.timeline ~width:3 tr in
  let lines = String.split_on_char '\n' (String.trim tl) in
  Alcotest.(check int) "every process gets a lane" 6 (List.length lines);
  List.iteri
    (fun i line ->
      if i > 0 then begin
        match (String.index_opt line '|', String.rindex_opt line '|') with
        | Some a, Some b ->
            Alcotest.(check int)
              (Printf.sprintf "lane %d clipped to 3 columns" i)
              3 (b - a - 1)
        | _ -> Alcotest.fail "lane without |...| bars"
      end)
    lines

let test_timeline_large_names_star () =
  let tr =
    run_traced
      [|
        (fun work (ops : Store.ops) ->
          ignore (ops.read work);
          Sim.Sched.emit (Sim.Event.Acquired 50);
          ignore (ops.read work);
          Sim.Sched.emit (Sim.Event.Released 50));
        (fun work (ops : Store.ops) ->
          ignore (ops.read work);
          Sim.Sched.emit (Sim.Event.Acquired 35);
          ignore (ops.read work);
          Sim.Sched.emit (Sim.Event.Released 35));
      |]
  in
  let tl = Sim.Trace.timeline tr in
  Alcotest.(check bool) "name 50 renders as *" true (Test_util.contains ~sub:"*" tl);
  (* 35 is the last name with its own glyph ('z') *)
  Alcotest.(check bool) "name 35 renders as z" true (Test_util.contains ~sub:"z" tl)

(* ----- spans from a replayed Model_check.sample schedule ----- *)

(* The MA mutant violates uniqueness under sampling.  The schedule the
   sampler reports must replay against marker-bearing bodies (markers
   cost no shared access), and the Observe monitor's counters must see
   exactly the accesses the sampled run recorded. *)
let test_span_replay_matches_sample () =
  let recorded = ref 0 in
  let count = Sim.Sched.monitor ~on_access:(fun _ _ _ -> incr recorded) () in
  let mk ?markers ?(extra = []) () =
    recorded := 0;
    Workload.protocol_config ?markers ~monitors:(count :: extra) (module Mma)
      (fun l -> Mma.create l Mma.No_recheck ~k:2 ~s:3)
      ~pids:[| 0; 2 |] ~cycles:1 ()
  in
  let r = Mc.sample ~seeds:(List.init 100 (fun i -> i + 1)) (fun () -> mk ()) in
  match r.violation with
  | None -> Alcotest.fail "expected the MA mutant to violate under sampling"
  | Some v ->
      let sample_accesses = !recorded in
      Alcotest.(check bool) "sampled run saw accesses" true (sample_accesses > 0);
      let registry = Obs.Registry.create () in
      let sh = Obs.Registry.shard registry in
      let obs = Sim.Observe.create sh in
      let res =
        Mc.replay
          (fun () -> mk ~markers:true ~extra:[ Sim.Observe.monitor obs ] ())
          v.schedule
      in
      Sim.Observe.finalize obs;
      (match res with
      | Error v' ->
          (* sample prefixes its message with "[seed N] " *)
          Alcotest.(check bool)
            "replay reproduces the violation" true
            (is_suffix v'.message v.message)
      | Ok () -> Alcotest.fail "replay did not reproduce the violation");
      Alcotest.(check int) "replay performs the same accesses" sample_accesses !recorded;
      let snap = Obs.Registry.snapshot registry in
      let counter name = Option.value ~default:0 (List.assoc_opt name snap.counters) in
      Alcotest.(check int) "observe counters see every access" sample_accesses
        (counter "store.reads" + counter "store.writes" + counter "store.rmws");
      Alcotest.(check bool) "spans recorded" true (snap.spans <> []);
      let span_accesses =
        List.fold_left (fun a (s : Obs.Span.t) -> a + s.accesses) 0 snap.spans
      in
      Alcotest.(check bool) "span accesses bounded by the run's total" true
        (span_accesses <= sample_accesses)

let () =
  Alcotest.run "trace"
    [
      ( "ring",
        [
          Alcotest.test_case "overflow accounting" `Quick test_ring_overflow;
          Alcotest.test_case "timeline rendering" `Quick test_timeline_known_schedule;
          Alcotest.test_case "timeline: empty trace" `Quick test_timeline_empty;
          Alcotest.test_case "timeline: zero-length hold" `Quick
            test_timeline_zero_length_hold;
          Alcotest.test_case "timeline: more procs than columns" `Quick
            test_timeline_more_procs_than_width;
          Alcotest.test_case "timeline: names beyond 35 are *" `Quick
            test_timeline_large_names_star;
        ] );
      ( "replay",
        [
          Alcotest.test_case "span-profiled sample replay" `Quick
            test_span_replay_matches_sample;
        ] );
    ]
