(* Theorem 10 / Figure 4: the FILTER protocol. *)

open Shared_mem
module Filter = Renaming.Filter
module Cf = Numeric.Cover_free

let make ?(participants = [||]) ~k ~d ~z ~s () =
  let participants =
    if Array.length participants = 0 then Array.init (min s (3 * k)) Fun.id else participants
  in
  let layout = Layout.create () in
  let f = Filter.create layout { k; d; z; s; participants } in
  let work = Layout.alloc layout ~name:"work" 0 in
  (layout, f, work)

let test_validation () =
  Alcotest.check_raises "requirement (1)"
    (Invalid_argument "Filter.create: requirement (1) violated: need S <= z^(d+1)") (fun () ->
      ignore (make ~k:3 ~d:1 ~z:5 ~s:26 ()));
  Alcotest.check_raises "requirement (2)"
    (Invalid_argument "Cover_free.create: need z >= 2d(k-1)") (fun () ->
      ignore (make ~k:4 ~d:2 ~z:11 ~s:20 ()));
  Alcotest.check_raises "participant range"
    (Invalid_argument "Filter.create: participant outside [0,S)") (fun () ->
      ignore (make ~k:3 ~d:1 ~z:5 ~s:20 ~participants:[| 0; 25 |] ()))

let test_name_space () =
  let _, f, _ = make ~k:3 ~d:1 ~z:5 ~s:25 () in
  Alcotest.(check int) "D = 2dz(k-1)" (2 * 1 * 5 * 2) (Filter.name_space f)

let test_solo () =
  let layout, f, _ = make ~k:3 ~d:1 ~z:5 ~s:25 () in
  let mem = Store.seq_create layout in
  let ops = Store.seq_ops mem ~pid:7 in
  let lease = Filter.get_name f ops in
  let name = Filter.name_of f lease in
  let expected = Cf.names (Filter.family f) 7 in
  Alcotest.(check bool) "name is in N_p" true (Array.exists (Int.equal name) expected);
  Alcotest.(check int) "one round" 1 (Filter.rounds lease);
  (* a lone process climbs its first tree without a single failed
     check: ceil(log2 25) = 5 checks *)
  Alcotest.(check int) "straight climb" 5 (Filter.checks lease);
  Filter.release_name f ops lease;
  let lease2 = Filter.get_name f ops in
  Alcotest.(check bool) "long-lived" true
    (Array.exists (Int.equal (Filter.name_of f lease2)) expected)

let test_non_participant_rejected () =
  let layout, f, _ = make ~k:3 ~d:1 ~z:5 ~s:25 ~participants:[| 1; 2; 3 |] () in
  let mem = Store.seq_create layout in
  let ops = Store.seq_ops mem ~pid:9 in
  Alcotest.check_raises "undeclared pid"
    (Invalid_argument "Filter.get_name: 9 is not a declared participant") (fun () ->
      ignore (Filter.get_name f ops))

let test_block_sharing () =
  (* blocks_allocated is bounded by participants x set_size x levels
     and is strictly smaller than the complete-forest count *)
  let _, f, _ = make ~k:3 ~d:1 ~z:5 ~s:25 ~participants:[| 0; 1; 2; 3; 4; 5 |] () in
  let levels = 5 (* ceil_log2 25 *) in
  let upper = 6 * Cf.set_size (Filter.family f) * levels in
  Alcotest.(check bool) "lazy allocation" true (Filter.blocks_allocated f <= upper);
  Alcotest.(check bool) "nonzero" true (Filter.blocks_allocated f > 0)

(* ----- concurrent correctness ----- *)

let uniqueness_run ~k ~d ~z ~s ~procs ~cycles ~seed =
  let participants = Array.init procs (fun i -> (i * (s / procs)) + (i mod 3)) in
  let layout, f, work = make ~k ~d ~z ~s ~participants () in
  let bodies =
    Array.map (fun p -> (p, Workload.protocol_body (module Filter) f ~work ~cycles))
      participants
  in
  Test_util.run_random ~seed ~name_space:(Filter.name_space f) layout bodies

let test_uniqueness_random () =
  List.iter
    (fun seed ->
      let outcome, u = uniqueness_run ~k:3 ~d:1 ~z:5 ~s:25 ~procs:3 ~cycles:4 ~seed in
      Alcotest.(check bool) "completes" true (Test_util.all_completed outcome);
      Alcotest.(check bool) "max concurrent <= k" true (Sim.Checks.max_concurrent u <= 3))
    (Test_util.seeds 40)

let test_uniqueness_bigger () =
  (* k=4, d=2, z=17, S=100: 12 trees per process, 7 levels *)
  List.iter
    (fun seed ->
      let outcome, _ = uniqueness_run ~k:4 ~d:2 ~z:17 ~s:100 ~procs:4 ~cycles:3 ~seed in
      Alcotest.(check bool) "completes" true (Test_util.all_completed outcome))
    (Test_util.seeds 15)

(* Theorem 10: checks per acquisition <= 6 d (k-1) ceil(log2 S). *)
let test_wait_free_bound () =
  let k = 3 and d = 1 and z = 5 and s = 25 in
  let levels = 5 in
  let bound = 6 * d * (k - 1) * levels in
  let participants = [| 3; 11; 19 |] in
  let layout, f, work = make ~k ~d ~z ~s ~participants () in
  let worst = ref 0 in
  let body p =
    ( p,
      Workload.protocol_body
        ~on_get:(fun lease -> worst := max !worst (Filter.checks lease))
        (module Filter) f ~work ~cycles:4 )
  in
  List.iter
    (fun seed ->
      let _ =
        Test_util.run_random ~seed ~name_space:(Filter.name_space f) layout
          (Array.map body participants)
      in
      ())
    (Test_util.seeds 50);
  Alcotest.(check bool)
    (Printf.sprintf "worst checks %d <= 6d(k-1)log S = %d" !worst bound)
    true (!worst <= bound)

(* Wait-freedom under crashes: freeze two processes mid-acquisition
   (they hold mutex positions forever); the survivor must still
   acquire names, because its cover-free set always contains
   contention-free trees. *)
let test_crash_tolerance () =
  let participants = [| 3; 11; 19 |] in
  let layout, f, work = make ~k:3 ~d:1 ~z:5 ~s:25 ~participants () in
  let bodies =
    Array.map
      (fun p -> (p, Workload.protocol_body (module Filter) f ~work ~cycles:3))
      participants
  in
  let u = Sim.Checks.uniqueness ~name_space:(Filter.name_space f) () in
  let t = Sim.Sched.create ~monitor:(Sim.Checks.uniqueness_monitor u) layout bodies in
  let rng = Sim.Rng.make 7 in
  let strategy st en =
    if not (Sim.Sched.finished st 0) then
      Array.iter
        (fun i -> if i > 0 && Sim.Sched.steps_of st i >= 5 * i then Sim.Sched.pause st i)
        en;
    let en = match Sim.Sched.enabled st with [||] -> en | e -> e in
    en.(Sim.Rng.int rng (Array.length en))
  in
  let outcome = Sim.Sched.run ~max_steps:200_000 t strategy in
  Alcotest.(check bool) "survivor done" true outcome.completed.(0);
  Alcotest.(check bool) "not truncated" false outcome.truncated

(* Exhaustive-ish model check at the smallest nontrivial instance:
   k=2, d=1, z=2, S=4 -> 2 trees per process, 2 levels each. *)
let k2_builder =
  Workload.protocol_config (module Filter)
    (fun l -> Filter.create l { k = 2; d = 1; z = 2; s = 4; participants = [| 0; 3 |] })
    ~pids:[| 0; 3 |]

let test_bounded_exhaustive_k2 () =
  let builder = k2_builder ~cycles:1 in
  let r = Sim.Model_check.explore ~max_steps:2_000 ~max_paths:400_000 builder in
  Test_util.check_no_violation "filter k=2" r

let test_sampled_k2_long () =
  let builder = k2_builder ~cycles:6 in
  let r = Sim.Model_check.sample ~seeds:(Test_util.seeds 1500) builder in
  Test_util.check_no_violation "filter k=2 sampled" r

let prop_random_instances =
  Test_util.qtest ~count:40 "uniqueness across random filter instances"
    QCheck2.Gen.(
      let* k = int_range 2 4 in
      let* d = int_range 1 2 in
      let* seed = int in
      return (k, d, seed))
    (fun (k, d, seed) ->
      let z = Numeric.Primes.next_prime (2 * d * (k - 1)) in
      let s = min 64 (Numeric.Intmath.pow z (d + 1)) in
      let procs = k in
      let outcome, u = uniqueness_run ~k ~d ~z ~s ~procs ~cycles:2 ~seed in
      Test_util.all_completed outcome && Sim.Checks.max_concurrent u <= k)

let () =
  Alcotest.run "filter"
    [
      ( "structure",
        [
          Alcotest.test_case "parameter validation" `Quick test_validation;
          Alcotest.test_case "name space" `Quick test_name_space;
          Alcotest.test_case "solo acquire/release" `Quick test_solo;
          Alcotest.test_case "non-participant rejected" `Quick test_non_participant_rejected;
          Alcotest.test_case "lazy block allocation" `Quick test_block_sharing;
        ] );
      ( "concurrent",
        [
          Alcotest.test_case "uniqueness, random schedules" `Slow test_uniqueness_random;
          Alcotest.test_case "uniqueness, larger instance" `Slow test_uniqueness_bigger;
          Alcotest.test_case "wait-free bound (Thm 10)" `Slow test_wait_free_bound;
          Alcotest.test_case "crash tolerance" `Quick test_crash_tolerance;
        ] );
      ( "model-check",
        [
          Alcotest.test_case "bounded exhaustive k=2" `Slow test_bounded_exhaustive_k2;
          Alcotest.test_case "sampled k=2, 6 cycles" `Slow test_sampled_k2_long;
        ] );
      ("property", [ prop_random_instances ]);
    ]
