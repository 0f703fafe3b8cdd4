(* The Moir-Anderson baseline grid protocol. *)

open Shared_mem
module Ma = Renaming.Ma

let make ~k ~s =
  let layout = Layout.create () in
  let m = Ma.create layout ~k ~s in
  let work = Layout.alloc layout ~name:"work" 0 in
  (layout, m, work)

let test_structure () =
  let layout, m, _ = make ~k:4 ~s:10 in
  Alcotest.(check int) "name space k(k+1)/2" 10 (Ma.name_space m);
  Alcotest.(check int) "k" 4 (Ma.k m);
  Alcotest.(check int) "source space" 10 (Ma.source_space m);
  (* 10 blocks x (1 X + 10 Y) + work *)
  Alcotest.(check int) "registers" ((10 * 11) + 1) (Layout.size layout);
  Alcotest.check_raises "bad k" (Invalid_argument "Ma.create: k must be >= 1") (fun () ->
      ignore (make ~k:0 ~s:5))

let test_solo () =
  let layout, m, _ = make ~k:3 ~s:12 in
  let mem = Store.seq_create layout in
  let ops = Store.seq_ops mem ~pid:7 in
  let lease = Ma.get_name m ops in
  Alcotest.(check int) "lone process stops at (0,0)" 0 (Ma.name_of m lease);
  Alcotest.(check (pair int int)) "grid position" (0, 0) (Ma.grid_position m lease);
  Ma.release_name m ops lease;
  let lease2 = Ma.get_name m ops in
  Alcotest.(check int) "long-lived reset" 0 (Ma.name_of m lease2);
  Ma.release_name m ops lease2

let test_two_sequential () =
  let layout, m, _ = make ~k:3 ~s:12 in
  let mem = Store.seq_create layout in
  let a = Store.seq_ops mem ~pid:2 and b = Store.seq_ops mem ~pid:9 in
  let la = Ma.get_name m a in
  let lb = Ma.get_name m b in
  Alcotest.(check int) "first gets (0,0)" 0 (Ma.name_of m la);
  (* second sees the presence bit and moves right *)
  Alcotest.(check int) "second gets (0,1)" 1 (Ma.name_of m lb);
  Ma.release_name m a la;
  let lc = Ma.get_name m a in
  Alcotest.(check int) "released block is reusable" 0 (Ma.name_of m lc)

let test_pid_range () =
  let layout, m, _ = make ~k:2 ~s:5 in
  let mem = Store.seq_create layout in
  let ops = Store.seq_ops mem ~pid:5 in
  Alcotest.check_raises "pid outside S" (Invalid_argument "Ma.get_name: pid outside [0,S)")
    (fun () -> ignore (Ma.get_name m ops))

let uniqueness_run ~k ~s ~cycles ~seed =
  let layout, m, work = make ~k ~s in
  (* i*s/k is strictly increasing for s >= k, so the pids are distinct *)
  let procs =
    Array.init k (fun i ->
        (i * s / k, Workload.protocol_body (module Ma) m ~work ~cycles))
  in
  Test_util.run_random ~seed ~name_space:(Ma.name_space m) layout procs

let test_uniqueness_random () =
  List.iter
    (fun (k, s) ->
      List.iter
        (fun seed ->
          let outcome, u = uniqueness_run ~k ~s ~cycles:4 ~seed in
          Alcotest.(check bool)
            (Printf.sprintf "k=%d s=%d completes" k s)
            true
            (Test_util.all_completed outcome);
          Alcotest.(check bool) "concurrent <= k" true (Sim.Checks.max_concurrent u <= k))
        (Test_util.seeds 20))
    [ (2, 8); (3, 12); (4, 20); (5, 30) ]

(* O(kS) access bound: each block costs S + 4 accesses at most, path
   length is at most k blocks, plus the diagonal write. *)
let test_access_bound () =
  let k = 4 and s = 16 in
  let layout, m, work = make ~k ~s in
  let costs = Workload.costs () in
  let procs =
    Array.init k (fun i ->
        ( i * 4,
          Workload.protocol_body ~costs (module Ma) m ~work ~cycles:4
        ))
  in
  List.iter
    (fun seed ->
      let _ = Test_util.run_random ~seed ~name_space:(Ma.name_space m) layout procs in
      ())
    (Test_util.seeds 10);
  let bound = (k * (s + 4)) + 1 in
  List.iter
    (fun c -> Alcotest.(check bool) (Printf.sprintf "get %d <= k(S+4)+1" c) true (c <= bound))
    costs.get;
  List.iter
    (fun c -> Alcotest.(check int) "release is one access" 1 c)
    costs.release

let test_exhaustive_k2 () =
  let builder =
    Workload.protocol_config (module Ma) (fun l -> Ma.create l ~k:2 ~s:3) ~pids:[| 0; 2 |]
      ~cycles:1
  in
  let r = Sim.Model_check.explore ~max_paths:3_000_000 builder in
  Test_util.check_no_violation "ma k=2" r;
  Alcotest.(check bool) "complete" true r.complete

let test_sampled_k3 () =
  let builder =
    Workload.protocol_config (module Ma) (fun l -> Ma.create l ~k:3 ~s:6)
      ~pids:[| 0; 2; 4 |] ~cycles:4
  in
  let r = Sim.Model_check.sample ~seeds:(Test_util.seeds 1500) builder in
  Test_util.check_no_violation "ma k=3 sampled" r

let prop_random =
  Test_util.qtest ~count:60 "uniqueness across random (k, s, seed)"
    QCheck2.Gen.(
      let* k = int_range 2 5 in
      let* s = int_range k 24 in
      let* seed = int in
      return (k, s, seed))
    (fun (k, s, seed) ->
      let outcome, _ = uniqueness_run ~k ~s ~cycles:3 ~seed in
      Test_util.all_completed outcome)

let () =
  Alcotest.run "ma"
    [
      ( "structure",
        [
          Alcotest.test_case "grid shape" `Quick test_structure;
          Alcotest.test_case "solo" `Quick test_solo;
          Alcotest.test_case "two sequential" `Quick test_two_sequential;
          Alcotest.test_case "pid range" `Quick test_pid_range;
        ] );
      ( "concurrent",
        [
          Alcotest.test_case "uniqueness, random schedules" `Slow test_uniqueness_random;
          Alcotest.test_case "access bound O(kS)" `Slow test_access_bound;
        ] );
      ( "model-check",
        [
          Alcotest.test_case "exhaustive k=2" `Slow test_exhaustive_k2;
          Alcotest.test_case "sampled k=3" `Slow test_sampled_k3;
        ] );
      ("property", [ prop_random ]);
    ]
