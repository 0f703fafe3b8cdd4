(* The Test&Set baseline (stronger primitive, k names). *)

open Shared_mem
module Tas = Renaming.Tas_baseline

let make ~k =
  let layout = Layout.create () in
  let t = Tas.create layout ~k in
  let work = Layout.alloc layout ~name:"work" 0 in
  (layout, t, work)

let test_structure () =
  let layout, t, _ = make ~k:5 in
  Alcotest.(check int) "k names" 5 (Tas.name_space t);
  Alcotest.(check int) "k bits + work" 6 (Layout.size layout);
  Alcotest.check_raises "bad k" (Invalid_argument "Tas_baseline.create: k must be >= 1")
    (fun () -> ignore (make ~k:0))

let test_solo () =
  let layout, t, _ = make ~k:4 in
  let mem = Store.seq_create layout in
  let ops = Store.seq_ops mem ~pid:6 in
  let lease = Tas.get_name t ops in
  Alcotest.(check int) "pid-offset start" (6 mod 4) (Tas.name_of t lease);
  Alcotest.(check int) "one probe" 1 (Tas.probes lease);
  Tas.release_name t ops lease;
  let lease2 = Tas.get_name t ops in
  Alcotest.(check int) "long-lived" (6 mod 4) (Tas.name_of t lease2)

let test_rmw_semantics () =
  (* the underlying primitive: rmw returns the old value atomically *)
  let layout = Layout.create () in
  let c = Layout.alloc layout ~name:"c" 5 in
  let mem = Store.seq_create layout in
  let ops = Store.seq_ops mem ~pid:0 in
  Alcotest.(check int) "old value" 5 (ops.rmw c (fun v -> v * 2));
  Alcotest.(check int) "new value" 10 (ops.read c)

let test_exhaustive_k2 () =
  let builder =
    Workload.protocol_config (module Tas) (fun l -> Tas.create l ~k:2) ~pids:[| 0; 1 |]
      ~cycles:2
  in
  let r = Sim.Model_check.explore builder in
  Test_util.check_no_violation "tas k=2" r;
  Alcotest.(check bool) "complete" true r.complete

let test_uniqueness_random () =
  List.iter
    (fun seed ->
      let k = 4 in
      let layout, t, work = make ~k in
      let procs =
        Array.init k (fun i ->
            ((i * 97) + 5, Workload.protocol_body (module Tas) t ~work ~cycles:6))
      in
      let outcome, u = Test_util.run_random ~seed ~name_space:k layout procs in
      Alcotest.(check bool) "completes" true (Test_util.all_completed outcome);
      Alcotest.(check bool) "max concurrent <= k" true (Sim.Checks.max_concurrent u <= k))
    (Test_util.seeds 40)

let test_domains () =
  let k = 4 in
  let r =
    (Churn.run_bare
       ~backend:(fun layout ~stage:_ ~k ->
         Renaming.Protocol.Any.pack (module Tas) (Tas.create layout ~k))
       ~k ~s:(3 * k)
       ~pids:(Array.init k (fun i -> i * 3))
       ~cycles:300 ())
      .Churn.result
  in
  Alcotest.(check int) "no violations" 0 r.violations;
  Array.iter (fun c -> Alcotest.(check int) "all cycles" 300 c) r.cycles_done;
  Alcotest.(check bool) "per-name marks are clean" true
    (List.for_all (fun (_, m) -> m = 1) r.max_concurrent_by_name)

(* Saturation: with exactly k processes and k names, everyone still
   gets a name under fair random schedules, with bounded probing. *)
let test_saturated () =
  let k = 3 in
  let layout, t, work = make ~k in
  let probes = ref [] in
  let body =
    Workload.protocol_body
      ~on_get:(fun lease -> probes := Tas.probes lease :: !probes)
      (module Tas) t ~work ~cycles:8
  in
  List.iter
    (fun seed ->
      let u = Sim.Checks.uniqueness ~name_space:k () in
      let sim =
        Sim.Sched.create
          ~monitor:(Sim.Checks.uniqueness_monitor u)
          layout
          (Array.init k (fun i -> (i, body)))
      in
      let outcome = Sim.Sched.run ~max_steps:500_000 sim (Sim.Sched.random (Sim.Rng.make seed)) in
      Alcotest.(check bool) "completes" true (Test_util.all_completed outcome))
    (Test_util.seeds 25);
  (* lock-freedom in practice: probes stay small under fair schedules *)
  let worst = List.fold_left max 0 !probes in
  Alcotest.(check bool) (Printf.sprintf "probes bounded (worst %d)" worst) true (worst <= 5 * k)

let () =
  Alcotest.run "tas_baseline"
    [
      ( "structure",
        [
          Alcotest.test_case "shape" `Quick test_structure;
          Alcotest.test_case "solo" `Quick test_solo;
          Alcotest.test_case "rmw semantics" `Quick test_rmw_semantics;
        ] );
      ( "concurrent",
        [
          Alcotest.test_case "exhaustive k=2" `Slow test_exhaustive_k2;
          Alcotest.test_case "uniqueness random" `Slow test_uniqueness_random;
          Alcotest.test_case "saturated k names" `Slow test_saturated;
          Alcotest.test_case "across domains" `Slow test_domains;
        ] );
    ]
