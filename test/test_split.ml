(* Theorem 2 / Figure 1: the SPLIT protocol. *)

open Shared_mem
module Split = Renaming.Split

let pow3 n = Numeric.Intmath.pow 3 n

let make ~k =
  let layout = Layout.create () in
  let sp = Split.create layout ~k in
  let work = Layout.alloc layout ~name:"work" 0 in
  (layout, sp, work)

let test_name_space () =
  List.iter
    (fun k ->
      let _, sp, _ = make ~k in
      Alcotest.(check int) (Printf.sprintf "3^(k-1) for k=%d" k) (pow3 (k - 1))
        (Split.name_space sp))
    [ 1; 2; 3; 4; 5; 8 ];
  Alcotest.check_raises "k = 0" (Invalid_argument "Split.create: k must be >= 1") (fun () ->
      ignore (make ~k:0));
  Alcotest.check_raises "k = 13" (Invalid_argument "Split.create: k > 12 needs a 3^k-node tree")
    (fun () -> ignore (make ~k:13))

let test_register_count () =
  (* (3^(k-1) - 1)/2 interior splitters, 3 registers each, +1 work. *)
  let layout, _, _ = make ~k:4 in
  Alcotest.(check int) "k=4 registers" ((13 * 3) + 1) (Layout.size layout)

let test_solo () =
  let layout, sp, _ = make ~k:4 in
  let mem = Store.seq_create layout in
  let ops = Store.seq_ops mem ~pid:123456789 in
  let lease = Split.get_name sp ops in
  let name = Split.name_of sp lease in
  Alcotest.(check bool) "name in range" true (name >= 0 && name < 27);
  (* path encodes the name, least-significant symbol first *)
  let path = Split.path_string sp lease in
  Alcotest.(check int) "path length" 3 (Array.length path);
  let encoded = ref 0 and weight = ref 1 in
  Array.iter
    (fun d ->
      encoded := !encoded + ((1 + d) * !weight);
      weight := !weight * 3)
    path;
  Alcotest.(check int) "path encodes name" name !encoded;
  Split.release_name sp ops lease;
  (* long-lived: acquire again *)
  let lease2 = Split.get_name sp ops in
  Alcotest.(check bool) "again in range" true (Split.name_of sp lease2 < 27)

let test_k1_trivial () =
  let layout, sp, _ = make ~k:1 in
  let mem = Store.seq_create layout in
  let ops = Store.seq_ops mem ~pid:7 in
  let lease = Split.get_name sp ops in
  Alcotest.(check int) "single name" 0 (Split.name_of sp lease);
  Alcotest.(check int) "no registers but work" 1 (Layout.size layout);
  Split.release_name sp ops lease

(* Uniqueness + termination under random schedules, k processes with
   huge sparse pids (S-independence). *)
let uniqueness_run ~k ~cycles ~seed =
  let layout, sp, work = make ~k in
  let procs =
    Array.init k (fun i ->
        ((i * 1_000_003) + 17, Workload.protocol_body (module Split) sp ~work ~cycles))
  in
  Test_util.run_random ~seed ~name_space:(Split.name_space sp) layout procs

let test_uniqueness_random () =
  List.iter
    (fun k ->
      List.iter
        (fun seed ->
          let outcome, _ = uniqueness_run ~k ~cycles:4 ~seed in
          Alcotest.(check bool)
            (Printf.sprintf "k=%d seed=%d completes" k seed)
            true
            (Test_util.all_completed outcome))
        (Test_util.seeds 30))
    [ 2; 3; 4; 5 ]

(* Theorem 2 cost bound: GetName <= 7(k-1), ReleaseName <= 2(k-1),
   independent of pid magnitude. *)
let test_access_bounds () =
  List.iter
    (fun k ->
      let layout, sp, work = make ~k in
      let costs = Workload.costs () in
      let procs =
        Array.init k (fun i ->
            ( (i * 999_999_937) + 3,
              Workload.protocol_body ~costs (module Split) sp ~work ~cycles:5 ))
      in
      List.iter
        (fun seed ->
          let _ =
            Test_util.run_random ~seed ~name_space:(Split.name_space sp) layout procs
          in
          ())
        (Test_util.seeds 5);
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (Printf.sprintf "get cost %d <= 7(k-1), k=%d" c k)
            true
            (c <= 7 * (k - 1)))
        costs.get;
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (Printf.sprintf "release cost %d <= 2(k-1), k=%d" c k)
            true
            (c <= 2 * (k - 1)))
        costs.release)
    [ 2; 3; 5; 7 ]

(* Exhaustive model check at k=2 (one splitter), 2 processes. *)
let test_exhaustive_k2 () =
  let builder =
    Workload.protocol_config (module Split) (fun l -> Split.create l ~k:2)
      ~pids:[| 100; 101 |] ~cycles:1
  in
  let r = Sim.Model_check.explore ~max_paths:3_000_000 builder in
  Test_util.check_no_violation "split k=2" r;
  Alcotest.(check bool) "complete" true r.complete

(* Bounded exhaustive at k=3 with 3 processes (deep corner). *)
let test_bounded_k3 () =
  let builder =
    Workload.protocol_config (module Split) (fun l -> Split.create l ~k:3)
      ~pids:[| 0; 7; 14 |] ~cycles:1
  in
  let r = Sim.Model_check.explore ~max_paths:150_000 builder in
  Test_util.check_no_violation "split k=3 bounded" r

(* Wait-freedom: crash processes mid-acquisition; the survivor still
   completes its cycles. *)
let test_crash_tolerance () =
  let k = 4 in
  let layout, sp, work = make ~k in
  let procs =
    Array.init k (fun i -> (i, Workload.protocol_body (module Split) sp ~work ~cycles:3))
  in
  let u = Sim.Checks.uniqueness ~name_space:(Split.name_space sp) () in
  let t = Sim.Sched.create ~monitor:(Sim.Checks.uniqueness_monitor u) layout procs in
  let rng = Sim.Rng.make 42 in
  let strategy st en =
    (* freeze processes 1, 2, 3 after a few of their steps — but only
       while the survivor is still running, so someone stays enabled *)
    if not (Sim.Sched.finished st 0) then
      Array.iter
        (fun i -> if i > 0 && Sim.Sched.steps_of st i >= 2 + i then Sim.Sched.pause st i)
        en;
    let en = match Sim.Sched.enabled st with [||] -> en | e -> e in
    en.(Sim.Rng.int rng (Array.length en))
  in
  let outcome = Sim.Sched.run t strategy in
  Alcotest.(check bool) "survivor done" true outcome.completed.(0);
  Alcotest.(check bool) "crashed not done" false outcome.completed.(1)

(* A get/release cycle over the sequential store allocates nothing:
   the lease and every splitter token are immediate ints.  The budget
   of 0.01 words per cycle leaves room only for the measurement. *)
let test_cycle_allocation_free () =
  List.iter
    (fun k ->
      let layout, sp, _ = make ~k in
      let ops = Store.seq_ops (Store.seq_create layout) ~pid:123_456_789 in
      Split.release_name sp ops (Split.get_name sp ops);
      let cycles = 10_000 in
      let w0 = Gc.minor_words () in
      for _ = 1 to cycles do
        Split.release_name sp ops (Split.get_name sp ops)
      done;
      let words = (Gc.minor_words () -. w0) /. float_of_int cycles in
      if words >= 0.01 then Alcotest.failf "k=%d: %.2f minor words per cycle" k words)
    [ 2; 4; 8; 12 ]

(* The packed lease, checked against what the splitters themselves
   reported.  Under a random schedule every process records the probe's
   [Exit (node, dir)] events of its GetName and the [Release node]
   events of its ReleaseName.  The lease must decode to the reported
   directions (4 bits per level, root first), the reported nodes must
   be the heap path those directions select, release must visit them
   deepest first, and the name must be Σ (1+s[i])·3^i over the path
   string, below 3^(k-1).  A failed check is counted, not raised, so
   the scheduler never sees an exception. *)
let lease_matches ~k sp lease reported =
  let path = Split.path_string sp lease in
  let name = Split.name_of sp lease in
  let rec level h node sum weight =
    if h = k - 1 then name = sum
    else
      let n, d = reported.(h) in
      n = node
      && path.(h) = d
      && ((lease lsr (4 * h)) land 3) - 1 = d
      && level (h + 1) ((3 * node) + 2 + d) (sum + ((1 + d) * weight)) (3 * weight)
  in
  Array.length reported = k - 1
  && Array.length path = k - 1
  && lease < 1 lsl (4 * (k - 1))
  && name < pow3 (k - 1)
  && level 0 0 0 1

let packing_run ~k ~seed =
  let layout, sp, work = make ~k in
  let bad = ref 0 in
  let body (ops : Store.ops) =
    let exits = ref [] and releases = ref [] in
    let ops =
      Store.probed
        (function
          | Obs.Probe.Exit (Obs.Loc.Splitter { node; _ }, d) -> exits := (node, d) :: !exits
          | Obs.Probe.Release (Obs.Loc.Splitter { node; _ }) -> releases := node :: !releases
          | _ -> ())
        ops
    in
    for _ = 1 to 2 do
      exits := [];
      releases := [];
      let lease = Split.get_name sp ops in
      let reported = Array.of_list (List.rev !exits) in
      if not (lease_matches ~k sp lease reported) then incr bad;
      let name = Split.name_of sp lease in
      Sim.Sched.emit (Sim.Event.Acquired name);
      ignore (ops.read work);
      Sim.Sched.emit (Sim.Event.Released name);
      Split.release_name sp ops lease;
      if !releases <> Array.to_list (Array.map fst reported) then incr bad
    done
  in
  let procs = Array.init (min k 4) (fun i -> ((i * 1_000_003) + 17, body)) in
  let outcome, _ =
    Test_util.run_random ~seed ~name_space:(Split.name_space sp) layout procs
  in
  Test_util.all_completed outcome && !bad = 0

let prop_packing =
  Test_util.qtest ~count:40 "packed lease decodes to the probed path"
    QCheck2.Gen.(pair (int_range 2 12) int)
    (fun (k, seed) -> packing_run ~k ~seed)

(* k = 12 fills all 44 lease bits; the generator need not draw it *)
let test_packing_k12 () =
  List.iter
    (fun seed ->
      Alcotest.(check bool) (Printf.sprintf "k=12 seed=%d" seed) true (packing_run ~k:12 ~seed))
    (Test_util.seeds 3)

(* qcheck: across random seeds and k, max simultaneous distinct holders
   never exceeds k and names stay unique (monitor enforces). *)
let prop_random_schedules =
  Test_util.qtest ~count:80 "uniqueness across random configs"
    QCheck2.Gen.(pair (int_range 2 5) int)
    (fun (k, seed) ->
      let outcome, u = uniqueness_run ~k ~cycles:3 ~seed in
      Test_util.all_completed outcome && Sim.Checks.max_concurrent u <= k)

let () =
  Alcotest.run "split"
    [
      ( "structure",
        [
          Alcotest.test_case "name space" `Quick test_name_space;
          Alcotest.test_case "register count" `Quick test_register_count;
          Alcotest.test_case "solo acquire/release" `Quick test_solo;
          Alcotest.test_case "k=1 trivial" `Quick test_k1_trivial;
          Alcotest.test_case "cycle allocates nothing" `Quick test_cycle_allocation_free;
          Alcotest.test_case "packing at k=12" `Quick test_packing_k12;
        ] );
      ( "concurrent",
        [
          Alcotest.test_case "uniqueness, random schedules" `Slow test_uniqueness_random;
          Alcotest.test_case "access bounds (Thm 2)" `Slow test_access_bounds;
          Alcotest.test_case "crash tolerance" `Quick test_crash_tolerance;
        ] );
      ( "model-check",
        [
          Alcotest.test_case "exhaustive k=2" `Slow test_exhaustive_k2;
          Alcotest.test_case "bounded k=3" `Slow test_bounded_k3;
        ] );
      ("property", [ prop_random_schedules; prop_packing ]);
    ]
