(* Protocol combinators and the Theorem 11 pipeline. *)

open Shared_mem
module Protocol = Renaming.Protocol
module Pipeline = Renaming.Pipeline
module Params = Renaming.Params
module Ma = Renaming.Ma
module Split = Renaming.Split

(* ----- Params ----- *)

let test_choose () =
  List.iter
    (fun (k, s) ->
      let p = Params.choose ~k ~s in
      Alcotest.(check bool)
        (Printf.sprintf "valid for k=%d s=%d" k s)
        true
        (Params.satisfies ~k ~s p))
    [ (2, 4); (3, 100); (4, 512); (5, 10_000); (8, 1_000_000); (12, 3_000_000) ]

let test_choose_shrinks () =
  (* for reasonable k, one FILTER application shrinks big spaces *)
  List.iter
    (fun (k, s) ->
      let p = Params.choose ~k ~s in
      Alcotest.(check bool)
        (Printf.sprintf "D < S for k=%d s=%d" k s)
        true
        (Params.name_space ~k p < s))
    [ (3, 200); (4, 1_000); (6, 100_000) ]

let test_regimes () =
  List.iter
    (fun (r : Params.regime) ->
      List.iter
        (fun k ->
          let s = r.source ~k in
          let p = r.params ~k in
          Alcotest.(check bool)
            (Printf.sprintf "%s: valid params k=%d" r.label k)
            true
            (Params.satisfies ~k ~s p);
          Alcotest.(check bool)
            (Printf.sprintf "%s: D=%d within paper bound %d (k=%d)" r.label
               (Params.name_space ~k p) (r.space_bound ~k) k)
            true
            (Params.name_space ~k p <= r.space_bound ~k))
        [ 2; 3; 4; 6; 8 ])
    Params.regimes

let prop_ceil_root =
  Test_util.qtest "ceil_root is the least root"
    QCheck2.Gen.(pair (int_range 1 1_000_000) (int_range 1 6))
    (fun (s, m) ->
      let r = Numeric.Intmath.ceil_root s m in
      Numeric.Intmath.pow_ge r m s && (r = 1 || not (Numeric.Intmath.pow_ge (r - 1) m s)))

(* ----- Chain combinator ----- *)

module Chain_split_ma = Protocol.Chain (Split) (Ma)

let test_chain_static () =
  let layout = Layout.create () in
  let sp = Split.create layout ~k:3 in
  let ma = Ma.create layout ~k:3 ~s:(Split.name_space sp) in
  let c = Chain_split_ma.make sp ma in
  Alcotest.(check int) "chained name space" 6 (Chain_split_ma.name_space c);
  let mem = Store.seq_create layout in
  let ops = Store.seq_ops mem ~pid:987654321 in
  let lease = Chain_split_ma.get_name c ops in
  Alcotest.(check bool) "name in final space" true (Chain_split_ma.name_of c lease < 6);
  Chain_split_ma.release_name c ops lease;
  let lease2 = Chain_split_ma.get_name c ops in
  Alcotest.(check bool) "long-lived" true (Chain_split_ma.name_of c lease2 < 6)

let test_chain_any () =
  let layout = Layout.create () in
  let sp = Split.create layout ~k:3 in
  let ma = Ma.create layout ~k:3 ~s:(Split.name_space sp) in
  let chained =
    Protocol.chain_all
      [ Protocol.Any.pack (module Split) sp; Protocol.Any.pack (module Ma) ma ]
  in
  Alcotest.(check int) "dynamic chain name space" 6 (Protocol.Any.name_space chained);
  let mem = Store.seq_create layout in
  let ops = Store.seq_ops mem ~pid:42 in
  let lease = Protocol.Any.get_name chained ops in
  Alcotest.(check bool) "in range" true (Protocol.Any.name_of chained lease < 6);
  Protocol.Any.release_name chained ops lease;
  Alcotest.check_raises "empty pipeline" (Invalid_argument "Protocol.chain_all: empty pipeline")
    (fun () -> ignore (Protocol.chain_all []))

(* Chained uniqueness under concurrency: the composite must still hand
   out unique names even while stages recycle intermediate names. *)
let test_chain_uniqueness () =
  let build_procs ~cycles =
    let layout = Layout.create () in
    let sp = Split.create layout ~k:3 in
    let ma = Ma.create layout ~k:3 ~s:(Split.name_space sp) in
    let c = Chain_split_ma.make sp ma in
    let work = Layout.alloc layout ~name:"work" 0 in
    let procs =
      Array.init 3 (fun i ->
          ( (i * 1_000_000) + 999,
            Workload.protocol_body (module Chain_split_ma) c ~work ~cycles ))
    in
    (layout, procs)
  in
  List.iter
    (fun seed ->
      let layout, procs = build_procs ~cycles:4 in
      let outcome, u = Test_util.run_random ~seed ~name_space:6 layout procs in
      Alcotest.(check bool) "completes" true (Test_util.all_completed outcome);
      Alcotest.(check bool) "concurrent <= 3" true (Sim.Checks.max_concurrent u <= 3))
    (Test_util.seeds 40)

(* ----- Pipeline ----- *)

let test_pipeline_stages () =
  let layout = Layout.create () in
  let p =
    Pipeline.create layout ~k:3 ~s:1_000_000
      ~participants:[| 5; 999_999; 123_456 |]
  in
  let st = Pipeline.stages p in
  Alcotest.(check bool) "at least 2 stages" true (List.length st >= 2);
  (match st with
  | first :: _ -> Alcotest.(check string) "starts with split" "split" first.Pipeline.kind
  | [] -> Alcotest.fail "no stages");
  let rec connected = function
    | a :: (b : Pipeline.stage_info) :: rest ->
        Alcotest.(check int) "stage spaces connect" a.Pipeline.dest b.Pipeline.source;
        connected (b :: rest)
    | [ last ] -> Alcotest.(check int) "ends at k(k+1)/2" 6 last.Pipeline.dest
    | [] -> ()
  in
  connected st;
  Alcotest.(check int) "name space" 6 (Pipeline.name_space p)

let test_pipeline_small_source () =
  (* source space already tiny: single MA stage *)
  let layout = Layout.create () in
  let p = Pipeline.create layout ~k:3 ~s:5 ~participants:[| 0; 2; 4 |] in
  Alcotest.(check int) "one stage" 1 (List.length (Pipeline.stages p));
  Alcotest.(check int) "names" 6 (Pipeline.name_space p)

let test_pipeline_solo () =
  let layout = Layout.create () in
  let p = Pipeline.create layout ~k:2 ~s:100_000 ~participants:[| 54_321 |] in
  let mem = Store.seq_create layout in
  let ops = Store.seq_ops mem ~pid:54_321 in
  let lease = Pipeline.get_name p ops in
  Alcotest.(check bool) "name in k(k+1)/2" true (Pipeline.name_of p lease < 3);
  Pipeline.release_name p ops lease;
  let lease2 = Pipeline.get_name p ops in
  Alcotest.(check bool) "long-lived" true (Pipeline.name_of p lease2 < 3)

let pipeline_run ~k ~s ~cycles ~seed =
  let participants = Array.init k (fun i -> i * (s / k)) in
  let layout = Layout.create () in
  let p = Pipeline.create layout ~k ~s ~participants in
  let work = Layout.alloc layout ~name:"work" 0 in
  let procs =
    Array.map (fun pid -> (pid, Workload.protocol_body (module Pipeline) p ~work ~cycles))
      participants
  in
  Test_util.run_random ~seed ~name_space:(Pipeline.name_space p) layout procs

let test_pipeline_uniqueness () =
  List.iter
    (fun seed ->
      let outcome, u = pipeline_run ~k:3 ~s:50_000 ~cycles:3 ~seed in
      Alcotest.(check bool) "completes" true (Test_util.all_completed outcome);
      Alcotest.(check bool) "names within 6" true (Sim.Checks.max_name u < 6))
    (Test_util.seeds 15)

(* The headline property: pipeline cost is independent of S.  The exact
   same protocol structure (and hence the same worst-case access count)
   serves S = 10^4 and S = 10^8. *)
let test_s_independence () =
  let measure ~s ~seed =
    let k = 3 in
    let participants = Array.init k (fun i -> (i * (s / k)) + (s / 7)) in
    let layout = Layout.create () in
    let p = Pipeline.create layout ~k ~s ~participants in
    let work = Layout.alloc layout ~name:"work" 0 in
    let costs = Workload.costs () in
    let procs =
      Array.map
        (fun pid ->
          ( pid,
            Workload.protocol_body ~costs (module Pipeline) p ~work ~cycles:3 ))
        participants
    in
    let _ = Test_util.run_random ~seed ~name_space:(Pipeline.name_space p) layout procs in
    List.fold_left max 0 costs.get
  in
  let small = List.map (fun seed -> measure ~s:10_000 ~seed) (Test_util.seeds 8) in
  let big = List.map (fun seed -> measure ~s:100_000_000 ~seed) (Test_util.seeds 8) in
  let wmax l = List.fold_left max 0 l in
  Alcotest.(check bool)
    (Printf.sprintf "worst cost at S=10^8 (%d) within 1.5x of S=10^4 (%d)" (wmax big)
       (wmax small))
    true
    (float_of_int (wmax big) <= 1.5 *. float_of_int (max 1 (wmax small)))

(* k = 6 is the smallest k whose pipeline includes a FILTER stage
   (below that, Params.choose cannot shrink 3^(k-1) further and the
   pipeline degenerates to SPLIT -> MA). *)
let test_pipeline_with_filter_stage () =
  let layout = Layout.create () in
  let p = Pipeline.create layout ~k:6 ~s:1_000_000 ~participants:[| 1; 500_000; 999_999 |] in
  let kinds = List.map (fun (s : Pipeline.stage_info) -> s.kind) (Pipeline.stages p) in
  Alcotest.(check (list string)) "split -> filter -> ma" [ "split"; "filter"; "ma" ] kinds;
  Alcotest.(check int) "final space 21" 21 (Pipeline.name_space p)

let test_pipeline_uniqueness_k6 () =
  List.iter
    (fun seed ->
      let outcome, u = pipeline_run ~k:6 ~s:1_000_000 ~cycles:2 ~seed in
      Alcotest.(check bool) "completes" true (Test_util.all_completed outcome);
      Alcotest.(check bool) "names within 21" true (Sim.Checks.max_name u < 21))
    (Test_util.seeds 8)

(* Wait-freedom regression under adversarial parking: a full SPLIT →
   FILTER → MA pipeline (k = 6 is the smallest k with a FILTER stage)
   at maximum contention, with five of the six processes parked at
   staggered depths — one splitter visit (7 accesses) apart, i.e. one
   process frozen inside each successive level of the SPLIT tree.  The
   lone unparked process must still finish every cycle, and uniqueness
   must hold even though parked processes sit on names forever. *)
let test_parked_per_tree_level () =
  let k = 6 and s = 1_000_000 and cycles = 2 in
  let plan =
    List.init (k - 1) (fun j ->
        {
          Sim.Faults.victim = j + 1;
          trigger = Sim.Faults.At_access (7 * (j + 1));
          action = Sim.Faults.Park;
        })
  in
  List.iter
    (fun seed ->
      let participants = Array.init k (fun i -> i * (s / k)) in
      let layout = Layout.create () in
      let p = Pipeline.create layout ~k ~s ~participants in
      let work = Layout.alloc layout ~name:"work" 0 in
      let procs =
        Array.map
          (fun pid -> (pid, Workload.protocol_body (module Pipeline) p ~work ~cycles))
          participants
      in
      let u = Sim.Checks.uniqueness ~name_space:(Pipeline.name_space p) () in
      let ctrl = Sim.Faults.controller plan in
      let monitor =
        Sim.Checks.combine [ Sim.Checks.uniqueness_monitor u; Sim.Faults.monitor ctrl ]
      in
      let t = Sim.Sched.create ~monitor layout procs in
      let outcome =
        Sim.Faults.run ~max_steps:200_000 ctrl t (Sim.Sched.random (Sim.Rng.make seed))
      in
      Sim.Sched.abort t;
      Alcotest.(check bool) "within the wait-freedom budget" false outcome.truncated;
      Alcotest.(check bool) "unparked process finished" true outcome.completed.(0);
      Alcotest.(check int) "all five victims parked" 5
        (List.length (Sim.Faults.parked ctrl));
      Alcotest.(check bool) "names stayed in the final space" true
        (Sim.Checks.max_name u < Pipeline.name_space p))
    (Test_util.seeds 10)

(* Chain must release innermost-first: the process still holds its
   stage-A name (its identity inside B) while releasing in B.  Witness
   via the execution trace: every access of B's release precedes every
   access of A's release. *)
let test_chain_release_order () =
  let layout = Layout.create () in
  let sp = Split.create layout ~k:2 in
  (* remember which registers belong to stage A (split) *)
  let split_registers = Layout.size layout in
  let ma = Ma.create layout ~k:2 ~s:(Split.name_space sp) in
  let c = Chain_split_ma.make sp ma in
  let tr = Sim.Trace.create () in
  let phase = ref "get" in
  let body (ops : Store.ops) =
    let lease = Chain_split_ma.get_name c ops in
    Sim.Sched.emit (Sim.Event.Note ("release_starts", 0));
    phase := "release";
    Chain_split_ma.release_name c ops lease
  in
  let monitor = Sim.Checks.combine [ Sim.Trace.monitor tr ] in
  let t = Sim.Sched.create ~monitor layout [| (12345, body) |] in
  let (_ : Sim.Sched.outcome) = Sim.Sched.run t Sim.Sched.round_robin in
  (* scan the trace: after release starts, all MA (stage B) accesses
     must come before the first split (stage A) access *)
  let releasing = ref false and seen_split_release = ref false in
  List.iter
    (fun item ->
      match item with
      | Sim.Trace.Emitted { event = Sim.Event.Note ("release_starts", _); _ } ->
          releasing := true
      | Sim.Trace.Access { access; _ } when !releasing ->
          let cell_id =
            match access with
            | Sim.Sched.Read (cl, _) | Sim.Sched.Write (cl, _) -> Cell.id cl
            | Sim.Sched.Update (cl, _, _) -> Cell.id cl
          in
          let is_split = cell_id < split_registers in
          if is_split then seen_split_release := true
          else
            Alcotest.(check bool) "no B-release access after A-release began" false
              !seen_split_release
      | _ -> ())
    (Sim.Trace.items tr);
  Alcotest.(check bool) "stage A was released too" true !seen_split_release

(* Params.plan must mirror Pipeline.create exactly and its worst-case
   bound must dominate the measured costs. *)
let test_plan_mirrors_pipeline () =
  List.iter
    (fun (k, s) ->
      let plan = Params.plan ~k ~s in
      let layout = Layout.create () in
      let p = Pipeline.create layout ~k ~s ~participants:(Array.init (min k s) (fun i -> i * (s / k))) in
      let stages = Pipeline.stages p in
      Alcotest.(check (list string))
        (Printf.sprintf "stage kinds k=%d s=%d" k s)
        (List.map (fun (st : Pipeline.stage_info) -> st.kind) stages)
        (List.map (fun (st : Params.stage_plan) -> st.stage) plan);
      List.iter2
        (fun (st : Pipeline.stage_info) (pl : Params.stage_plan) ->
          Alcotest.(check int) "source" st.source pl.stage_source;
          Alcotest.(check int) "dest" st.dest pl.stage_dest)
        stages plan;
      Alcotest.(check bool)
        "register prediction dominates reality"
        true
        (Layout.size layout <= Params.plan_registers plan))
    [ (2, 10); (3, 1_000); (4, 50_000); (6, 1_000_000); (8, 4_000) ]

let test_plan_bounds_measured_cost () =
  let k = 6 and s = 100_000 in
  let plan = Params.plan ~k ~s in
  let bound = Params.plan_worst_get plan in
  let participants = Array.init k (fun i -> (i * (s / k)) + 11) in
  let layout = Layout.create () in
  let p = Pipeline.create layout ~k ~s ~participants in
  let work = Layout.alloc layout ~name:"work" 0 in
  let costs = Workload.costs () in
  let procs =
    Array.map
      (fun pid ->
        ( pid,
          Workload.protocol_body ~costs (module Pipeline) p ~work ~cycles:2 ))
      participants
  in
  List.iter
    (fun seed ->
      let _ = Test_util.run_random ~seed ~name_space:(Pipeline.name_space p) layout procs in
      ())
    (Test_util.seeds 6);
  List.iter
    (fun c ->
      Alcotest.(check bool) (Printf.sprintf "measured %d <= planned %d" c bound) true (c <= bound))
    costs.get

(* Random hand-built chains through the dynamic combinator: any
   well-typed stage sequence must preserve uniqueness and land names in
   the final stage's space. *)
let prop_random_chains =
  Test_util.qtest ~count:40 "random Any-chains preserve uniqueness"
    QCheck2.Gen.(
      let* k = int_range 2 4 in
      let* s = int_range 30 800 in
      let* n_filters = int_range 0 2 in
      let* use_ma = bool in
      let* seed = int in
      return (k, s, n_filters, use_ma, seed))
    (fun (k, s, n_filters, use_ma, seed) ->
      let layout = Layout.create () in
      let stages = ref [] in
      let cur = ref s in
      for _ = 1 to n_filters do
        let p = Params.choose ~k ~s:!cur in
        let d = Params.name_space ~k p in
        (* only add the stage if it genuinely shrinks the space *)
        if d < !cur then begin
          let f =
            Renaming.Filter.create layout
              {
                k;
                d = p.d;
                z = p.z;
                s = !cur;
                participants = Array.init !cur Fun.id;
              }
          in
          stages := Protocol.Any.pack (module Renaming.Filter) f :: !stages;
          cur := d
        end
      done;
      if use_ma || !stages = [] then begin
        let m = Ma.create layout ~k ~s:!cur in
        stages := Protocol.Any.pack (module Ma) m :: !stages;
        cur := k * (k + 1) / 2
      end;
      let chained = Protocol.chain_all (List.rev !stages) in
      let d_final = Protocol.Any.name_space chained in
      let work = Layout.alloc layout ~name:"work" 0 in
      let pids = Array.init k (fun i -> i * (s / k)) in
      let procs =
        Array.map
          (fun pid ->
            (pid, Workload.protocol_body (module Protocol.Any) chained ~work ~cycles:2))
          pids
      in
      let outcome, u = Test_util.run_random ~seed ~name_space:d_final layout procs in
      d_final = !cur && Test_util.all_completed outcome
      && Sim.Checks.max_concurrent u <= k)

let prop_pipeline_random =
  Test_util.qtest ~count:15 "pipeline uniqueness across random configs"
    QCheck2.Gen.(
      let* k = int_range 2 4 in
      let* s = int_range 1_000 200_000 in
      let* seed = int in
      return (k, s, seed))
    (fun (k, s, seed) ->
      let outcome, u = pipeline_run ~k ~s ~cycles:2 ~seed in
      Test_util.all_completed outcome && Sim.Checks.max_name u < k * (k + 1) / 2)

let () =
  Alcotest.run "pipeline"
    [
      ( "params",
        [
          Alcotest.test_case "choose satisfies requirements" `Quick test_choose;
          Alcotest.test_case "choose shrinks the space" `Quick test_choose_shrinks;
          Alcotest.test_case "the five 4.4 regimes" `Quick test_regimes;
        ] );
      ( "chain",
        [
          Alcotest.test_case "static chain" `Quick test_chain_static;
          Alcotest.test_case "dynamic chain" `Quick test_chain_any;
          Alcotest.test_case "chained uniqueness" `Slow test_chain_uniqueness;
          Alcotest.test_case "innermost-first release order" `Quick test_chain_release_order;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "stage structure" `Quick test_pipeline_stages;
          Alcotest.test_case "tiny source space" `Quick test_pipeline_small_source;
          Alcotest.test_case "solo" `Quick test_pipeline_solo;
          Alcotest.test_case "uniqueness" `Slow test_pipeline_uniqueness;
          Alcotest.test_case "k=6 includes a filter stage" `Quick
            test_pipeline_with_filter_stage;
          Alcotest.test_case "k=6 uniqueness" `Slow test_pipeline_uniqueness_k6;
          Alcotest.test_case "parked process per tree level" `Slow
            test_parked_per_tree_level;
          Alcotest.test_case "S-independence" `Slow test_s_independence;
          Alcotest.test_case "plan mirrors pipeline" `Quick test_plan_mirrors_pipeline;
          Alcotest.test_case "plan bounds measured cost" `Slow test_plan_bounds_measured_cost;
        ] );
      ("property", [ prop_ceil_root; prop_pipeline_random; prop_random_chains ]);
    ]
