open Shared_mem
module Splitter = Renaming.Splitter
module Split = Renaming.Split
module Pf_mutex = Renaming.Pf_mutex
module Tournament = Renaming.Tournament
module Filter = Renaming.Filter
module Ma = Renaming.Ma
module Params = Renaming.Params
module Pipeline = Renaming.Pipeline

type report = {
  id : string;
  title : string;
  claim : string;
  tables : (string * Stats.table) list;
  notes : string list;
  ok : bool;
}

(* Metrics sink for the whole suite: the CLI's [--metrics] installs a
   registry here and every harness measurement below feeds it. *)
let metrics : Obs.Registry.t option ref = ref None
let set_metrics r = metrics := r

let spf = Printf.sprintf
let yn b = if b then "yes" else "NO"
let istr = string_of_int
let f1 v = spf "%.1f" v
let f2 v = spf "%.2f" v

(* ------------------------------------------------------------------ *)
(* E1: splitter occupancy (Theorem 5)                                  *)
(* ------------------------------------------------------------------ *)

let e1_splitter_occupancy () =
  let occs = ref [] in
  let builder ~procs ~cycles () : Sim.Model_check.config =
    let layout = Layout.create () in
    let sp = Splitter.create layout in
    let work = Layout.alloc layout ~name:"work" 0 in
    let o = Sim.Checks.occupancy () in
    occs := o :: !occs;
    {
      layout;
      procs =
        Array.init procs (fun p ->
            ((p * 7919) + 1, Workload.splitter_body (module Splitter) sp ~work ~cycles));
      monitor = Sim.Checks.occupancy_monitor o;
    }
  in
  let tbl =
    Stats.table [ "configuration"; "schedules"; "max users"; "worst set occupancy"; "ok" ]
  in
  let all_ok = ref true in
  let record label (result : Sim.Model_check.result) =
    let users = List.fold_left (fun a o -> max a (Sim.Checks.occupancy_users_max o)) 0 !occs in
    let worst =
      List.fold_left
        (fun a o -> List.fold_left (fun a d -> max a (Sim.Checks.occupancy_set_max o d)) a [ -1; 0; 1 ])
        0 !occs
    in
    let ok = result.violation = None in
    if not ok then all_ok := false;
    Stats.add_row tbl [ label; istr result.paths; istr users; istr worst; yn ok ];
    occs := []
  in
  record "2 procs x 1 cycle, exhaustive"
    (Sim.Model_check.explore ~max_paths:5_000_000 (builder ~procs:2 ~cycles:1));
  record "2 procs x 2 cycles, DFS corner (200k paths)"
    (Sim.Model_check.explore ~max_paths:200_000 (builder ~procs:2 ~cycles:2));
  record "3 procs x 3 cycles, 2000 random schedules"
    (Sim.Model_check.sample ~seeds:(Harness.seeds 2000) (builder ~procs:3 ~cycles:3));
  record "4 procs x 3 cycles, 1200 random schedules"
    (Sim.Model_check.sample ~seeds:(Harness.seeds 1200) (builder ~procs:4 ~cycles:3));
  record "5 procs x 4 cycles, 800 random schedules"
    (Sim.Model_check.sample ~seeds:(Harness.seeds 800) (builder ~procs:5 ~cycles:4));
  {
    id = "e1";
    title = "Splitter output-set occupancy";
    claim =
      "Theorem 5: if at most l processes use a splitter concurrently, every output set \
       holds at most l-1 of them at any time.";
    tables = [ ("occupancy under exhaustive and random schedules", tbl) ];
    notes =
      [
        "The monitor checks the prefix-closed form online: an output set holding c >= 2 \
         processes requires the users high-water mark to be at least c+1.";
      ];
    ok = !all_ok;
  }

(* ------------------------------------------------------------------ *)
(* E2: SPLIT costs (Theorem 2)                                         *)
(* ------------------------------------------------------------------ *)

let e2_split_costs () =
  let tbl =
    Stats.table
      [ "k"; "D=3^(k-1)"; "get max"; "7(k-1)"; "get mean"; "rel max"; "2(k-1)"; "ok" ]
  in
  let all_ok = ref true in
  let points = ref [] in
  List.iter
    (fun k ->
      let layout = Layout.create () in
      let sp = Split.create layout ~k in
      let work = Layout.alloc layout ~name:"work" 0 in
      let pids = Array.init k (fun i -> (i * 999_999_937) + 13) in
      let costs =
        Harness.measure_protocol ?registry:!metrics (module Split) sp ~layout ~work ~pids ~cycles:4
          ~seeds:(Harness.seeds 8) ~name_space:(Split.name_space sp)
      in
      let gmax = Harness.imax costs.get and rmax = Harness.imax costs.release in
      let ok = gmax <= 7 * (k - 1) && rmax <= 2 * (k - 1) in
      if not ok then all_ok := false;
      points := (float_of_int k, float_of_int gmax) :: !points;
      Stats.add_row tbl
        [
          istr k;
          istr (Split.name_space sp);
          istr gmax;
          istr (7 * (k - 1));
          f1 (Harness.imean costs.get);
          istr rmax;
          istr (2 * (k - 1));
          yn ok;
        ])
    [ 2; 3; 4; 5; 6; 7; 8 ];
  let slope, _ = Stats.linear_fit !points in
  (* S-independence: same seeds, pids of wildly different magnitude ->
     executions depend only on pid (in)equality, so costs match exactly. *)
  let run_with pids =
    let layout = Layout.create () in
    let sp = Split.create layout ~k:5 in
    let work = Layout.alloc layout ~name:"work" 0 in
    let c =
      Harness.measure_protocol ?registry:!metrics (module Split) sp ~layout ~work ~pids ~cycles:3
        ~seeds:(Harness.seeds 5) ~name_space:(Split.name_space sp)
    in
    List.sort compare c.get
  in
  let small = run_with (Array.init 5 (fun i -> i)) in
  let huge = run_with (Array.init 5 (fun i -> (i * 987_654_321_987) + 5)) in
  let s_independent = small = huge in
  if not s_independent then all_ok := false;
  {
    id = "e2";
    title = "SPLIT renaming cost";
    claim =
      "Theorem 2: SPLIT implements wait-free long-lived renaming to 3^(k-1) names in O(k) \
       accesses, independent of S and n.";
    tables = [ ("cost vs k (4 cycles x 8 random schedules per k)", tbl) ];
    notes =
      [
        spf "fitted slope of worst GetName cost: %.2f accesses per unit k (linear, as claimed)"
          slope;
        spf "S-independence: cost distributions for pids <5 and pids ~10^12 identical: %s"
          (yn s_independent);
      ];
    ok = !all_ok;
  }

(* ------------------------------------------------------------------ *)
(* E3: two-process mutex and tournament trees (Lemma 6)                *)
(* ------------------------------------------------------------------ *)

let e3_mutex () =
  let tbl = Stats.table [ "scenario"; "schedules"; "result" ] in
  let all_ok = ref true in
  let mc label result =
    (match (result : Sim.Model_check.result).violation with
    | None -> Stats.add_row tbl [ label; istr result.paths; "exclusion holds" ]
    | Some v ->
        all_ok := false;
        Stats.add_row tbl [ label; istr result.paths; spf "VIOLATION: %s" v.message ])
  in
  let builder ?retries ~cycles () =
    Workload.mutex_config ?retries (module Pf_mutex) Pf_mutex.create ~cycles ()
  in
  mc "exhaustive, 1 cycle, <=3 retries" (Sim.Model_check.explore (builder ~retries:3 ~cycles:1));
  mc "DFS corner, 2 cycles (500k paths)"
    (Sim.Model_check.explore ~max_paths:500_000 (builder ~retries:2 ~cycles:2));
  mc "spinning, 25 cycles, 3000 random schedules"
    (Sim.Model_check.sample ~seeds:(Harness.seeds 3000) (builder ~cycles:25));
  let tournament () : Sim.Model_check.config =
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
        ignore (Store.read ops work);
        Sim.Sched.emit (Sim.Event.Note ("cs_exit", input));
        Tournament.release t ops pos
      done
    in
    {
      layout;
      procs = Array.of_list (List.map (fun i -> (i, body i)) [ 0; 3; 5; 6 ]);
      monitor = Sim.Checks.exclusion ();
    }
  in
  mc "8-input tournament, 4 procs, 1000 random schedules"
    (Sim.Model_check.sample ~seeds:(Harness.seeds 1000) tournament);
  (* FIFO handover, deterministic call-level schedule *)
  let fifo_tbl = Stats.table [ "step"; "expected"; "observed"; "ok" ] in
  let layout = Layout.create () in
  let b = Pf_mutex.create layout in
  let mem = Store.seq_create layout in
  let p = Store.seq_ops mem ~pid:0 and q = Store.seq_ops mem ~pid:1 in
  let expect label exp obs =
    if exp <> obs then all_ok := false;
    Stats.add_row fifo_tbl [ label; string_of_bool exp; string_of_bool obs; yn (exp = obs) ]
  in
  let sp = Pf_mutex.enter b p ~dir:0 in
  let sq = Pf_mutex.enter b q ~dir:1 in
  expect "first entrant in CS" true (Pf_mutex.check b p ~dir:0 sp);
  expect "second entrant defers" false (Pf_mutex.check b q ~dir:1 sq);
  Pf_mutex.release b p ~dir:0 sp;
  let sp' = Pf_mutex.enter b p ~dir:0 in
  expect "waiter proceeds after release" true (Pf_mutex.check b q ~dir:1 sq);
  expect "re-entrant yields (FIFO)" false (Pf_mutex.check b p ~dir:0 sp');
  {
    id = "e3";
    title = "Two-process mutex blocks and tournament trees";
    claim =
      "Lemma 6 / Figure 3: each ME block excludes its two directions; the FIFO handover \
       property drives Lemma 7's progress argument; tournament roots are owned by at most \
       one process.";
    tables =
      [ ("model checking", tbl); ("FIFO handover (deterministic schedule)", fifo_tbl) ];
    notes =
      [
        "Enter costs exactly 4 shared accesses, matching the count stated in Theorem 10's \
         proof; Check costs 1.";
      ];
    ok = !all_ok;
  }

(* ------------------------------------------------------------------ *)
(* E4: FILTER costs (Theorem 10)                                       *)
(* ------------------------------------------------------------------ *)

let filter_instance ~k ~d ~z ~s ~procs =
  let layout = Layout.create () in
  let participants = Array.init procs (fun i -> ((i * (s / procs)) + (s / (procs + 3))) mod s) in
  let f = Filter.create layout { k; d; z; s; participants } in
  let work = Layout.alloc layout ~name:"work" 0 in
  (layout, f, work, participants)

let e4_filter_costs () =
  let all_ok = ref true in
  let k_tbl =
    Stats.table
      [
        "k"; "S=2k^4"; "d"; "z"; "D"; "72k^2"; "checks max"; "6d(k-1)logS"; "get max";
        "blocks"; "k*2d(k-1)*logS"; "ok";
      ]
  in
  List.iter
    (fun k ->
      let s = 2 * k * k * k * k in
      let (p : Params.filter_params) =
        match List.nth_opt Params.regimes 4 with
        | Some r -> r.params ~k
        | None -> assert false
      in
      let layout, f, work, participants = filter_instance ~k ~d:p.d ~z:p.z ~s ~procs:k in
      let m =
        Harness.measure_filter ?registry:!metrics f ~layout ~work ~pids:participants ~cycles:3
          ~seeds:(Harness.seeds 6)
      in
      let levels = Numeric.Intmath.ceil_log2 s in
      let bound = 6 * p.d * (k - 1) * levels in
      let cmax = Harness.imax m.checks in
      (* space: only blocks on participants' paths are allocated *)
      let space_bound = k * 2 * p.d * (k - 1) * levels in
      let ok =
        cmax <= bound && Filter.name_space f <= 72 * k * k
        && Filter.blocks_allocated f <= space_bound
      in
      if not ok then all_ok := false;
      Stats.add_row k_tbl
        [
          istr k;
          istr s;
          istr p.d;
          istr p.z;
          istr (Filter.name_space f);
          istr (72 * k * k);
          istr cmax;
          istr bound;
          istr (Harness.imax m.fc.get);
          istr (Filter.blocks_allocated f);
          istr space_bound;
          yn ok;
        ])
    [ 2; 3; 4; 5; 6 ];
  let s_tbl =
    Stats.table [ "S"; "levels"; "z"; "D"; "get max"; "checks max"; "bound"; "ok" ]
  in
  let pts = ref [] in
  List.iter
    (fun s ->
      let k = 3 and d = 1 in
      let z =
        Numeric.Primes.next_prime
          (max (2 * d * (k - 1)) (Numeric.Intmath.ceil_root s (d + 1)))
      in
      let layout, f, work, participants = filter_instance ~k ~d ~z ~s ~procs:3 in
      let m =
        Harness.measure_filter ?registry:!metrics f ~layout ~work ~pids:participants ~cycles:3
          ~seeds:(Harness.seeds 6)
      in
      let levels = Numeric.Intmath.ceil_log2 s in
      let bound = 6 * d * (k - 1) * levels in
      let cmax = Harness.imax m.checks in
      let gmax = Harness.imax m.fc.get in
      if cmax > bound then all_ok := false;
      pts := (float_of_int levels, float_of_int gmax) :: !pts;
      Stats.add_row s_tbl
        [
          istr s; istr levels; istr z;
          istr (Filter.name_space f);
          istr gmax; istr cmax; istr bound;
          yn (cmax <= bound);
        ])
    [ 16; 256; 4096; 65536 ];
  let slope, _ = Stats.linear_fit !pts in
  {
    id = "e4";
    title = "FILTER renaming cost";
    claim =
      "Theorem 10: FILTER renames to 2dz(k-1) names; a process acquires a name within \
       6d(k-1)ceil(log S) mutex checks, so time is O(dk log S).";
    tables =
      [
        ("k sweep at the S<=2k^4 regime (3 cycles x 6 schedules)", k_tbl);
        ("S sweep at k=3, d=1 (cost grows with log S only)", s_tbl);
      ];
    notes =
      [
        spf
          "S sweep: worst GetName cost grows %.1f accesses per tree level (i.e. per doubling \
           of S) - logarithmic in S, as claimed"
          slope;
      ];
    ok = !all_ok;
  }

(* ------------------------------------------------------------------ *)
(* E5: the 4.4 regime table                                            *)
(* ------------------------------------------------------------------ *)

let e5_regimes () =
  let tbl =
    Stats.table
      [ "regime"; "k"; "S"; "d"; "z"; "D"; "paper bound"; "time"; "get max"; "ok" ]
  in
  let all_ok = ref true in
  List.iter
    (fun (r : Params.regime) ->
      List.iter
        (fun k ->
          let s = r.source ~k in
          let (p : Params.filter_params) = r.params ~k in
          let procs = min k s in
          let layout, f, work, participants = filter_instance ~k ~d:p.d ~z:p.z ~s ~procs in
          let m =
            Harness.measure_filter ?registry:!metrics f ~layout ~work ~pids:participants ~cycles:2
              ~seeds:(Harness.seeds 3)
          in
          let d_ok = Filter.name_space f <= r.space_bound ~k in
          let valid = Params.satisfies ~k ~s p in
          if not (d_ok && valid) then all_ok := false;
          Stats.add_row tbl
            [
              r.label;
              istr k;
              istr s;
              istr p.d;
              istr p.z;
              istr (Filter.name_space f);
              istr (r.space_bound ~k);
              r.time_label;
              istr (Harness.imax m.fc.get);
              yn (d_ok && valid);
            ])
        [ 2; 4; 6; 8 ])
    Params.regimes;
  {
    id = "e5";
    title = "The 4.4 parameter regimes";
    claim =
      "Section 4.4: for each relationship between S and k, the stated (d, z) satisfy \
       requirements (1) and (2) and give a destination name space within the stated bound.";
    tables = [ ("regimes x k, with measured worst GetName cost", tbl) ];
    notes =
      [
        "D is the exact 2dz(k-1) of the constructed instance; the paper bound column is the \
         closed form the paper quotes for the regime.";
      ];
    ok = !all_ok;
  }

(* ------------------------------------------------------------------ *)
(* E6: MA baseline vs the Theorem 11 pipeline                          *)
(* ------------------------------------------------------------------ *)

let e6_ma_vs_pipeline () =
  let tbl =
    Stats.table
      [ "k"; "S"; "MA get max"; "pipeline get max"; "pipeline stages"; "winner" ]
  in
  let all_ok = ref true in
  let flat_costs = Hashtbl.create 8 in
  List.iter
    (fun k ->
      List.iter
        (fun s ->
          let pids = Array.init k (fun i -> (i * (s / k)) + (s / 11)) in
          let ma_max =
            let layout = Layout.create () in
            let m = Ma.create layout ~k ~s in
            let work = Layout.alloc layout ~name:"work" 0 in
            let c =
              Harness.measure_protocol ?registry:!metrics (module Ma) m ~layout ~work ~pids ~cycles:2
                ~seeds:(Harness.seeds 2) ~name_space:(Ma.name_space m)
            in
            Harness.imax c.get
          in
          let pipe_max, stages =
            let layout = Layout.create () in
            let p = Pipeline.create layout ~k ~s ~participants:pids in
            let work = Layout.alloc layout ~name:"work" 0 in
            let c =
              Harness.measure_protocol ?registry:!metrics (module Pipeline) p ~layout ~work ~pids
                ~cycles:2 ~seeds:(Harness.seeds 2) ~name_space:(Pipeline.name_space p)
            in
            ( Harness.imax c.get,
              String.concat "+"
                (List.map (fun (st : Pipeline.stage_info) -> st.kind) (Pipeline.stages p)) )
          in
          Hashtbl.replace flat_costs (k, s) (ma_max, pipe_max);
          Stats.add_row tbl
            [
              istr k;
              istr s;
              istr ma_max;
              istr pipe_max;
              stages;
              (if ma_max < pipe_max then "MA"
               else if pipe_max < ma_max then "pipeline"
               else "tie");
            ])
        [ 64; 512; 4096; 16384 ])
    [ 4; 6 ];
  (* The shape claim, per k: above the tiny-S regime (where the
     pipeline degenerates to a bare MA stage and ties by construction)
     the pipeline's cost must be flat — equal worst cost at S=4096 and
     S=16384 up to 1.5x — and it must beat MA at the largest S. *)
  List.iter
    (fun k ->
      let _, p_mid = Hashtbl.find flat_costs (k, 4096) in
      let ma_big, p_big = Hashtbl.find flat_costs (k, 16384) in
      if float_of_int p_big > 1.5 *. float_of_int (max 1 p_mid) then all_ok := false;
      if ma_big <= p_big then all_ok := false)
    [ 4; 6 ];
  {
    id = "e6";
    title = "Fast pipeline vs the non-fast MA baseline";
    claim =
      "Introduction + Theorem 11: MA costs O(kS) and is not fast; the SPLIT/FILTER/MA \
       pipeline renames any S to k(k+1)/2 names in O(k^3), independent of S.";
    tables = [ ("worst GetName accesses (2 cycles x 2 schedules)", tbl) ];
    notes =
      [
        "ok-criterion: pipeline worst cost flat between S=4096 and S=16384 (within 1.5x) \
         and below MA at S=16384; at tiny S the pipeline correctly degenerates to a bare \
         MA stage (tie).";
      ];
    ok = !all_ok;
  }

(* ------------------------------------------------------------------ *)
(* E7: cover-free families (Proposition 8)                             *)
(* ------------------------------------------------------------------ *)

let e7_cover_free () =
  let tbl =
    Stats.table
      [ "k"; "d"; "z"; "pairs"; "max |Np^Nq|"; "d"; "min free"; "d(k-1)"; "ok" ]
  in
  let all_ok = ref true in
  let rng = Sim.Rng.make 0xC0FFEE in
  List.iter
    (fun (k, d, exhaustive) ->
      let z = Numeric.Primes.next_prime (2 * d * (k - 1)) in
      let t = Numeric.Cover_free.create ~k ~d ~z () in
      let universe = Numeric.Intmath.pow z (d + 1) in
      let pairs =
        if exhaustive then
          List.concat_map
            (fun p -> List.filter_map (fun q -> if p < q then Some (p, q) else None)
                (List.init universe Fun.id))
            (List.init universe Fun.id)
        else
          List.init 3000 (fun _ ->
              (Sim.Rng.int rng universe, Sim.Rng.int rng universe))
          |> List.filter (fun (p, q) -> p <> q)
      in
      let max_inter =
        List.fold_left (fun a (p, q) -> max a (Numeric.Cover_free.intersection t p q)) 0 pairs
      in
      let min_free = ref max_int in
      for _ = 1 to 400 do
        let p = Sim.Rng.int rng universe in
        let others = List.init (k - 1) (fun _ -> Sim.Rng.int rng universe) in
        let others = List.filter (fun q -> q <> p) others in
        let free = List.length (Numeric.Cover_free.free_names t p others) in
        if free < !min_free then min_free := free
      done;
      let ok = max_inter <= d && !min_free >= d * (k - 1) in
      if not ok then all_ok := false;
      Stats.add_row tbl
        [
          istr k; istr d; istr z;
          (if exhaustive then spf "%d (all)" (List.length pairs) else spf "%d (random)" (List.length pairs));
          istr max_inter; istr d;
          istr !min_free; istr (d * (k - 1));
          yn ok;
        ])
    [ (3, 1, true); (2, 2, true); (4, 2, false); (6, 3, false) ];
  {
    id = "e7";
    title = "Cover-free name families";
    claim =
      "Section 4.1 / Proposition 8: distinct processes share at most d names, so against \
       any k-1 adversaries at least d(k-1) of a process's 2d(k-1) names are free.";
    tables = [ ("intersection and free-name bounds", tbl) ];
    notes = [ "free-name trials: 400 random (p, adversary-set) draws per configuration" ];
    ok = !all_ok;
  }

(* ------------------------------------------------------------------ *)
(* E8: z >= 2d(k-1) vs the tight z > d(k-1) (4.1 remark)               *)
(* ------------------------------------------------------------------ *)

let e8_z_ablation () =
  let tbl =
    Stats.table
      [
        "variant"; "z"; "trees/proc"; "D"; "min free trees";
        "rounds max"; "rounds mean"; "checks max"; "get max";
      ]
  in
  let k = 4 and d = 2 and s = 125 in
  (* Worst guaranteed-free-tree count: for random processes p, pick the
     k-1 adversaries greedily (among random candidates) to cover as
     much of N_p as possible, and take the minimum leftover. *)
  let min_free_trees fam =
    let rng = Sim.Rng.make 0xAB1A7E in
    let worst = ref max_int in
    for _ = 1 to 300 do
      let p = Sim.Rng.int rng s in
      let chosen = ref [] in
      for _ = 1 to k - 1 do
        let best = ref (-1) and best_free = ref max_int in
        for _ = 1 to 60 do
          let q = Sim.Rng.int rng s in
          if q <> p && not (List.mem q !chosen) then begin
            let free =
              List.length (Numeric.Cover_free.free_names fam p (q :: !chosen))
            in
            if free < !best_free then begin
              best_free := free;
              best := q
            end
          end
        done;
        if !best >= 0 then chosen := !best :: !chosen
      done;
      let free = List.length (Numeric.Cover_free.free_names fam p !chosen) in
      if free < !worst then worst := free
    done;
    !worst
  in
  let measure ~tight ~z =
    let layout = Layout.create () in
    let participants = [| 7; 48; 77; 111 |] in
    let f = Filter.create ~tight layout { k; d; z; s; participants } in
    let work = Layout.alloc layout ~name:"work" 0 in
    let m =
      Harness.measure_filter ?registry:!metrics f ~layout ~work ~pids:participants ~cycles:4
        ~seeds:(Harness.seeds 12)
    in
    let fam = Filter.family f in
    let free = min_free_trees fam in
    Stats.add_row tbl
      [
        (if tight then spf "tight   z > d(k-1)" else spf "paper   z >= 2d(k-1)");
        istr z;
        istr (Numeric.Cover_free.set_size fam);
        istr (Filter.name_space f);
        istr free;
        istr (Harness.imax m.rounds);
        f2 (Harness.imean m.rounds);
        istr (Harness.imax m.checks);
        istr (Harness.imax m.fc.get);
      ];
    (Filter.name_space f, free)
  in
  let d_paper, free_paper = measure ~tight:false ~z:13 in
  let d_tight, free_tight = measure ~tight:true ~z:7 in
  {
    id = "e8";
    title = "Ablation: modulus bound z >= 2d(k-1) vs z > d(k-1)";
    claim =
      "Section 4.1 remark: requiring only z > d(k-1) still guarantees one free name \
       (smaller D), while z >= 2d(k-1) guarantees d(k-1) free names (better time bound).";
    tables = [ ("k=4, d=2, S=125, 4 procs, 4 cycles x 12 schedules", tbl) ];
    notes =
      [
        spf "name space: tight %d vs paper %d (smaller, as predicted)" d_tight d_paper;
        spf
          "worst-case free trees under greedy adversaries: tight %d (>= 1 guaranteed) vs \
           paper %d (>= d(k-1) = %d guaranteed) - the time/space trade-off"
          free_tight free_paper
          (2 * (k - 1));
        "rounds under random schedules rarely exceed 1: a process with any \
         contention-free tree climbs it to the root within its first round";
      ];
    ok =
      d_tight < d_paper && free_tight >= 1 && free_paper >= 2 * (k - 1)
      && free_tight <= free_paper;
  }

(* ------------------------------------------------------------------ *)
(* E9: crash tolerance (wait-freedom)                                  *)
(* ------------------------------------------------------------------ *)

let e9_crash_tolerance () =
  let tbl =
    Stats.table
      [ "protocol"; "procs"; "crashed"; "survivor cycles"; "survivor get max"; "ok" ]
  in
  let all_ok = ref true in
  let crash_run (type a) (module P : Renaming.Protocol.S with type t = a) label (inst : a)
      ~layout ~work ~pids ~name_space =
    let cycles = 3 in
    (* the survivor's own costs; its release count is its completed
       cycles *)
    let survivor = Workload.costs () in
    let body i =
      Workload.protocol_body
        ?costs:(if i = 0 then Some survivor else None)
        (module P) inst ~work ~cycles
    in
    let u = Sim.Checks.uniqueness ~name_space () in
    let t =
      Sim.Sched.create
        ~monitor:(Sim.Checks.uniqueness_monitor u)
        layout
        (Array.mapi (fun i pid -> (pid, body i)) pids)
    in
    let rng = Sim.Rng.make 0xDEAD in
    let strategy st en =
      if not (Sim.Sched.finished st 0) then
        Array.iter
          (fun i -> if i > 0 && Sim.Sched.steps_of st i >= (4 * i) + 1 then Sim.Sched.pause st i)
          en;
      let en = match Sim.Sched.enabled st with [||] -> en | e -> e in
      en.(Sim.Rng.int rng (Array.length en))
    in
    let outcome = Sim.Sched.run ~max_steps:5_000_000 t strategy in
    let crashed =
      Array.length (Array.of_list (List.filter (fun i -> not outcome.completed.(i))
           (List.init (Array.length pids) Fun.id)))
    in
    let done_cycles = List.length survivor.release in
    let ok = outcome.completed.(0) && done_cycles = cycles && not outcome.truncated in
    if not ok then all_ok := false;
    Stats.add_row tbl
      [
        label;
        istr (Array.length pids);
        istr crashed;
        spf "%d/%d" done_cycles cycles;
        istr (Harness.imax survivor.get);
        yn ok;
      ]
  in
  (let layout = Layout.create () in
   let sp = Split.create layout ~k:4 in
   let work = Layout.alloc layout ~name:"work" 0 in
   crash_run (module Split) "split (k=4)" sp ~layout ~work
     ~pids:(Array.init 4 (fun i -> i * 1001))
     ~name_space:(Split.name_space sp));
  (let layout = Layout.create () in
   let participants = [| 3; 11; 19 |] in
   let f = Filter.create layout { k = 3; d = 1; z = 5; s = 25; participants } in
   let work = Layout.alloc layout ~name:"work" 0 in
   crash_run (module Filter) "filter (k=3, S=25)" f ~layout ~work ~pids:participants
     ~name_space:(Filter.name_space f));
  (let layout = Layout.create () in
   let m = Ma.create layout ~k:3 ~s:12 in
   let work = Layout.alloc layout ~name:"work" 0 in
   crash_run (module Ma) "ma (k=3, S=12)" m ~layout ~work ~pids:[| 0; 5; 10 |]
     ~name_space:(Ma.name_space m));
  (let layout = Layout.create () in
   let pids = [| 123; 45_678; 99_999 |] in
   let p = Pipeline.create layout ~k:3 ~s:100_000 ~participants:pids in
   let work = Layout.alloc layout ~name:"work" 0 in
   crash_run (module Pipeline) "pipeline (k=3, S=1e5)" p ~layout ~work ~pids
     ~name_space:(Pipeline.name_space p));
  {
    id = "e9";
    title = "Crash tolerance (wait-freedom)";
    claim =
      "All protocols are wait-free: processes frozen mid-operation (holding splitter slots \
       and mutex positions forever) cannot prevent the survivor from acquiring names.";
    tables = [ ("all-but-one processes frozen mid-operation", tbl) ];
    notes = [];
    ok = !all_ok;
  }

(* ------------------------------------------------------------------ *)
(* E10: per-round progress in FILTER (Lemma 9)                         *)
(* ------------------------------------------------------------------ *)

let e10_filter_rounds () =
  let k = 3 and d = 1 and z = 5 and s = 25 in
  (* Part 1: measure under heavy adversarial contention - a starved
     victim against opponents engineered to intersect it. *)
  let family = Numeric.Cover_free.create ~k ~d ~z () in
  let victim = 7 in
  let set_size = Numeric.Cover_free.set_size family in
  let covered q =
    let free = Numeric.Cover_free.free_names family victim [ q ] in
    List.filter (fun x -> not (List.mem x free)) (List.init set_size Fun.id)
  in
  let by_tree = Array.make set_size [] in
  List.iter
    (fun q -> if q <> victim then List.iter (fun x -> by_tree.(x) <- q :: by_tree.(x)) (covered q))
    (List.init s Fun.id);
  let picks =
    List.concat_map (fun x -> List.filteri (fun i _ -> i < 4) by_tree.(x))
      (List.init set_size Fun.id)
    |> List.sort_uniq compare
  in
  let slot_pool i = Array.of_list (List.filteri (fun j _ -> j mod 2 = i) picks) in
  let pool1 = slot_pool 0 and pool2 = slot_pool 1 in
  let participants = Array.of_list (victim :: (Array.to_list pool1 @ Array.to_list pool2)) in
  let layout = Layout.create () in
  let f = Filter.create layout { k; d; z; s; participants } in
  let work = Layout.alloc layout ~name:"work" 0 in
  let victim_done = Layout.alloc layout ~name:"victim_done" 0 in
  let rounds = ref [] and checks = ref [] and advances = ref [] in
  let victim_body ops =
    Workload.protocol_body
      ~on_get:(fun lease ->
        rounds := Filter.rounds lease :: !rounds;
        checks := Filter.checks lease :: !checks;
        advances := Filter.advances lease :: !advances)
      (module Filter) f ~work ~cycles:6 ops;
    Store.write ops victim_done 1
  in
  let opponent_body pool (ops : Store.ops) =
    let c = ref 0 in
    while Store.read ops victim_done = 0 do
      let ops = Store.with_pid ops pool.(!c mod Array.length pool) in
      incr c;
      let lease = Filter.get_name f ops in
      Sim.Sched.emit (Sim.Event.Acquired (Filter.name_of f lease));
      for _ = 1 to 3 do
        ignore (Store.read ops work)
      done;
      Sim.Sched.emit (Sim.Event.Released (Filter.name_of f lease));
      Filter.release_name f ops lease
    done
  in
  List.iter
    (fun seed ->
      let u = Sim.Checks.uniqueness ~name_space:(Filter.name_space f) () in
      let t =
        Sim.Sched.create
          ~monitor:(Sim.Checks.uniqueness_monitor u)
          layout
          [| (victim, victim_body); (pool1.(0), opponent_body pool1);
             (pool2.(0), opponent_body pool2) |]
      in
      let rng = Sim.Rng.make seed in
      let starving st en =
        ignore st;
        if Array.length en = 1 then en.(0)
        else if Array.exists (Int.equal 0) en && Sim.Rng.int rng 25 = 0 then 0
        else
          let others = Array.of_list (List.filter (fun i -> i <> 0) (Array.to_list en)) in
          if Array.length others = 0 then 0
          else others.(Sim.Rng.int rng (Array.length others))
      in
      let outcome = Sim.Sched.run ~max_steps:5_000_000 t starving in
      if outcome.truncated then
        raise (Sim.Model_check.Violation "e10 run exceeded its step budget"))
    (Harness.seeds 80);
  (* Part 2: schedule synthesis - search *all* interleavings of the
     minimal instance for any schedule that forces a second round.
     The DFS flags such a schedule as a "violation", so finding none
     is bounded-exhaustive evidence that first-pass acquisition is
     guaranteed there. *)
  let synth_builder () : Sim.Model_check.config =
    let layout = Layout.create () in
    let f = Filter.create layout { k = 2; d = 1; z = 2; s = 4; participants = [| 0; 2; 3 |] } in
    let work = Layout.alloc layout ~name:"work" 0 in
    let second_round lease =
      if Filter.rounds lease > 1 then
        raise (Sim.Model_check.Violation "second round reached")
    in
    let body rotate pid0 (ops : Store.ops) =
      List.iter
        (fun pid ->
          Workload.protocol_body ~on_get:second_round (module Filter) f ~work ~cycles:1
            (Store.with_pid ops pid))
        (if rotate then [ pid0; (if pid0 = 2 then 3 else 2) ] else [ pid0; pid0 ])
    in
    {
      layout;
      procs = [| (0, body false 0); (2, body true 2) |];
      monitor = Sim.Sched.no_monitor;
    }
  in
  let synth = Sim.Model_check.explore ~max_steps:4_000 ~max_paths:400_000 synth_builder in
  let hist = Hashtbl.create 8 in
  List.iter
    (fun r -> Hashtbl.replace hist r (1 + Option.value ~default:0 (Hashtbl.find_opt hist r)))
    !rounds;
  let tbl = Stats.table [ "rounds to acquire"; "acquisitions (starved victim)" ] in
  List.iter
    (fun r ->
      match Hashtbl.find_opt hist r with
      | Some n -> Stats.add_row tbl [ istr r; istr n ]
      | None -> ())
    (List.init 20 (fun i -> i + 1));
  let min_later = ref max_int and min_first = ref max_int and rounds_seen = ref 0 in
  List.iter
    (fun advs ->
      List.iteri
        (fun i a ->
          incr rounds_seen;
          if i = 0 then min_first := min !min_first a else min_later := min !min_later a)
        advs)
    !advances;
  let bound = d * (k - 1) in
  let later_ok = !min_later = max_int || !min_later >= bound in
  let levels = Numeric.Intmath.ceil_log2 s in
  let checks_bound = 6 * d * (k - 1) * levels in
  let cmax = Harness.imax !checks in
  let checks_ok = cmax <= checks_bound in
  let blocking_seen = cmax > levels in
  let prog = Stats.table [ "quantity"; "measured"; "bound"; "ok" ] in
  Stats.add_row prog
    [
      "min advances, completed rounds >= 2";
      (if !min_later = max_int then "(none observed)" else istr !min_later);
      spf ">= %d" bound;
      yn later_ok;
    ];
  Stats.add_row prog
    [ "max checks per acquisition"; istr cmax; spf "<= %d" checks_bound; yn checks_ok ];
  Stats.add_row prog
    [
      "failed checks observed (intra-round blocking)";
      yn blocking_seen;
      spf "> %d straight-climb checks" levels;
      yn blocking_seen;
    ];
  Stats.add_row prog
    [
      "schedule forcing a 2nd round (bounded search)";
      (match synth.violation with Some _ -> "found" | None -> "none");
      spf "%d schedules searched" synth.paths;
      "-";
    ];
  {
    id = "e10";
    title = "Per-round progress in FILTER";
    claim =
      "Lemma 9: while a process has not acquired a name, each round advances it in at \
       least d(k-1) trees; hence Theorem 10's 6d(k-1)ceil(log S) check bound.";
    tables =
      [
        ("rounds-to-acquire, starved victim vs engineered opponents (80 runs)", tbl);
        ("progress bounds", prog);
      ];
    notes =
      [
        spf "completed (non-acquiring) rounds observed: %d" !rounds_seen;
        "Finding: every acquisition completed in its first pass, under random, starved and \
         engineered-adversarial schedules, and a bounded-exhaustive search of the minimal \
         instance finds no schedule forcing a second round.  A band-x tree can only be \
         contested by an opponent pushed to its own position x, and the intersection bound \
         caps such chains below the set size - so the Lemma 9 / Theorem 10 bounds hold \
         with large slack in this implementation (blocking shows up as failed checks \
         within the first pass instead).";
      ];
    ok = later_ok && checks_ok && blocking_seen;
  }

(* ------------------------------------------------------------------ *)
(* E11: one-time vs long-lived renaming                                *)
(* ------------------------------------------------------------------ *)

let e11_one_time () =
  let tbl =
    Stats.table
      [ "k"; "one-time get max"; "4k"; "split get max"; "ma get max (S=256)"; "ok" ]
  in
  let all_ok = ref true in
  List.iter
    (fun k ->
      (* one-time grid *)
      let ot_max =
        let layout = Layout.create () in
        let ot = Renaming.One_time.create layout ~k in
        let costs = ref [] in
        let body (ops : Store.ops) =
          let c = Store.counter () in
          let counted = Store.counting c ops in
          let name = Renaming.One_time.get_name ot counted in
          costs := Store.accesses c :: !costs;
          Sim.Sched.emit (Sim.Event.Acquired name)
        in
        List.iter
          (fun seed ->
            let u = Sim.Checks.uniqueness ~name_space:(Renaming.One_time.name_space ot) () in
            let t =
              Sim.Sched.create
                ~monitor:(Sim.Checks.uniqueness_monitor u)
                layout
                (Array.init k (fun i -> (i * 13, body)))
            in
            ignore (Sim.Sched.run t (Sim.Sched.random (Sim.Rng.make seed))))
          (Harness.seeds 8);
        Harness.imax !costs
      in
      (* long-lived SPLIT *)
      let split_max =
        let layout = Layout.create () in
        let sp = Split.create layout ~k in
        let work = Layout.alloc layout ~name:"work" 0 in
        let c =
          Harness.measure_protocol ?registry:!metrics (module Split) sp ~layout ~work
            ~pids:(Array.init k (fun i -> i * 13))
            ~cycles:3 ~seeds:(Harness.seeds 4) ~name_space:(Split.name_space sp)
        in
        Harness.imax c.get
      in
      (* long-lived MA at a moderate S *)
      let ma_max =
        let s = 256 in
        let layout = Layout.create () in
        let m = Ma.create layout ~k ~s in
        let work = Layout.alloc layout ~name:"work" 0 in
        let c =
          Harness.measure_protocol ?registry:!metrics (module Ma) m ~layout ~work
            ~pids:(Array.init k (fun i -> i * (s / k)))
            ~cycles:2 ~seeds:(Harness.seeds 3) ~name_space:(Ma.name_space m)
        in
        Harness.imax c.get
      in
      let ok = ot_max <= 4 * k && ot_max < ma_max in
      if not ok then all_ok := false;
      Stats.add_row tbl
        [ istr k; istr ot_max; istr (4 * k); istr split_max; istr ma_max; yn ok ])
    [ 2; 3; 4; 6; 8 ];
  {
    id = "e11";
    title = "One-time vs long-lived renaming";
    claim =
      "Section 1 context: one-time renaming to k(k+1)/2 names costs O(k) with reads and \
       writes (the Moir-Anderson one-shot grid); making renaming long-lived with reads and \
       writes is what costs - the prior art (MA) pays Theta(kS), and this paper's \
       contribution is recovering S-independence.";
    tables = [ ("worst GetName accesses", tbl) ];
    notes =
      [
        "one-time names can never be released: the Y bits never reset.  SPLIT is long-lived \
         and S-independent but yields 3^(k-1) names; MA is long-lived with k(k+1)/2 names \
         but scans S presence bits per block.";
      ];
    ok = !all_ok;
  }

(* ------------------------------------------------------------------ *)
(* E12: the read/write restriction - Test&Set baseline                 *)
(* ------------------------------------------------------------------ *)

let e12_primitive_strength () =
  let tbl =
    Stats.table
      [
        "k"; "T&S names"; "r/w lower bound 2k-1"; "pipeline names";
        "T&S get max"; "pipeline get max";
      ]
  in
  let all_ok = ref true in
  List.iter
    (fun k ->
      let s = 4096 in
      let pids = Array.init k (fun i -> (i * (s / k)) + 1) in
      let tas_names, tas_max =
        let layout = Layout.create () in
        let t = Renaming.Tas_baseline.create layout ~k in
        let work = Layout.alloc layout ~name:"work" 0 in
        let c =
          Harness.measure_protocol ?registry:!metrics (module Renaming.Tas_baseline) t ~layout ~work ~pids
            ~cycles:4 ~seeds:(Harness.seeds 6)
            ~name_space:(Renaming.Tas_baseline.name_space t)
        in
        (Renaming.Tas_baseline.name_space t, Harness.imax c.get)
      in
      let pipe_names, pipe_max =
        let layout = Layout.create () in
        let p = Pipeline.create layout ~k ~s ~participants:pids in
        let work = Layout.alloc layout ~name:"work" 0 in
        let c =
          Harness.measure_protocol ?registry:!metrics (module Pipeline) p ~layout ~work ~pids
            ~cycles:2 ~seeds:(Harness.seeds 3) ~name_space:(Pipeline.name_space p)
        in
        (Pipeline.name_space p, Harness.imax c.get)
      in
      let ok = tas_names = k && tas_names < (2 * k) - 1 && tas_max < pipe_max in
      if not ok then all_ok := false;
      Stats.add_row tbl
        [
          istr k; istr tas_names; istr ((2 * k) - 1); istr pipe_names;
          istr tas_max; istr pipe_max;
        ])
    [ 3; 4; 6; 8 ];
  {
    id = "e12";
    title = "The cost of the read/write restriction (Test&Set baseline)";
    claim =
      "Section 1 + Section 5: with Test&Set, fast long-lived renaming to k names is easy \
       (below the Herlihy-Shavit 2k-1 lower bound for read/write protocols); the paper's \
       contribution is achieving fastness with reads and writes only, at the price of a \
       k(k+1)/2 name space and a larger constant.";
    tables = [ ("stronger primitive vs read/write pipeline (S=4096)", tbl) ];
    notes =
      [
        "the T&S baseline is lock-free rather than wait-free (a requester can in principle \
         be starved by rivals cycling names); the read/write protocols are wait-free - \
         strength of primitive is traded against both name-space size and cost.";
      ];
    ok = !all_ok;
  }

(* ------------------------------------------------------------------ *)
(* E13: which names actually get used (beyond the paper)               *)
(* ------------------------------------------------------------------ *)

let e13_name_distribution () =
  let tbl =
    Stats.table
      [ "protocol"; "D"; "distinct used"; "top name"; "top share"; "acquisitions" ]
  in
  let measure (type a) label (module P : Renaming.Protocol.S with type t = a) (inst : a)
      ~layout ~work ~pids =
    let freq = Hashtbl.create 32 in
    let total = ref 0 in
    let body (ops : Store.ops) =
      for _ = 1 to 6 do
        let lease = P.get_name inst ops in
        let n = P.name_of inst lease in
        Hashtbl.replace freq n (1 + Option.value ~default:0 (Hashtbl.find_opt freq n));
        incr total;
        Sim.Sched.emit (Sim.Event.Acquired n);
        ignore (Store.read ops work);
        Sim.Sched.emit (Sim.Event.Released n);
        P.release_name inst ops lease
      done
    in
    List.iter
      (fun seed ->
        let u = Sim.Checks.uniqueness ~name_space:(P.name_space inst) () in
        let t =
          Sim.Sched.create
            ~monitor:(Sim.Checks.uniqueness_monitor u)
            layout
            (Array.map (fun pid -> (pid, body)) pids)
        in
        ignore (Sim.Sched.run ~max_steps:10_000_000 t (Sim.Sched.random (Sim.Rng.make seed))))
      (Harness.seeds 10);
    let top_name, top_count =
      Hashtbl.fold (fun n c ((_, bc) as best) -> if c > bc then (n, c) else best) freq (-1, 0)
    in
    Stats.add_row tbl
      [
        label;
        istr (P.name_space inst);
        istr (Hashtbl.length freq);
        istr top_name;
        spf "%.0f%%" (100.0 *. float_of_int top_count /. float_of_int (max 1 !total));
        istr !total;
      ]
  in
  let k = 4 in
  (let layout = Layout.create () in
   let sp = Split.create layout ~k in
   let work = Layout.alloc layout ~name:"work" 0 in
   measure "split" (module Split) sp ~layout ~work ~pids:(Array.init k (fun i -> i * 7)));
  (let layout = Layout.create () in
   let pids = [| 17; 170; 340; 500 |] in
   let f = Filter.create layout { k; d = 3; z = 29; s = 512; participants = pids } in
   let work = Layout.alloc layout ~name:"work" 0 in
   measure "filter" (module Filter) f ~layout ~work ~pids);
  (let layout = Layout.create () in
   let m = Ma.create layout ~k ~s:64 in
   let work = Layout.alloc layout ~name:"work" 0 in
   measure "ma" (module Ma) m ~layout ~work ~pids:(Array.init k (fun i -> i * 16)));
  (let layout = Layout.create () in
   let t = Renaming.Tas_baseline.create layout ~k in
   let work = Layout.alloc layout ~name:"work" 0 in
   measure "tas" (module Renaming.Tas_baseline) t ~layout ~work
     ~pids:(Array.init k (fun i -> i * 16)));
  {
    id = "e13";
    title = "Destination-name locality (beyond the paper)";
    claim =
      "Not a paper claim - an implementation observation: protocols differ sharply in \
       which destination names they hand out, which matters when names index caches or \
       pre-allocated slots downstream.";
    tables = [ ("k=4 churn, 10 random schedules", tbl) ];
    notes =
      [
        "MA and SPLIT funnel uncontended traffic to low names (grid origin / all-advice \
         paths); FILTER scatters by the polynomial hash; T&S spreads by pid offset.  A \
         skewed distribution means better slot-cache locality but more contention on the \
         hot name's registers.";
      ];
    ok = true;
  }

(* ------------------------------------------------------------------ *)

let all =
  [
    ("e1", "Splitter output-set occupancy (Thm 5)", e1_splitter_occupancy);
    ("e2", "SPLIT cost, O(k) and S-independent (Thm 2)", e2_split_costs);
    ("e3", "Mutex exclusion and FIFO (Lemma 6/7)", e3_mutex);
    ("e4", "FILTER cost, O(dk log S) (Thm 10)", e4_filter_costs);
    ("e5", "The 4.4 parameter regime table", e5_regimes);
    ("e6", "MA baseline vs fast pipeline (Thm 11)", e6_ma_vs_pipeline);
    ("e7", "Cover-free families (Prop 8)", e7_cover_free);
    ("e8", "Ablation: modulus bound (4.1 remark)", e8_z_ablation);
    ("e9", "Crash tolerance / wait-freedom", e9_crash_tolerance);
    ("e10", "FILTER per-round progress (Lemma 9)", e10_filter_rounds);
    ("e11", "One-time vs long-lived renaming", e11_one_time);
    ("e12", "Read/write restriction vs Test&Set", e12_primitive_strength);
    ("e13", "Destination-name locality (beyond the paper)", e13_name_distribution);
  ]

let find id =
  List.find_map (fun (i, _, f) -> if String.equal i id then Some f else None) all

let pp_report ppf r =
  Format.fprintf ppf "@.=== %s: %s ===@." (String.uppercase_ascii r.id) r.title;
  Format.fprintf ppf "claim: %s@." r.claim;
  List.iter
    (fun (caption, tbl) -> Format.fprintf ppf "@.-- %s --@.%s@." caption (Stats.render tbl))
    r.tables;
  List.iter (fun n -> Format.fprintf ppf "note: %s@." n) r.notes;
  Format.fprintf ppf "RESULT: %s@." (if r.ok then "OK" else "FAILED")
