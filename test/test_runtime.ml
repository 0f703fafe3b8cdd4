(* Domains + Atomic store: the same protocol code under real
   parallelism, with the on-line uniqueness monitor. *)

open Shared_mem
module Split = Renaming.Split
module Filter = Renaming.Filter
module Ma = Renaming.Ma
module Pipeline = Renaming.Pipeline

let test_atomic_store () =
  let layout = Layout.create () in
  let a = Layout.alloc layout ~name:"a" 42 in
  let store = Runtime.Atomic_store.create layout in
  let ops = Runtime.Atomic_store.ops store ~pid:3 in
  Alcotest.(check int) "initial" 42 (ops.read a);
  ops.write a 7;
  Alcotest.(check int) "written" 7 (Runtime.Atomic_store.get store a)

(* Padded cells must stay a cache line apart once promoted: the major
   heap segregates blocks by size, so padding that is not part of the
   cell's own block does not survive [Gc.full_major].  Major-heap
   blocks do not move without [Gc.compact], so the addresses read
   after the collection are stable. *)
let test_pad_survives_promotion () =
  let pad = Runtime.Pad.create 4 0 in
  Gc.full_major ();
  let cells = Runtime.Pad.cells pad in
  (* a block pointer read as an int is its byte address halved *)
  let addr c = 2 * (Obj.magic (c : int Atomic.t) : int) in
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun j b ->
          if i < j then
            Alcotest.(check bool)
              (Printf.sprintf "cells %d and %d a line apart" i j)
              true
              (abs (addr a - addr b) >= 64))
        cells)
    cells;
  Alcotest.(check int) "length" 4 (Runtime.Pad.length pad);
  let c = cells.(1) in
  Atomic.set c 5;
  Alcotest.(check int) "set/get" 5 (Atomic.get c);
  Alcotest.(check bool) "cas hit" true (Atomic.compare_and_set c 5 6);
  Alcotest.(check bool) "cas miss" false (Atomic.compare_and_set c 5 7);
  Alcotest.(check int) "fetch_and_add returns old" 6 (Atomic.fetch_and_add c 10);
  Alcotest.(check int) "exchange returns old" 16 (Atomic.exchange c 3);
  Alcotest.(check int) "Pad.get sees the cell" 3 (Runtime.Pad.get pad 1);
  Alcotest.(check (list int)) "neighbours untouched" [ 0; 0; 0 ]
    (List.map (Runtime.Pad.get pad) [ 0; 2; 3 ])

let test_split_domains () =
  let k = 4 in
  let layout = Layout.create () in
  let sp = Split.create layout ~k in
  let pids = Array.init k (fun i -> (i * 100_003) + 1 ) in
  let r =
    Runtime.Domain_runner.run (module Split) sp ~layout ~pids ~cycles:200
      ~name_space:(Split.name_space sp)
  in
  Alcotest.(check int) "no violations" 0 r.violations;
  Array.iter (fun c -> Alcotest.(check int) "all cycles" 200 c) r.cycles_done;
  Alcotest.(check bool) "some overlap plausible" true (r.max_concurrent >= 1)

let test_filter_domains () =
  let k = 3 and d = 1 and z = 5 and s = 25 in
  let participants = [| 4; 12; 21 |] in
  let layout = Layout.create () in
  let f = Filter.create layout { k; d; z; s; participants } in
  let r =
    Runtime.Domain_runner.run (module Filter) f ~layout ~pids:participants ~cycles:150
      ~name_space:(Filter.name_space f)
  in
  Alcotest.(check int) "no violations" 0 r.violations;
  Array.iter (fun c -> Alcotest.(check int) "all cycles" 150 c) r.cycles_done

let test_ma_domains () =
  let k = 4 and s = 32 in
  let layout = Layout.create () in
  let m = Ma.create layout ~k ~s in
  let pids = Array.init k (fun i -> i * 8) in
  let r =
    Runtime.Domain_runner.run (module Ma) m ~layout ~pids ~cycles:150
      ~name_space:(Ma.name_space m)
  in
  Alcotest.(check int) "no violations" 0 r.violations;
  Array.iter (fun c -> Alcotest.(check int) "all cycles" 150 c) r.cycles_done

let test_pipeline_domains () =
  let k = 3 and s = 100_000 in
  let participants = Array.init k (fun i -> (i * 30_000) + 7 ) in
  let layout = Layout.create () in
  let p = Pipeline.create layout ~k ~s ~participants in
  let r =
    Runtime.Domain_runner.run (module Pipeline) p ~layout ~pids:participants ~cycles:100
      ~name_space:(Pipeline.name_space p)
  in
  Alcotest.(check int) "no violations" 0 r.violations;
  Array.iter (fun c -> Alcotest.(check int) "all cycles" 100 c) r.cycles_done

(* ----- real-stall fault injection ----- *)

(* One worker parks while *holding a name*: the remaining workers must
   still finish every cycle on real domains (wait-freedom under genuine
   preemption), uniqueness must hold throughout, and the parked worker
   must complete no cycle of its own. *)
let test_park_holding_domains () =
  let k = 4 in
  let layout = Layout.create () in
  let sp = Split.create layout ~k in
  let pids = Array.init k (fun i -> (i * 99_991) + 3) in
  let r =
    Runtime.Domain_runner.run
      ~faults:[ (1, Runtime.Domain_runner.Park_holding) ]
      (module Split) sp ~layout ~pids ~cycles:100 ~name_space:(Split.name_space sp)
  in
  Alcotest.(check int) "no violations" 0 r.violations;
  Alcotest.(check int) "parked worker completed no cycle" 0 r.cycles_done.(1);
  Array.iteri
    (fun i c -> if i <> 1 then Alcotest.(check int) "non-faulty all cycles" 100 c)
    r.cycles_done

let test_stall_and_slow_domains () =
  let k = 3 and s = 32 in
  let layout = Layout.create () in
  let m = Ma.create layout ~k ~s in
  let pids = Array.init k (fun i -> i * 8) in
  let r =
    Runtime.Domain_runner.run
      ~faults:
        [
          (0, Runtime.Domain_runner.Stall_holding { cycle = 10; spins = 50_000 });
          (2, Runtime.Domain_runner.Slow 500);
        ]
      (module Ma) m ~layout ~pids ~cycles:60 ~name_space:(Ma.name_space m)
  in
  Alcotest.(check int) "no violations" 0 r.violations;
  (* stalled and slow workers are delayed, not parked: everyone finishes *)
  Array.iter (fun c -> Alcotest.(check int) "all cycles" 60 c) r.cycles_done

let test_park_two_of_four () =
  (* two parked holders on the pipeline; the other two still finish *)
  let k = 4 and s = 50_000 in
  let participants = Array.init k (fun i -> (i * 12_000) + 5) in
  let layout = Layout.create () in
  let p = Pipeline.create layout ~k ~s ~participants in
  let r =
    Runtime.Domain_runner.run
      ~faults:
        [
          (1, Runtime.Domain_runner.Park_holding);
          (3, Runtime.Domain_runner.Park_holding);
        ]
      (module Pipeline) p ~layout ~pids:participants ~cycles:80
      ~name_space:(Pipeline.name_space p)
  in
  Alcotest.(check int) "no violations" 0 r.violations;
  Alcotest.(check int) "worker 1 parked" 0 r.cycles_done.(1);
  Alcotest.(check int) "worker 3 parked" 0 r.cycles_done.(3);
  Alcotest.(check int) "worker 0 finished" 80 r.cycles_done.(0);
  Alcotest.(check int) "worker 2 finished" 80 r.cycles_done.(2)

let test_all_park_raises () =
  (* every worker parked => each waits on the others forever; the
     runner must refuse instead of deadlocking *)
  let layout = Layout.create () in
  let sp = Split.create layout ~k:2 in
  let pids = [| 1; 2 |] in
  match
    Runtime.Domain_runner.run
      ~faults:
        [
          (0, Runtime.Domain_runner.Park_holding);
          (1, Runtime.Domain_runner.Park_holding);
        ]
      (module Split) sp ~layout ~pids ~cycles:10 ~name_space:(Split.name_space sp)
  with
  | (_ : Runtime.Domain_runner.result) ->
      Alcotest.fail "all-Park_holding run should raise Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ----- crashes across real domains ----- *)

let test_crash_holding_leaks () =
  (* the bare runner: a worker dying mid-hold takes its name to the
     grave and nothing brings it back *)
  let k = 3 in
  let layout = Layout.create () in
  let sp = Split.create layout ~k in
  let pids = [| 1; 2; 3 |] in
  let r =
    Runtime.Domain_runner.run
      ~faults:[ (1, Runtime.Domain_runner.Crash_holding { cycle = 2 }) ]
      (module Split) sp ~layout ~pids ~cycles:50 ~name_space:(Split.name_space sp)
  in
  Alcotest.(check int) "no violations" 0 r.violations;
  Alcotest.(check int) "one name leaked" 1 r.leaked;
  Alcotest.(check int) "nothing reclaimed" 0 r.reclaimed;
  Alcotest.(check int) "victim stopped after 2 cycles" 2 r.cycles_done.(1);
  Alcotest.(check int) "worker 0 finished" 50 r.cycles_done.(0);
  Alcotest.(check int) "worker 2 finished" 50 r.cycles_done.(2)

let test_run_per_name_breakdown () =
  (* a crash-free run's per-name scoreboard: ascending, in range, and
     every name held by one worker at a time *)
  let k = 3 and cycles = 30 in
  let pids = [| 1; 2; 3 |] in
  let layout = Layout.create () in
  let sp = Split.create layout ~k in
  let r =
    Runtime.Domain_runner.run (module Split) sp ~layout ~pids ~cycles
      ~name_space:(Split.name_space sp)
  in
  Alcotest.(check (array int)) "every worker finished" [| cycles; cycles; cycles |]
    r.cycles_done;
  Alcotest.(check int) "no violations" 0 r.violations;
  Alcotest.(check int) "no leak" 0 r.leaked;
  Alcotest.(check int) "nothing reclaimed" 0 r.reclaimed;
  Alcotest.(check bool) "no first violation" true (r.first_violation = None);
  let names = List.map fst r.max_concurrent_by_name in
  Alcotest.(check bool) "per-name breakdown sorted and in range" true
    (List.for_all (fun n -> n >= 0 && n < Split.name_space sp) names
    && List.sort compare names = names);
  Alcotest.(check bool) "per-name marks are clean" true
    (List.for_all (fun (_, m) -> m = 1) r.max_concurrent_by_name)

let () =
  Alcotest.run "runtime"
    [
      ( "store",
        [
          Alcotest.test_case "atomic store" `Quick test_atomic_store;
          Alcotest.test_case "padding survives promotion" `Quick
            test_pad_survives_promotion;
        ] );
      ( "domains",
        [
          Alcotest.test_case "split across domains" `Slow test_split_domains;
          Alcotest.test_case "filter across domains" `Slow test_filter_domains;
          Alcotest.test_case "ma across domains" `Slow test_ma_domains;
          Alcotest.test_case "pipeline across domains" `Slow test_pipeline_domains;
        ] );
      ( "faults",
        [
          Alcotest.test_case "parked holder, others wait-free" `Slow
            test_park_holding_domains;
          Alcotest.test_case "stall + slow lane" `Slow test_stall_and_slow_domains;
          Alcotest.test_case "two parked of four" `Slow test_park_two_of_four;
          Alcotest.test_case "all parked rejected" `Quick test_all_park_raises;
        ] );
      ( "crash",
        [
          Alcotest.test_case "bare crash leaks" `Slow test_crash_holding_leaks;
          Alcotest.test_case "per-name breakdown" `Slow test_run_per_name_breakdown;
        ] );
    ]
