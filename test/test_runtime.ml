(* Domains + Atomic store: the same protocol code under real
   parallelism, with the on-line uniqueness monitor.  Bare protocol
   runs go through [Churn.run_bare], the one-shard, cold-only name
   server. *)

open Shared_mem
module Split = Renaming.Split
module Filter = Renaming.Filter
module Ma = Renaming.Ma
module Pipeline = Renaming.Pipeline
module Any = Renaming.Protocol.Any

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
  let pad = Pad.create 4 0 in
  Gc.full_major ();
  let cells = Pad.cells pad in
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
  Alcotest.(check int) "length" 4 (Pad.length pad);
  let c = cells.(1) in
  Atomic.set c 5;
  Alcotest.(check int) "set/get" 5 (Atomic.get c);
  Alcotest.(check bool) "cas hit" true (Atomic.compare_and_set c 5 6);
  Alcotest.(check bool) "cas miss" false (Atomic.compare_and_set c 5 7);
  Alcotest.(check int) "fetch_and_add returns old" 6 (Atomic.fetch_and_add c 10);
  Alcotest.(check int) "exchange returns old" 16 (Atomic.exchange c 3);
  Alcotest.(check int) "Pad.get sees the cell" 3 (Pad.get pad 1);
  Alcotest.(check (list int)) "neighbours untouched" [ 0; 0; 0 ]
    (List.map (Pad.get pad) [ 0; 2; 3 ])

(* A padded copy is the original, field by field, in a block at least
   two lines long with a line's worth of spare words after the fields;
   writes through it land in the copy, and two copies' fields stay a
   line apart once promoted. *)
type padded_probe = { tag : int; mutable name : string; mutable hits : int list }
type shape = Plain | Pair of int * string

let test_copy_as_padded () =
  let r = { tag = 1; name = "x"; hits = [ 2; 3 ] } in
  let p = Pad.copy_as_padded r and p' = Pad.copy_as_padded r in
  let o = Obj.repr r and q = Obj.repr p in
  Alcotest.(check int) "same tag" (Obj.tag o) (Obj.tag q);
  for i = 0 to Obj.size o - 1 do
    Alcotest.(check bool) (Printf.sprintf "field %d is the original's" i) true
      (Obj.field o i == Obj.field q i)
  done;
  Alcotest.(check bool) "spans at least two lines" true
    (Obj.size q + 1 >= 2 * Pad.line_words);
  Alcotest.(check bool) "a line of spare words after the fields" true
    (Obj.size q - Obj.size o >= Pad.line_words - 1);
  p.name <- "y";
  p.hits <- [];
  Gc.full_major ();
  Alcotest.(check string) "write visible through the copy" "y" p.name;
  Alcotest.(check (list int)) "second write visible" [] p.hits;
  Alcotest.(check string) "original untouched" "x" r.name;
  Alcotest.(check int) "immutable field kept" 1 p.tag;
  let addr x = 2 * (Obj.magic x : int) in
  Alcotest.(check bool) "two copies' fields a line apart" true
    (abs (addr p - addr p') >= 8 * (Obj.size o + Pad.line_words));
  (* a block longer than a line, and a constructor with a tag of its own *)
  let big = Obj.repr (Pad.copy_as_padded (Array.init 20 Fun.id)) in
  Alcotest.(check bool) "long block: fields kept, spare line added" true
    (Obj.size big >= 20 + Pad.line_words - 1
    && List.for_all (fun i -> (Obj.obj (Obj.field big i) : int) = i) (List.init 20 Fun.id));
  (match Pad.copy_as_padded (Pair (4, "four")) with
  | Pair (4, "four") -> ()
  | Pair _ | Plain -> Alcotest.fail "constructor and arguments kept");
  let rejects name f =
    Alcotest.(check bool) name true
      (match f () with exception Invalid_argument _ -> true | _ -> false)
  in
  rejects "immediate rejected" (fun () -> ignore (Pad.copy_as_padded Plain : shape));
  rejects "string rejected" (fun () -> ignore (Pad.copy_as_padded "abc" : string));
  rejects "closure rejected" (fun () ->
      ignore (Pad.copy_as_padded (fun x -> x + r.tag) : int -> int))

(* [backend] builds the protocol under test inside the run's one
   shard; SPLIT when omitted. *)
let bare ?faults ?backend ~k ~s ~pids ~cycles () =
  (Churn.run_bare ?faults ?backend ~k ~s ~pids ~cycles ()).Churn.result

(* Every client finished every cycle, and no name was ever held by two
   clients at once. *)
let check_clean ~cycles (r : Runtime.Agg.result) =
  Alcotest.(check int) "no violations" 0 r.violations;
  Array.iter (fun c -> Alcotest.(check int) "all cycles" cycles c) r.cycles_done;
  Alcotest.(check bool) "per-name marks are clean" true
    (r.max_concurrent_by_name <> []
    && List.for_all (fun (_, m) -> m = 1) r.max_concurrent_by_name)

let test_split_domains () =
  let k = 4 in
  let pids = Array.init k (fun i -> (i * 10_003) + 1) in
  let r = bare ~k ~s:40_013 ~pids ~cycles:200 () in
  check_clean ~cycles:200 r

let test_filter_domains () =
  let k = 3 and d = 1 and z = 5 and s = 25 in
  let participants = [| 4; 12; 21 |] in
  let r =
    bare ~k ~s ~pids:participants ~cycles:150
      ~backend:(fun layout ~stage:_ ~k ->
        Any.pack (module Filter) (Filter.create layout { k; d; z; s; participants }))
      ()
  in
  check_clean ~cycles:150 r

let ma ~s layout ~stage:_ ~k = Any.pack (module Ma) (Ma.create layout ~k ~s)

let test_ma_domains () =
  let k = 4 and s = 32 in
  let pids = Array.init k (fun i -> i * 8) in
  check_clean ~cycles:150 (bare ~k ~s ~pids ~cycles:150 ~backend:(ma ~s) ())

let pipeline ~s ~participants layout ~stage:_ ~k =
  Any.pack (module Pipeline) (Pipeline.create layout ~k ~s ~participants)

let test_pipeline_domains () =
  let k = 3 and s = 100_000 in
  let participants = Array.init k (fun i -> (i * 30_000) + 7) in
  check_clean ~cycles:100
    (bare ~k ~s ~pids:participants ~cycles:100 ~backend:(pipeline ~s ~participants) ())

(* ----- real-stall fault injection ----- *)

(* One client parks while *holding a name*: the remaining clients must
   still finish every cycle on real domains (wait-freedom under genuine
   preemption), uniqueness must hold throughout, and the parked client
   must complete no cycle of its own.  Nothing is reclaimed, so the
   parked name really was held while the others ran. *)
let test_park_holding_domains () =
  let k = 4 in
  let pids = Array.init k (fun i -> (i * 9_991) + 3) in
  let r = bare ~faults:[ (1, Churn.Park) ] ~k ~s:40_000 ~pids ~cycles:100 () in
  Alcotest.(check int) "no violations" 0 r.violations;
  Alcotest.(check int) "nothing reclaimed" 0 r.reclaimed;
  Alcotest.(check int) "parked client completed no cycle" 0 r.cycles_done.(1);
  Array.iteri
    (fun i c -> if i <> 1 then Alcotest.(check int) "non-faulty all cycles" 100 c)
    r.cycles_done

let test_stall_and_slow_domains () =
  let k = 3 and s = 32 in
  let pids = Array.init k (fun i -> i * 8) in
  let r =
    bare
      ~faults:[ (0, Churn.Stall { request = 10; spins = 50_000 }); (2, Churn.Slow 500) ]
      ~k ~s ~pids ~cycles:60 ~backend:(ma ~s) ()
  in
  (* stalled and slow clients are delayed, not parked: everyone finishes *)
  check_clean ~cycles:60 r

let test_park_two_of_four () =
  (* two parked holders on the pipeline; the other two still finish *)
  let k = 4 and s = 50_000 in
  let participants = Array.init k (fun i -> (i * 12_000) + 5) in
  let r =
    bare
      ~faults:[ (1, Churn.Park); (3, Churn.Park) ]
      ~k ~s ~pids:participants ~cycles:80 ~backend:(pipeline ~s ~participants) ()
  in
  Alcotest.(check int) "no violations" 0 r.violations;
  Alcotest.(check int) "nothing reclaimed" 0 r.reclaimed;
  Alcotest.(check int) "client 1 parked" 0 r.cycles_done.(1);
  Alcotest.(check int) "client 3 parked" 0 r.cycles_done.(3);
  Alcotest.(check int) "client 0 finished" 80 r.cycles_done.(0);
  Alcotest.(check int) "client 2 finished" 80 r.cycles_done.(2)

let test_all_park_raises () =
  (* every client parked => each waits on the others forever; the
     run must refuse instead of deadlocking *)
  match
    bare ~faults:[ (0, Churn.Park); (1, Churn.Park) ] ~k:2 ~s:4 ~pids:[| 1; 2 |]
      ~cycles:10 ()
  with
  | (_ : Runtime.Agg.result) -> Alcotest.fail "all-Park run should raise Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_run_per_name_breakdown () =
  (* a crash-free run's per-name scoreboard: ascending, in range, and
     every name held by one client at a time *)
  let k = 3 and cycles = 30 in
  let r = bare ~k ~s:4 ~pids:[| 1; 2; 3 |] ~cycles () in
  check_clean ~cycles r;
  Alcotest.(check int) "no leak" 0 r.leaked;
  Alcotest.(check int) "nothing reclaimed" 0 r.reclaimed;
  Alcotest.(check bool) "no first violation" true (r.first_violation = None);
  let names = List.map fst r.max_concurrent_by_name in
  let layout = Layout.create () in
  let name_space = Split.name_space (Split.create layout ~k) in
  Alcotest.(check bool) "per-name breakdown sorted and in range" true
    (List.for_all (fun n -> n >= 0 && n < name_space) names
    && List.sort compare names = names)

let () =
  Alcotest.run "runtime"
    [
      ( "store",
        [
          Alcotest.test_case "atomic store" `Quick test_atomic_store;
          Alcotest.test_case "padding survives promotion" `Quick
            test_pad_survives_promotion;
          Alcotest.test_case "padded copy keeps the fields" `Quick test_copy_as_padded;
        ] );
      ( "domains",
        [
          Alcotest.test_case "split across domains" `Slow test_split_domains;
          Alcotest.test_case "filter across domains" `Slow test_filter_domains;
          Alcotest.test_case "ma across domains" `Slow test_ma_domains;
          Alcotest.test_case "pipeline across domains" `Slow test_pipeline_domains;
          Alcotest.test_case "per-name breakdown" `Slow test_run_per_name_breakdown;
        ] );
      ( "faults",
        [
          Alcotest.test_case "parked holder, others wait-free" `Slow
            test_park_holding_domains;
          Alcotest.test_case "stall + slow lane" `Slow test_stall_and_slow_domains;
          Alcotest.test_case "two parked of four" `Slow test_park_two_of_four;
          Alcotest.test_case "all parked rejected" `Quick test_all_park_raises;
        ] );
    ]
