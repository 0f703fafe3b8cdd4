(* Uniform laws every long-lived renaming protocol must satisfy,
   checked through the dynamic Protocol.Any interface.  The subjects
   are enumerated from the backend registry (Renaming.Backends), so a
   backend registered there is under every law the day it lands —
   unknown names get default sizes rather than being skipped. *)

open Shared_mem
module P = Renaming.Protocol

type subject = {
  label : string;
  build : unit -> Layout.t * P.Any.t * int array; (* layout, protocol, legal pids *)
  k : int;
  recoverable : bool;
}

(* Per-backend sizes: (k, s).  Backends not listed here are still
   tested, at the default size. *)
let sizes = [ ("filter", (3, 25)); ("ma", (3, 30)); ("pipeline", (3, 50_000)) ]
let default_size = (4, 100)

let registry_subjects =
  List.map
    (fun (b : Renaming.Backends.spec) ->
      let k, s = Option.value ~default:default_size (List.assoc_opt b.name sizes) in
      {
        label = Printf.sprintf "%s k=%d s=%d" b.name k s;
        k;
        recoverable = b.recoverable;
        build =
          (fun () ->
            let layout = Layout.create () in
            let pids = Renaming.Backends.default_pids ~k ~s in
            (layout, b.build layout ~k ~s ~participants:pids, pids));
      })
    (Renaming.Backends.all ())

(* Registry coverage that would otherwise be lost: the tight-z FILTER
   variant exercises a different fast-path shape. *)
let extra_subjects =
  [
    {
      label = "filter tight-z k=3 d=2 z=5 s=25";
      k = 3;
      recoverable = true;
      build =
        (fun () ->
          let layout = Layout.create () in
          let participants = [| 1; 9; 23 |] in
          let f =
            Renaming.Filter.create ~tight:true layout
              { k = 3; d = 2; z = 5; s = 25; participants }
          in
          (layout, P.Any.pack (module Renaming.Filter) f, participants));
    };
  ]

let subjects = registry_subjects @ extra_subjects

(* Wrap ops in a hard access budget so a protocol that spins on a
   leaked name fails the test instead of hanging it. *)
let bounded ~limit (ops : Store.ops) =
  let n = ref 0 in
  let tick () =
    incr n;
    if !n > limit then Alcotest.failf "access budget %d exceeded (leaked name?)" limit
  in
  Store.make ~pid:ops.pid ~probe:ops.probe
    ~read:(fun c -> tick (); Store.read ops c)
    ~write:(fun c v -> tick (); Store.write ops c v)
    ~rmw:(fun c f -> tick (); Store.rmw ops c f)
    ()

let budget = 100_000

(* Law 1+2: sequential acquire/release cycles always give in-range
   names and the protocol stays usable (long-lived). *)
let law_sequential_reuse s =
  let layout, proto, pids = s.build () in
  let mem = Store.seq_create layout in
  let d = P.Any.name_space proto in
  for round = 1 to 4 do
    Array.iter
      (fun pid ->
        let ops = bounded ~limit:budget (Store.seq_ops mem ~pid) in
        let lease = P.Any.get_name proto ops in
        let name = P.Any.name_of proto lease in
        Alcotest.(check bool)
          (Printf.sprintf "%s: round %d name %d within [0,%d)" s.label round name d)
          true
          (name >= 0 && name < d);
        P.Any.release_name proto ops lease)
      pids
  done

(* Law 3: k processes holding simultaneously (no release in between)
   get k distinct names within the declared name space. *)
let law_simultaneous_distinct s =
  let layout, proto, pids = s.build () in
  let mem = Store.seq_create layout in
  let d = P.Any.name_space proto in
  let leases =
    Array.map
      (fun pid ->
        let ops = bounded ~limit:budget (Store.seq_ops mem ~pid) in
        (ops, P.Any.get_name proto ops))
      pids
  in
  let names = Array.map (fun (_, l) -> P.Any.name_of proto l) leases in
  Array.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: simultaneous name %d within [0,%d)" s.label n d)
        true (n >= 0 && n < d))
    names;
  let sorted = List.sort_uniq compare (Array.to_list names) in
  Alcotest.(check int) (s.label ^ ": simultaneous names distinct") s.k (List.length sorted);
  Array.iter (fun (ops, l) -> P.Any.release_name proto ops l) leases

(* Law 4: a released name really is back in the pool whatever order
   the holders let go in — full capacity is re-acquirable after both a
   LIFO and a FIFO release of all k names. *)
let law_release_order s =
  let layout, proto, pids = s.build () in
  let mem = Store.seq_create layout in
  let acquire_all () =
    Array.map
      (fun pid ->
        let ops = bounded ~limit:budget (Store.seq_ops mem ~pid) in
        (ops, P.Any.get_name proto ops))
      pids
  in
  let distinct leases =
    let names = Array.map (fun (_, l) -> P.Any.name_of proto l) leases in
    List.length (List.sort_uniq compare (Array.to_list names))
  in
  let release_in order leases =
    List.iter (fun i -> let ops, l = leases.(i) in P.Any.release_name proto ops l) order
  in
  let n = Array.length pids in
  let fifo = List.init n Fun.id in
  let lifo = List.rev fifo in
  List.iter
    (fun order ->
      let leases = acquire_all () in
      Alcotest.(check int) (s.label ^ ": distinct before release") s.k (distinct leases);
      release_in order leases)
    [ lifo; fifo ];
  (* pool is whole again *)
  let leases = acquire_all () in
  Alcotest.(check int) (s.label ^ ": distinct after mixed releases") s.k (distinct leases);
  release_in (List.rev (List.init n Fun.id)) leases

(* Law 5: uniqueness under concurrent random workloads. *)
let law_concurrent_uniqueness s =
  let _, proto0, _ = s.build () in
  let d = P.Any.name_space proto0 in
  List.iter
    (fun seed ->
      let layout, proto, pids = s.build () in
      let work = Layout.alloc layout ~name:"work" 0 in
      let procs =
        Array.mapi
          (fun i pid ->
            ( pid,
              Workload.body (module P.Any) proto ~work
                (Workload.bursty ~cycles:4 ~seed:(seed + i)) ))
          pids
      in
      let outcome, u = Test_util.run_random ~seed ~name_space:d layout procs in
      Alcotest.(check bool) (s.label ^ ": completes") true (Test_util.all_completed outcome);
      Alcotest.(check bool)
        (s.label ^ ": concurrency bound")
        true
        (Sim.Checks.max_concurrent u <= s.k))
    (Test_util.seeds 15)

(* Law 6: determinism — identical seeds give identical access totals. *)
let law_deterministic s =
  let run seed =
    let layout, proto, pids = s.build () in
    let work = Layout.alloc layout ~name:"work" 0 in
    let procs =
      Array.map
        (fun pid -> (pid, Workload.body (module P.Any) proto ~work (Workload.churn ~cycles:3 ())))
        pids
    in
    let outcome, _ = Test_util.run_random ~seed ~name_space:(P.Any.name_space proto) layout procs in
    outcome.total
  in
  List.iter
    (fun seed ->
      Alcotest.(check int) (s.label ^ ": deterministic replay") (run seed) (run seed))
    (Test_util.seeds 5)

(* Law 7: chainability (§4.4) — the protocol's destination names work
   as source names for a further stage, and the chain still hands out
   k distinct names. *)
let law_chainable s =
  let layout, proto, pids = s.build () in
  let tas = Renaming.Tas_baseline.create layout ~k:s.k in
  let chain = P.chain_any proto (P.Any.pack (module Renaming.Tas_baseline) tas) in
  Alcotest.(check int) (s.label ^ ": chain name space") s.k (P.Any.name_space chain);
  Alcotest.(check bool)
    (s.label ^ ": chain recovery availability")
    s.recoverable
    (P.Any.reset_available chain);
  let mem = Store.seq_create layout in
  let leases =
    Array.map
      (fun pid ->
        let ops = bounded ~limit:budget (Store.seq_ops mem ~pid) in
        (ops, P.Any.get_name chain ops))
      pids
  in
  let names = Array.map (fun (_, l) -> P.Any.name_of chain l) leases in
  Array.iter
    (fun n ->
      Alcotest.(check bool)
        (s.label ^ ": chain name in range")
        true
        (n >= 0 && n < s.k))
    names;
  Alcotest.(check int)
    (s.label ^ ": chain names distinct")
    s.k
    (List.length (List.sort_uniq compare (Array.to_list names)));
  Array.iter (fun (ops, l) -> P.Any.release_name chain ops l) leases

(* Law 8: reclaim-after-crash — resetting a dead holder's footprint on
   its behalf returns the name to service: afterwards all k processes
   (corpse included) can hold simultaneously again.  Protocols without
   a recovery hook must say so via reset_available. *)
let law_reclaim_after_crash s =
  let layout, proto, pids = s.build () in
  Alcotest.(check bool)
    (s.label ^ ": recovery availability")
    s.recoverable (P.Any.reset_available proto);
  if s.recoverable then begin
    let mem = Store.seq_create layout in
    let corpse = pids.(0) in
    let corpse_ops = bounded ~limit:budget (Store.seq_ops mem ~pid:corpse) in
    let dead_lease = P.Any.get_name proto corpse_ops in
    (* the corpse takes no further step; a reclaimer resets its
       footprint using the corpse's source name *)
    (match P.Any.reset_footprint with
    | Some reset -> reset proto corpse_ops dead_lease
    | None -> Alcotest.fail (s.label ^ ": reset_available but no hook"));
    let leases =
      Array.map
        (fun pid ->
          let ops = bounded ~limit:budget (Store.seq_ops mem ~pid) in
          (ops, P.Any.get_name proto ops))
        pids
    in
    let names = Array.map (fun (_, l) -> P.Any.name_of proto l) leases in
    Alcotest.(check int)
      (s.label ^ ": full capacity after reclaim")
      s.k
      (List.length (List.sort_uniq compare (Array.to_list names)));
    Array.iter (fun (ops, l) -> P.Any.release_name proto ops l) leases
  end

(* Law 9: the lease table is the lease API with the leases kept in
   place.  Two builds of one subject run the same rounds, one through
   get_name/release_name and one through a table of k entries: every
   holder gets the same name at the same shared-access cost, all k
   hold at once, and the releases run in mixed orders.  A recoverable
   subject also resets one holder's footprint in each round, through
   [reset_footprint] on one side and [release_from ~reset:true] on the
   other. *)
let law_table_matches_leases s =
  let counted () =
    let layout, proto, pids = s.build () in
    let mem = Store.seq_create layout in
    let c = Store.counter () in
    let ops = Array.map (fun pid -> Store.counting c (bounded ~limit:budget (Store.seq_ops mem ~pid))) pids in
    (proto, ops, c)
  in
  let proto, ops, c = counted () in
  let tproto, tops, tc = counted () in
  let tbl = P.Any.table tproto ~slots:s.k in
  let n = Array.length ops in
  List.iteri
    (fun round order ->
      let leases =
        Array.mapi
          (fun i o ->
            let a0 = Store.accesses c and t0 = Store.accesses tc in
            let l = P.Any.get_name proto o in
            let name = P.Any.get_into tbl i tops.(i) in
            Alcotest.(check int)
              (Printf.sprintf "%s: round %d holder %d name" s.label round i)
              (P.Any.name_of proto l) name;
            Alcotest.(check int)
              (Printf.sprintf "%s: round %d holder %d get accesses" s.label round i)
              (Store.accesses c - a0) (Store.accesses tc - t0);
            l)
          ops
      in
      List.iter
        (fun i ->
          let reset = s.recoverable && i = round mod n in
          (if reset then
             match P.Any.reset_footprint with
             | Some f -> f proto ops.(i) leases.(i)
             | None -> Alcotest.fail "Any.reset_footprint is statically Some"
           else P.Any.release_name proto ops.(i) leases.(i));
          P.Any.release_from tbl i tops.(i) ~reset)
        order;
      Alcotest.(check int)
        (Printf.sprintf "%s: round %d total accesses" s.label round)
        (Store.accesses c) (Store.accesses tc))
    (let ids = List.init n Fun.id in
     let odd i = i mod 2 = 1 in
     [ ids; List.rev ids; List.filter (Fun.negate odd) ids @ List.filter odd ids ])

(* Law 10: both access arms of [Store] run the protocol the same way.
   One instance runs on [Atomic_store] ops, the direct arm; a twin runs
   on the same kind of store wrapped by [Store.counting], the closure
   arm.  Names and per-operation access counts must agree, and so must
   the per-group registry counters each arm's bound tally feeds.  The
   counting wrapper counts on its own, so a direct arm that skipped
   its tally would read 0 here against the wrapper's count. *)
let law_direct_matches_counting s =
  let arm () =
    let layout, proto, pids = s.build () in
    let store = Runtime.Atomic_store.create layout in
    let reg = Obs.Registry.create () in
    let tally = Store.tally ~shard:(Obs.Registry.shard reg) () in
    let ops = Array.map (fun pid -> Runtime.Atomic_store.ops ~tally store ~pid) pids in
    (proto, ops, tally, reg)
  in
  let proto, dops, dtally, dreg = arm () in
  let tproto, tops, ttally, treg = arm () in
  let c = Store.counter () in
  let cops = Array.map (Store.counting c) tops in
  let step what i f g =
    Store.tally_mark dtally;
    Store.tally_mark ttally;
    let a0 = Store.accesses c in
    let x = f dops.(i) and y = g cops.(i) in
    let d = Store.tally_since dtally and w = Store.accesses c - a0 in
    Alcotest.(check int) (Printf.sprintf "%s: %s %d accesses" s.label what i) w d;
    Alcotest.(check int)
      (Printf.sprintf "%s: %s %d wrapped tally" s.label what i)
      w (Store.tally_since ttally);
    (x, y)
  in
  let n = Array.length dops in
  for round = 1 to 3 do
    let leases =
      Array.init n (fun i ->
          let l, tl = step "get" i (P.Any.get_name proto) (P.Any.get_name tproto) in
          Alcotest.(check int)
            (Printf.sprintf "%s: round %d holder %d name" s.label round i)
            (P.Any.name_of proto l) (P.Any.name_of tproto tl);
          (l, tl))
    in
    Array.iteri
      (fun j _ ->
        let i = (j + round) mod n in
        let l, tl = leases.(i) in
        ignore
          (step "release" i
             (fun o -> P.Any.release_name proto o l)
             (fun o -> P.Any.release_name tproto o tl)))
      leases
  done;
  let store_counters reg =
    List.filter
      (fun (name, _) -> String.length name > 6 && String.sub name 0 6 = "store.")
      (Obs.Registry.snapshot reg).counters
  in
  let direct = store_counters dreg in
  Alcotest.(check (list (pair string int)))
    (s.label ^ ": store.* counters") (store_counters treg) direct;
  let total name = Option.value ~default:0 (List.assoc_opt name direct) in
  Alcotest.(check int) (s.label ^ ": store.reads = wrapper reads") (Store.reads c) (total "store.reads");
  Alcotest.(check int)
    (s.label ^ ": store.writes + store.rmws = wrapper writes")
    (Store.writes c)
    (total "store.writes" + total "store.rmws")

let cases law = List.map (fun s -> Alcotest.test_case s.label `Slow (fun () -> law s)) subjects

(* ----- Chain composition regressions (release ordering, recovery
   propagation) pinned with an instrumented probe protocol ----- *)

module Probe_proto = struct
  type t = { id : string; log : (string * int) list ref; space : int }
  type lease = int

  let make ~id ~log ~space = { id; log; space }
  let name_space t = t.space

  let get_name t (ops : Store.ops) =
    t.log := (t.id ^ ".get", ops.pid) :: !(t.log);
    ops.pid mod t.space

  let name_of _ lease = lease

  let release_name t (ops : Store.ops) _lease =
    t.log := (t.id ^ ".release", ops.pid) :: !(t.log)

  let reset_footprint =
    Some (fun t (ops : Store.ops) _lease -> t.log := (t.id ^ ".reset", ops.pid) :: !(t.log))
end

module Probe_noreset = struct
  include Probe_proto

  let reset_footprint = None
end

module Probe_chain = P.Chain (Probe_proto) (Probe_proto)
module Probe_chain_noreset = P.Chain (Probe_proto) (Probe_noreset)

let dummy_ops ~pid =
  let layout = Layout.create () in
  let _ = Layout.alloc layout ~name:"pad" 0 in
  Store.seq_ops (Store.seq_create layout) ~pid

let chain_release_order () =
  let log = ref [] in
  (* A maps pid 13 to 13 mod 7 = 6; B then sees pid 6 *)
  let a = Probe_proto.make ~id:"A" ~log ~space:7 in
  let b = Probe_proto.make ~id:"B" ~log ~space:5 in
  let c = Probe_chain.make a b in
  let ops = dummy_ops ~pid:13 in
  let lease = Probe_chain.get_name c ops in
  Alcotest.(check int) "chain name is B's" (6 mod 5) (Probe_chain.name_of c lease);
  Probe_chain.release_name c ops lease;
  (match Probe_chain.reset_footprint with
  | Some reset -> reset c ops lease
  | None -> Alcotest.fail "Chain(A)(B) with two hooks must compose them");
  Alcotest.(check (list (pair string int)))
    "acquire outer-first, release/reset innermost-first, inner pid = A-name"
    [
      ("A.get", 13);
      ("B.get", 6);
      (* release: B first, still holding the A-name *)
      ("B.release", 6);
      ("A.release", 13);
      (* reset composes the same way *)
      ("B.reset", 6);
      ("A.reset", 13);
    ]
    (List.rev !log)

let chain_reset_none_static () =
  (* pinned: a chain whose inner stage lacks a recovery hook has none
     itself — Option.is_none, not a hook that raises *)
  Alcotest.(check bool)
    "static Chain propagates None" true
    (Option.is_none Probe_chain_noreset.reset_footprint)

let chain_reset_none_dynamic () =
  let log = ref [] in
  let with_reset () =
    P.Any.pack (module Probe_proto) (Probe_proto.make ~id:"R" ~log ~space:7)
  in
  let without_reset () =
    P.Any.pack (module Probe_noreset) (Probe_proto.make ~id:"N" ~log ~space:7)
  in
  Alcotest.(check bool)
    "chain_any of two recoverable stages is recoverable" true
    (P.Any.reset_available (P.chain_any (with_reset ()) (with_reset ())));
  List.iter
    (fun (label, chain) ->
      Alcotest.(check bool) (label ^ " is not recoverable") false (P.Any.reset_available chain);
      (* and the dynamic hook refuses rather than half-resetting *)
      let ops = dummy_ops ~pid:3 in
      let lease = P.Any.get_name chain ops in
      match P.Any.reset_footprint with
      | None -> Alcotest.fail "Any.reset_footprint is statically Some"
      | Some reset ->
          Alcotest.check_raises (label ^ " reset raises")
            (Invalid_argument "Protocol.Any.reset_footprint: protocol has no recovery path")
            (fun () -> reset chain ops lease))
    [
      ("chain_any inner-noreset", P.chain_any (with_reset ()) (without_reset ()));
      ("chain_any outer-noreset", P.chain_any (without_reset ()) (with_reset ()));
      ( "chain_all mixed",
        P.chain_all [ with_reset (); without_reset (); with_reset () ] );
    ]

(* [release_from ~reset:true] resets through the protocol's hook when
   it has one, and releases when it has none. *)
let table_reset_falls_back () =
  let log = ref [] in
  let ops = dummy_ops ~pid:3 in
  List.iter
    (fun (label, proto, expected) ->
      log := [];
      let tbl = P.Any.table proto ~slots:2 in
      ignore (P.Any.get_into tbl 1 ops : int);
      P.Any.release_from tbl 1 ops ~reset:true;
      Alcotest.(check (list (pair string int))) label expected (List.rev !log))
    [
      ( "with a hook, reset",
        P.Any.pack (module Probe_proto) (Probe_proto.make ~id:"R" ~log ~space:7),
        [ ("R.get", 3); ("R.reset", 3) ] );
      ( "without one, release",
        P.Any.pack (module Probe_noreset) (Probe_proto.make ~id:"N" ~log ~space:7),
        [ ("N.get", 3); ("N.release", 3) ] );
    ]

(* A SPLIT cycle through the table allocates nothing: the int lease is
   stored unboxed.  Only the table's first grant allocates (its entry
   array).  The budget of 0.01 words per cycle leaves room only for the
   measurement. *)
let table_split_allocation_free () =
  let layout = Layout.create () in
  let proto = P.Any.pack (module Renaming.Split) (Renaming.Split.create layout ~k:4) in
  let ops = Store.seq_ops (Store.seq_create layout) ~pid:123_456_789 in
  let tbl = P.Any.table proto ~slots:4 in
  ignore (P.Any.get_into tbl 2 ops : int);
  P.Any.release_from tbl 2 ops ~reset:false;
  let cycles = 10_000 in
  let w0 = Gc.minor_words () in
  for i = 1 to cycles do
    ignore (P.Any.get_into tbl (i land 3) ops : int);
    P.Any.release_from tbl (i land 3) ops ~reset:(i land 4 = 0)
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int cycles in
  if words >= 0.01 then Alcotest.failf "table cycle allocates %.3f minor words" words

let table_cases =
  [
    Alcotest.test_case "reset falls back to release" `Quick table_reset_falls_back;
    Alcotest.test_case "SPLIT cycle allocates nothing" `Quick table_split_allocation_free;
  ]

let chain_cases =
  [
    Alcotest.test_case "release ordering + inner pid" `Quick chain_release_order;
    Alcotest.test_case "reset None propagation (static)" `Quick chain_reset_none_static;
    Alcotest.test_case "reset None propagation (dynamic)" `Quick chain_reset_none_dynamic;
  ]

let () =
  Alcotest.run "protocol_laws"
    [
      ("sequential reuse", cases law_sequential_reuse);
      ("simultaneous holders distinct", cases law_simultaneous_distinct);
      ("release order independence", cases law_release_order);
      ("concurrent uniqueness", cases law_concurrent_uniqueness);
      ("deterministic", cases law_deterministic);
      ("chainable", cases law_chainable);
      ("reclaim after crash", cases law_reclaim_after_crash);
      ("lease table matches leases", cases law_table_matches_leases);
      ("direct arm matches counting", cases law_direct_matches_counting);
      ("chain composition", chain_cases);
      ("lease table", table_cases);
    ]
