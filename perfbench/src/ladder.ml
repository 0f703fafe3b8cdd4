(* The isolation ladder: solo loops over ever larger slices of the
   stack, for layers too fine for a span to resolve.  Each row reports
   ns, shared accesses and minor-heap words per operation; accesses come
   from a separate counting pass so that counting never sits inside a
   timed loop. *)

module Store = Shared_mem.Store
module Layout = Shared_mem.Layout
module Any = Renaming.Protocol.Any

type row = { id : string; ns : float; accesses : float; words : float }

let reps = 7
let target_ns = 15_000_000

(* Median ns/op and words/op over [reps] timed runs of [f n], with [n]
   grown until one run takes [target_ns]. *)
let measure f =
  let rec calibrate n =
    let t0 = Clock.now () in
    f n;
    if Clock.now () - t0 >= target_ns || n >= 1 lsl 30 then n else calibrate (2 * n)
  in
  let n = calibrate 1024 in
  let ns = Array.make reps 0. and words = Array.make reps 0. in
  for r = 0 to reps - 1 do
    let w0 = Gc.minor_words () in
    let t0 = Clock.now () in
    f n;
    let t1 = Clock.now () in
    ns.(r) <- float_of_int (t1 - t0) /. float_of_int n;
    words.(r) <- (Gc.minor_words () -. w0) /. float_of_int n
  done;
  (Clock.median ns, Clock.median words)

let split_any layout = Any.pack (module Renaming.Split) (Renaming.Split.create layout ~k:4)

(* get+release cycles of one SPLIT instance over [ops] *)
let split_cycles inst (ops : Store.ops) n =
  for _ = 1 to n do
    Any.release_name inst ops (Any.get_name inst ops)
  done

let count_split_accesses mk_ops =
  let layout = Layout.create () in
  let inst = split_any layout in
  let c = Store.counter () in
  let n = 1000 in
  split_cycles inst (Store.counting c (mk_ops layout)) n;
  float_of_int (Store.accesses c) /. float_of_int n

(* acquire+release cycles by client 0 over [srcs] *)
let server_cycles srv srcs n =
  let c = Server.client srv 0 in
  let mask = Array.length srcs - 1 in
  for i = 1 to n do
    match Server.acquire srv c ~src:(Array.unsafe_get srcs (i land mask)) with
    | Server.Granted { token; _ } -> Server.release srv c ~token
    | Server.Busy | Server.Shed -> ()
  done

let server_row ~id ~seed ?(registry = false) ~warm_capacity srcs_of =
  let cfg = Server.default_config ~warm_capacity ~clients:1 ~source_space:65536 () in
  let make ?backend () =
    let registry = if registry then Some (Obs.Registry.create ()) else None in
    Server.create ?registry ?backend cfg
  in
  let srcs = srcs_of (Gen.stream ~seed ~id:7) in
  let srv = make () in
  let ns, words = measure (server_cycles srv srcs) in
  (* accesses: the same cycles through the counting shim *)
  let tr = Trace.current () in
  let srv = make ~backend:Trace.backend () in
  server_cycles srv srcs 1000;
  let a0 = tr.accesses in
  let n = 10_000 in
  server_cycles srv srcs n;
  { id; ns; accesses = float_of_int (tr.accesses - a0) /. float_of_int n; words }

let run ~seed =
  let l0 =
    let a = Atomic.make 1 in
    let ns, words =
      measure (fun n ->
          let s = ref 0 in
          for _ = 1 to n do
            s := !s + Atomic.get a
          done;
          ignore (Sys.opaque_identity !s))
    in
    { id = "L0_atomic_get"; ns; accesses = 1.; words }
  in
  let l1 =
    let layout = Layout.create () in
    let cell = Layout.alloc layout 1 in
    let ops = Runtime.Atomic_store.ops (Runtime.Atomic_store.create layout) ~pid:0 in
    let ns, words =
      measure (fun n ->
          let s = ref 0 in
          for _ = 1 to n do
            s := !s + ops.read cell
          done;
          ignore (Sys.opaque_identity !s))
    in
    { id = "L1_store_read"; ns; accesses = 1.; words }
  in
  let split_row id mk_ops =
    let layout = Layout.create () in
    let inst = split_any layout in
    let ns, words = measure (split_cycles inst (mk_ops layout)) in
    { id; ns; accesses = count_split_accesses mk_ops; words }
  in
  let l2 = split_row "L2_split_seq" (fun layout -> Store.seq_ops (Store.seq_create layout) ~pid:1) in
  let l3 =
    split_row "L3_split_atomic" (fun layout ->
        Runtime.Atomic_store.ops (Runtime.Atomic_store.create layout) ~pid:1)
  in
  (* L4: one source name, re-granted from the warm cache every time *)
  let l4 = server_row ~id:"L4_server_warm" ~seed ~warm_capacity:2 (fun _ -> [| 1 |]) in
  (* L5: distinct uniform sources and no warm cache, so every cycle is
     cold: claim, admission, get_name, and batched protocol releases *)
  let uniform g = Array.init Drive.stream_len (fun _ -> Gen.int g 65536) in
  let l5 = server_row ~id:"L5_server_cold" ~seed ~warm_capacity:0 uniform in
  let l5r =
    server_row ~id:"L5r_server_cold_registry" ~seed ~registry:true ~warm_capacity:0 uniform
  in
  [ l0; l1; l2; l3; l4; l5; l5r ]
