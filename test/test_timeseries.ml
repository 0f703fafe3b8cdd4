(* Time-series windows, the sampler, SLO burn gates, and the store
   tally arena — the always-on telemetry layer. *)

let ms = 1_000_000

(* ----- Timeseries: windows, rollover, percentiles ----- *)

let test_windows () =
  let t = Obs.Timeseries.create ~windows:4 ~window_ns:ms () in
  Obs.Timeseries.observe t ~now:(0 * ms) 10;
  Obs.Timeseries.observe t ~now:(0 * ms) 30;
  Obs.Timeseries.observe t ~now:(1 * ms) 5;
  let ws = Obs.Timeseries.windows t in
  Alcotest.(check int) "two windows" 2 (List.length ws);
  let w0 = List.hd ws in
  Alcotest.(check int) "w0 count" 2 w0.Obs.Timeseries.count;
  Alcotest.(check int) "w0 sum" 40 w0.Obs.Timeseries.sum;
  Alcotest.(check int) "w0 min" 10 w0.Obs.Timeseries.min;
  Alcotest.(check int) "w0 max" 30 w0.Obs.Timeseries.max;
  Alcotest.(check int) "total" 3 (Obs.Timeseries.total t);
  (* rolling 4 windows forward evicts window 0; a late event for it
     is dropped and counted, never misfiled *)
  Obs.Timeseries.observe t ~now:(4 * ms) 7;
  Alcotest.(check bool) "w0 evicted" true
    (Obs.Timeseries.window t ~wid:0 = None);
  Obs.Timeseries.observe t ~now:(0 * ms) 99;
  Alcotest.(check int) "late event dropped" 1 (Obs.Timeseries.dropped t);
  (* total counts retained events only: w0's two left with it *)
  Alcotest.(check int) "total = retained" 2 (Obs.Timeseries.total t)

let test_percentile () =
  let t = Obs.Timeseries.create ~window_ns:ms () in
  for v = 1 to 100 do
    Obs.Timeseries.observe t ~now:(2 * ms) v
  done;
  let p99 = Obs.Timeseries.percentile t ~wid:2 0.99 in
  Alcotest.(check bool) "p99 near 99"
    (p99 >= 99 && p99 <= 112) (* log-bucket edge, clamped by window max *)
    true;
  Alcotest.(check int) "p100 is max" 100 (Obs.Timeseries.percentile t ~wid:2 1.0);
  Alcotest.(check int) "absent window" 0 (Obs.Timeseries.percentile t ~wid:7 0.5);
  (* counter-mode series report the window max *)
  let c = Obs.Timeseries.create ~hist:false ~window_ns:ms () in
  Obs.Timeseries.observe c ~now:0 3;
  Obs.Timeseries.observe c ~now:0 8;
  Alcotest.(check int) "hist:false p50 = max" 8
    (Obs.Timeseries.percentile c ~wid:0 0.5)

(* Merge law: the same events, recorded into any sharding and merged
   in any order, yield identical windows. *)
let test_merge_determinism () =
  let events =
    (* (now, v) spread over several windows, seeded deterministic *)
    let rng = ref 12345 in
    let next () =
      rng := (!rng * 1103515245) + 12345;
      (!rng lsr 11) land 0xffff
    in
    List.init 400 (fun _ ->
        let now = next () mod (8 * ms) in
        let v = next () mod 5000 in
        (now, v))
  in
  let record shards pick =
    let ts =
      Array.init shards (fun _ -> Obs.Timeseries.create ~window_ns:ms ())
    in
    List.iteri (fun i (now, v) -> Obs.Timeseries.observe ts.(pick i) ~now v) events;
    ts
  in
  let merge_into ts order =
    let into = Obs.Timeseries.create ~window_ns:ms () in
    List.iter (fun i -> Obs.Timeseries.merge ~into ts.(i)) order;
    into
  in
  let fingerprint t =
    List.map
      (fun (w : Obs.Timeseries.window) ->
        ( w.wid,
          w.count,
          w.sum,
          w.min,
          w.max,
          Obs.Timeseries.percentile t ~wid:w.wid 0.99 ))
      (Obs.Timeseries.windows t)
  in
  let a = merge_into (record 1 (fun _ -> 0)) [ 0 ] in
  let b = merge_into (record 3 (fun i -> i mod 3)) [ 2; 0; 1 ] in
  let c = merge_into (record 4 (fun i -> i mod 4)) [ 3; 1; 0; 2 ] in
  Alcotest.(check bool) "1 shard = 3 shards" true (fingerprint a = fingerprint b);
  Alcotest.(check bool) "3 shards = 4 shards" true (fingerprint b = fingerprint c)

let test_merge_shape_mismatch () =
  let a = Obs.Timeseries.create ~window_ns:ms () in
  let b = Obs.Timeseries.create ~window_ns:(2 * ms) () in
  Alcotest.check_raises "window_ns mismatch"
    (Invalid_argument "Timeseries.merge: shape mismatch") (fun () ->
      Obs.Timeseries.merge ~into:a b)

(* ----- Gauge high-water marks under concurrent writer domains ----- *)

let test_gauge_hwm_domains () =
  let registry = Obs.Registry.create () in
  let n_domains = 4 and steps = 5_000 in
  let ds =
    Array.init n_domains (fun d ->
        Domain.spawn (fun () ->
            (* one shard per domain: single-writer discipline *)
            let sh = Obs.Registry.shard registry in
            let g = Obs.Registry.gauge sh "load" in
            for i = 1 to steps do
              Obs.Gauge.incr g;
              if i mod (d + 2) = 0 then Obs.Gauge.decr g
            done))
  in
  Array.iter Domain.join ds;
  let snap = Obs.Registry.snapshot registry in
  let g = List.assoc "load" snap.Obs.Registry.gauges in
  (* each domain's local hwm equals its own peak — reached right after
     the incr at the last step, before that step's decr (if any) — and
     merged current sums the final residual levels *)
  let peak d = steps - ((steps - 1) / (d + 2)) in
  let residual d = steps - (steps / (d + 2)) in
  let expect_hwm =
    Array.fold_left max 0 (Array.init n_domains peak)
  in
  let expect_current =
    Array.fold_left ( + ) 0 (Array.init n_domains residual)
  in
  Alcotest.(check int) "merged hwm = max of peaks" expect_hwm g.Obs.Gauge.hwm;
  Alcotest.(check int) "merged current = sum" expect_current g.Obs.Gauge.current

(* ----- Sampler: deterministic polls through a fake clock ----- *)

let test_sampler_poll () =
  let level = ref 0 in
  let s =
    Obs.Sampler.create ~window_ns:ms
      [ { Obs.Sampler.name = "level"; read = (fun () -> !level) } ]
  in
  level := 4;
  Obs.Sampler.poll s ~now:0;
  level := 10;
  Obs.Sampler.poll s ~now:(ms / 2);
  level := 2;
  Obs.Sampler.poll s ~now:ms;
  Alcotest.(check int) "ticks" 3 (Obs.Sampler.ticks s);
  let series = List.assoc "level" (Obs.Sampler.series s) in
  let w0 = Option.get (Obs.Timeseries.window series ~wid:0) in
  Alcotest.(check int) "w0 two polls" 2 w0.Obs.Timeseries.count;
  Alcotest.(check int) "w0 max" 10 w0.Obs.Timeseries.max;
  let w1 = Option.get (Obs.Timeseries.window series ~wid:1) in
  Alcotest.(check int) "w1 value" 2 w1.Obs.Timeseries.max

let test_sampler_shard_gauges () =
  let registry = Obs.Registry.create () in
  let sh = Obs.Registry.shard registry in
  let s =
    Obs.Sampler.create ~shard:sh ~window_ns:ms
      [ { Obs.Sampler.name = "depth"; read = (fun () -> 7) } ]
  in
  Obs.Sampler.poll s ~now:0;
  let snap = Obs.Registry.snapshot registry in
  let g = List.assoc "sampler.depth" snap.Obs.Registry.gauges in
  Alcotest.(check int) "gauge mirrors poll" 7 g.Obs.Gauge.current

(* ----- SLO parse + burn evaluation ----- *)

let test_slo_parse () =
  let spec = "p99_ns<=50000,shed_rate<=0.05,warm_rate>=0.1,violations=0" in
  match Obs.Slo.of_string spec with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok t ->
      Alcotest.(check int) "four objectives" 4 (List.length t);
      (* round-trip through to_string re-parses to the same objectives *)
      (match Obs.Slo.of_string (Obs.Slo.to_string t) with
      | Ok t' -> Alcotest.(check bool) "round trip" true (t = t')
      | Error e -> Alcotest.failf "re-parse failed: %s" e);
      (match Obs.Slo.of_string "nonsense<<=3" with
      | Ok _ -> Alcotest.fail "accepted garbage"
      | Error _ -> ())

let test_slo_evaluate () =
  (* latency series: quiet, quiet, three loud windows in a row, quiet *)
  let lat = Obs.Timeseries.create ~window_ns:ms () in
  List.iteri
    (fun i v ->
      for _ = 1 to 10 do
        Obs.Timeseries.observe lat ~now:(i * ms) v
      done)
    [ 100; 100; 9000; 9000; 9000; 100 ];
  let series = function "latency" -> Some lat | _ -> None in
  let scalar = function "violations" -> Some 0 | _ -> None in
  let run spec =
    match Obs.Slo.of_string spec with
    | Ok t -> Obs.Slo.evaluate ~series ~scalar t
    | Error e -> Alcotest.failf "parse: %s" e
  in
  let vs = run "p99_ns<=5000,violations=0" in
  Alcotest.(check bool) "sustained burn trips" true (Obs.Slo.burning vs);
  let v = List.hd vs in
  Alcotest.(check int) "three burning windows" 3 v.Obs.Slo.burning;
  Alcotest.(check int) "max consecutive run" 3 v.Obs.Slo.max_burn;
  let vs = run "p99_ns<=10000,violations=0" in
  Alcotest.(check bool) "clean run passes" false (Obs.Slo.burning vs);
  (* a nonzero scalar trips immediately, no sustain needed *)
  let vs =
    match Obs.Slo.of_string "violations=0" with
    | Ok t ->
        Obs.Slo.evaluate ~series ~scalar:(fun _ -> Some 2) t
    | Error e -> Alcotest.failf "parse: %s" e
  in
  Alcotest.(check bool) "scalar trips" true (Obs.Slo.burning vs)

(* ----- the store tally arena ----- *)

let tally_layout () =
  let layout = Shared_mem.Layout.create () in
  let a = Shared_mem.Layout.alloc layout ~name:"reg[0]" 0 in
  let b = Shared_mem.Layout.alloc layout ~name:"reg[1]" 0 in
  let c = Shared_mem.Layout.alloc layout ~name:"other" 0 in
  (layout, a, b, c)

let test_tally_groups () =
  let layout, a, b, c = tally_layout () in
  let mem = Shared_mem.Store.seq_create layout in
  let registry = Obs.Registry.create () in
  let sh = Obs.Registry.shard registry in
  let t = Shared_mem.Store.tally ~shard:sh () in
  let ops = Shared_mem.Store.seq_ops ~tally:t mem ~pid:1 in
  ignore (ops.read a);
  ignore (ops.read b);
  ops.write a 1;
  ignore (ops.rmw c (fun v -> v + 1));
  Alcotest.(check int) "running total" 4 (Shared_mem.Store.tally_total t);
  Shared_mem.Store.tally_mark t;
  ignore (ops.read c);
  Alcotest.(check int) "since mark" 1 (Shared_mem.Store.tally_since t);
  (* group counters materialize as deltas at snapshot time *)
  let snap = Obs.Registry.snapshot registry in
  let counter n = List.assoc n snap.Obs.Registry.counters in
  Alcotest.(check int) "reads grouped" 2 (counter "store.reads.reg");
  Alcotest.(check int) "reads other" 1 (counter "store.reads.other");
  Alcotest.(check int) "writes grouped" 1 (counter "store.writes.reg");
  Alcotest.(check int) "rmws" 1 (counter "store.rmws.other");
  Alcotest.(check int) "read total" 3 (counter "store.reads");
  Alcotest.(check int) "write total" 1 (counter "store.writes");
  Alcotest.(check int) "rmw total" 1 (counter "store.rmws");
  (* a second snapshot flushes nothing new *)
  ignore (ops.read a);
  let snap2 = Obs.Registry.snapshot registry in
  Alcotest.(check int) "delta flush" 4
    (List.assoc "store.reads" snap2.Obs.Registry.counters)

(* One arena behind two stores: the sequential array and an atomic
   store each count into it from their own closures, and the grouped
   counts merge at snapshot. *)
let test_tally_shared_stores () =
  let layout, a, b, _ = tally_layout () in
  let registry = Obs.Registry.create () in
  let t = Shared_mem.Store.tally ~shard:(Obs.Registry.shard registry) () in
  let seq =
    Shared_mem.Store.seq_ops ~tally:t (Shared_mem.Store.seq_create layout) ~pid:1
  in
  let atomic =
    Runtime.Atomic_store.ops ~tally:t (Runtime.Atomic_store.create layout) ~pid:1
  in
  ignore (seq.read a);
  atomic.write b 3;
  ignore (atomic.read b);
  ignore (atomic.rmw a (fun v -> v + 1));
  Alcotest.(check int) "atomic store value" 3 (atomic.read b);
  Alcotest.(check int) "running total" 5 (Shared_mem.Store.tally_total t);
  let snap = Obs.Registry.snapshot registry in
  let counter n = List.assoc n snap.Obs.Registry.counters in
  Alcotest.(check int) "reads from both stores" 3 (counter "store.reads.reg");
  Alcotest.(check int) "writes" 1 (counter "store.writes.reg");
  Alcotest.(check int) "rmws" 1 (counter "store.rmws.reg")

(* Without a shard the arena still counts for [tally_total], and a
   fresh bound arena puts the ungrouped totals in the registry before
   any access. *)
let test_tally_unbound () =
  let layout, a, b, _ = tally_layout () in
  let mem = Shared_mem.Store.seq_create layout in
  let t = Shared_mem.Store.tally () in
  let ops = Shared_mem.Store.seq_ops ~tally:t mem ~pid:1 in
  ignore (ops.read a);
  ops.write b 5;
  ignore (ops.rmw a (fun v -> v));
  Alcotest.(check int) "total only" 3 (Shared_mem.Store.tally_total t);
  let atomic =
    Runtime.Atomic_store.ops ~tally:t (Runtime.Atomic_store.create layout) ~pid:1
  in
  ignore (atomic.read a);
  Alcotest.(check int) "atomic total only" 4 (Shared_mem.Store.tally_total t);
  let registry = Obs.Registry.create () in
  ignore (Shared_mem.Store.tally ~shard:(Obs.Registry.shard registry) ());
  let snap = Obs.Registry.snapshot registry in
  Alcotest.(check (list (pair string int)))
    "totals present from creation"
    [ ("store.reads", 0); ("store.rmws", 0); ("store.writes", 0) ]
    snap.Obs.Registry.counters

let () =
  Alcotest.run "timeseries"
    [
      ( "windows",
        [
          Alcotest.test_case "fill, rollover, dropped" `Quick test_windows;
          Alcotest.test_case "percentiles" `Quick test_percentile;
          Alcotest.test_case "merge determinism" `Quick test_merge_determinism;
          Alcotest.test_case "merge shape mismatch" `Quick test_merge_shape_mismatch;
        ] );
      ( "gauges",
        [ Alcotest.test_case "hwm across domains" `Quick test_gauge_hwm_domains ] );
      ( "sampler",
        [
          Alcotest.test_case "deterministic polls" `Quick test_sampler_poll;
          Alcotest.test_case "shard gauges" `Quick test_sampler_shard_gauges;
        ] );
      ( "slo",
        [
          Alcotest.test_case "parse + round trip" `Quick test_slo_parse;
          Alcotest.test_case "burn evaluation" `Quick test_slo_evaluate;
        ] );
      ( "tally",
        [
          Alcotest.test_case "groups + totals + mark" `Quick test_tally_groups;
          Alcotest.test_case "shared by two stores" `Quick test_tally_shared_stores;
          Alcotest.test_case "unbound tally total-only" `Quick test_tally_unbound;
        ] );
    ]
