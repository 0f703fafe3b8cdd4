(* The metrics layer: histogram buckets and percentiles, multi-shard
   snapshots, exporters, the grouped store instrumentation, and schema
   parity between a simulator run and a real-domain run. *)

open Shared_mem

(* ----- counters and gauges ----- *)

let test_counter () =
  let c = Obs.Counter.create () in
  Obs.Counter.incr c;
  Obs.Counter.add c 5;
  Alcotest.(check int) "incr + add" 6 (Obs.Counter.get c);
  let d = Obs.Counter.create () in
  Obs.Counter.add d 4;
  Obs.Counter.merge ~into:c d;
  Alcotest.(check int) "merge adds" 10 (Obs.Counter.get c);
  Alcotest.(check int) "source untouched" 4 (Obs.Counter.get d);
  Obs.Counter.reset c;
  Alcotest.(check int) "reset" 0 (Obs.Counter.get c)

let test_gauge () =
  let g = Obs.Gauge.create () in
  Obs.Gauge.incr g;
  Obs.Gauge.incr g;
  Obs.Gauge.decr g;
  Alcotest.(check int) "current" 1 (Obs.Gauge.current g);
  Alcotest.(check int) "hwm" 2 (Obs.Gauge.hwm g);
  Obs.Gauge.observe g 9;
  Alcotest.(check int) "observe feeds hwm only" 9 (Obs.Gauge.hwm g);
  Alcotest.(check int) "observe leaves current" 1 (Obs.Gauge.current g);
  let h = Obs.Gauge.create () in
  Obs.Gauge.add h 3;
  Obs.Gauge.merge ~into:g h;
  Alcotest.(check int) "merged current adds" 4 (Obs.Gauge.current g);
  Alcotest.(check int) "merged hwm maxes" 9 (Obs.Gauge.hwm g)

(* ----- the clock ----- *)

(* Every stamp the server and its harness compare comes from
   Obs.Clock, so it must never step back and must resolve the ~100 ns
   stages it times.  250 ns is loose enough for a CI runner; a
   wall-clock reader stepping in 768 ns jumps fails it. *)
let test_clock () =
  let prev = ref (Obs.Clock.now_ns ()) and step = ref max_int in
  for _ = 1 to 100_000 do
    let t = Obs.Clock.now_ns () in
    if t < !prev then Alcotest.failf "clock stepped back by %d ns" (!prev - t);
    if t > !prev then step := min !step (t - !prev);
    prev := t
  done;
  Alcotest.(check bool)
    (Printf.sprintf "smallest step %d ns below 250 ns" !step)
    true (!step < 250)

(* ----- histograms ----- *)

let test_histogram_exact_small () =
  let h = Obs.Histogram.create () in
  List.iter (Obs.Histogram.observe h) [ 3; 3; 7; 1; 15 ];
  let s = Obs.Histogram.snap h in
  Alcotest.(check int) "count" 5 s.count;
  Alcotest.(check int) "sum" 29 s.sum;
  Alcotest.(check int) "min exact" 1 s.min;
  Alcotest.(check int) "p100 exact" 15 s.p100;
  (* values below 16 sit in exact buckets: the median really is 3 *)
  Alcotest.(check int) "p50 exact below 16" 3 s.p50

let test_histogram_percentile_error () =
  let h = Obs.Histogram.create () in
  for v = 1 to 10_000 do
    Obs.Histogram.observe h v
  done;
  let s = Obs.Histogram.snap h in
  Alcotest.(check int) "count" 10_000 s.count;
  Alcotest.(check int) "p100 is the exact max" 10_000 s.p100;
  Alcotest.(check int) "min" 1 s.min;
  let within q expected =
    let got = Obs.Histogram.percentile h q in
    let err = Float.abs (float_of_int got -. expected) /. expected in
    Alcotest.(check bool)
      (Printf.sprintf "p%.0f estimate %d within 12.5%% of %.0f" (q *. 100.) got expected)
      true (err <= 0.125)
  in
  within 0.50 5000.;
  within 0.95 9500.;
  within 0.99 9900.

let test_histogram_merge () =
  let a = Obs.Histogram.create () and b = Obs.Histogram.create () in
  List.iter (Obs.Histogram.observe a) [ 2; 300; 40 ];
  List.iter (Obs.Histogram.observe b) [ 7; 9_000 ];
  Obs.Histogram.merge ~into:a b;
  let s = Obs.Histogram.snap a in
  Alcotest.(check int) "merged count" 5 s.count;
  Alcotest.(check int) "merged sum" 9_349 s.sum;
  Alcotest.(check int) "merged min" 2 s.min;
  Alcotest.(check int) "merged p100" 9_000 s.p100

(* Property: merging per-domain shards is *exact* — the quantiles of
   the merged histogram equal, bucket for bucket, what one oracle
   histogram fed every observation reports.  This is the many-writer
   case the name server relies on (per-domain shards
   merged at the join), and it pins the percentile fix: the rank is
   taken over bucket masses, so no torn count can push a quantile off
   the end of the scan. *)
let test_histogram_shard_merge_oracle =
  Test_util.qtest ~count:300 "sharded merge = single-shard oracle"
    QCheck2.Gen.(
      pair (int_range 1 8)
        (list_size (int_range 0 200) (int_range 0 2_000_000)))
    (fun (nshards, values) ->
      let oracle = Obs.Histogram.create () in
      let shards = Array.init nshards (fun _ -> Obs.Histogram.create ()) in
      List.iteri
        (fun i v ->
          Obs.Histogram.observe oracle v;
          (* deterministic but uneven spread across the writers *)
          Obs.Histogram.observe shards.((i * 7) mod nshards) v)
        values;
      let merged = Obs.Histogram.create () in
      Array.iter (fun s -> Obs.Histogram.merge ~into:merged s) shards;
      let a = Obs.Histogram.snap merged and b = Obs.Histogram.snap oracle in
      if a <> b then
        QCheck2.Test.fail_reportf
          "merged snap diverged from oracle: p50 %d/%d p95 %d/%d p99 %d/%d p100 %d/%d"
          a.p50 b.p50 a.p95 b.p95 a.p99 b.p99 a.p100 b.p100
      else
        List.for_all
          (fun q ->
            Obs.Histogram.percentile merged q = Obs.Histogram.percentile oracle q)
          [ 0.5; 0.95; 0.99; 1.0 ])

(* A reader sampling quantiles while a writer domain is still
   observing: 99% of the mass is the value 1, so a mid-run p50 must
   stay 1 — the percentile scan ranks over the bucket mass it actually
   caught, never over a count that ran ahead of it (the failure mode
   was every quantile silently collapsing to the maximum). *)
let test_histogram_live_reader () =
  let h = Obs.Histogram.create () in
  let stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          for _ = 1 to 99 do
            Obs.Histogram.observe h 1
          done;
          Obs.Histogram.observe h 1_000_000
        done)
  in
  let ok = ref true in
  for _ = 1 to 5_000 do
    if Obs.Histogram.percentile h 0.5 > 1 then ok := false
  done;
  Atomic.set stop true;
  Domain.join writer;
  Alcotest.(check bool) "mid-run p50 follows the mass" true !ok;
  Alcotest.(check int) "quiescent p50" 1 (Obs.Histogram.percentile h 0.5)

(* ----- registry: two shards merged on snapshot ----- *)

let test_registry_two_shards () =
  let r = Obs.Registry.create ~span_capacity:2 () in
  let s1 = Obs.Registry.shard r and s2 = Obs.Registry.shard r in
  Obs.Registry.inc s1 "ops";
  Obs.Registry.inc s2 "ops";
  Obs.Registry.inc s2 "ops";
  Obs.Registry.observe s1 "cost" 10;
  Obs.Registry.observe s2 "cost" 30;
  Obs.Gauge.incr (Obs.Registry.gauge s1 "held");
  Obs.Gauge.incr (Obs.Registry.gauge s2 "held");
  let span i =
    {
      Obs.Span.name = "get";
      pid = i;
      start_step = i;
      end_step = i + 1;
      accesses = 1;
      annotations = [];
    }
  in
  List.iter (fun i -> Obs.Registry.span s1 (span i)) [ 1; 2; 3 ];
  let snap = Obs.Registry.snapshot r in
  Alcotest.(check int) "two shards" 2 snap.shards;
  Alcotest.(check (option int)) "counters add" (Some 3)
    (List.assoc_opt "ops" snap.counters);
  (match List.assoc_opt "cost" snap.histograms with
  | None -> Alcotest.fail "merged histogram missing"
  | Some h ->
      Alcotest.(check int) "histogram count" 2 h.count;
      Alcotest.(check int) "histogram p100" 30 h.p100);
  (match List.assoc_opt "held" snap.gauges with
  | None -> Alcotest.fail "merged gauge missing"
  | Some g ->
      Alcotest.(check int) "gauge currents add" 2 g.current;
      Alcotest.(check int) "gauge hwm maxes" 1 g.hwm);
  (* shard 1's ring holds 2 of its 3 spans *)
  Alcotest.(check int) "span ring bounded" 2 (List.length snap.spans);
  Alcotest.(check int) "span drops accounted" 1 snap.spans_dropped;
  Alcotest.(check int) "shard keeps newest spans" 2
    (match Obs.Registry.shard_spans s1 with
    | [ a; b ] -> b.start_step - a.start_step + 1
    | _ -> -1)

(* ----- exporters ----- *)

let exporter_snapshot () =
  let r = Obs.Registry.create () in
  let s = Obs.Registry.shard r in
  Obs.Registry.inc s "store.reads";
  Obs.Registry.observe s "op.get.accesses" 42;
  Obs.Gauge.incr (Obs.Registry.gauge s "names.held");
  Obs.Registry.span s
    {
      Obs.Span.name = "get";
      pid = 7;
      start_step = 0;
      end_step = 3;
      accesses = 3;
      annotations = [ ("name", 1) ];
    };
  Obs.Registry.snapshot r

let test_export_json () =
  let j = Obs.Export.to_json (exporter_snapshot ()) in
  List.iter
    (fun sub -> Alcotest.(check bool) ("json has " ^ sub) true
      (Test_util.contains ~sub j))
    [
      "\"schema\":\"renaming.obs/v1\"";
      "\"store.reads\":1";
      "\"op.get.accesses\"";
      "\"p100\":42";
      "\"names.held\"";
      "\"spans\"";
      "\"name\":\"get\"";
    ]

let test_export_prometheus () =
  let p = Obs.Export.to_prometheus (exporter_snapshot ()) in
  List.iter
    (fun sub -> Alcotest.(check bool) ("prometheus has " ^ sub) true
      (Test_util.contains ~sub p))
    [
      "renaming_store_reads 1";
      "renaming_names_held ";
      "renaming_names_held_hwm 1";
      "renaming_op_get_accesses_count 1";
      "renaming_op_get_accesses_max 42";
      (* native histogram exposition: typed family, cumulative
         buckets closed by +Inf, quantile gauges *)
      "# TYPE renaming_op_get_accesses histogram";
      "renaming_op_get_accesses_bucket{le=\"+Inf\"} 1";
      "renaming_op_get_accesses_sum 42";
      "# TYPE renaming_op_get_accesses_p99 gauge";
      "renaming_op_get_accesses_p99 ";
      "# TYPE renaming_store_reads counter";
      "# TYPE renaming_names_held gauge";
    ]

let test_export_json_truncation () =
  let r = Obs.Registry.create () in
  let s = Obs.Registry.shard r in
  for i = 1 to 5 do
    Obs.Registry.span s
      {
        Obs.Span.name = "get";
        pid = i;
        start_step = i;
        end_step = i + 1;
        accesses = 1;
        annotations = [];
      }
  done;
  let snap = Obs.Registry.snapshot r in
  let j = Obs.Export.to_json ~max_spans:2 snap in
  Alcotest.(check bool) "truncation is explicit" true
    (Test_util.contains ~sub:"\"spans_truncated\":3" j);
  Alcotest.(check bool) "recorded count kept" true
    (Test_util.contains ~sub:"\"recorded\":5" j);
  (* the newest spans survive the cap *)
  Alcotest.(check bool) "newest span kept" true (Test_util.contains ~sub:"\"pid\":5" j);
  Alcotest.(check bool) "oldest span cut" false (Test_util.contains ~sub:"\"pid\":1" j);
  let full = Obs.Export.to_json snap in
  Alcotest.(check bool) "uncapped export reports zero truncated" true
    (Test_util.contains ~sub:"\"spans_truncated\":0" full)

(* Regression: [op.get] and [op_get] both sanitize to [op_get]; the
   exporter must keep them as distinct series instead of silently
   merging (the second takes a stable [_x<hash>] suffix). *)
let test_export_prometheus_collision () =
  let r = Obs.Registry.create () in
  let s = Obs.Registry.shard r in
  Obs.Registry.inc s "op.get";
  Obs.Registry.inc s "op_get";
  Obs.Registry.inc s "op_get";
  let p = Obs.Export.to_prometheus (Obs.Registry.snapshot r) in
  Alcotest.(check bool) "first claimant keeps the bare name" true
    (Test_util.contains ~sub:"renaming_op_get 1" p);
  Alcotest.(check bool) "collision gets a hash suffix" true
    (Test_util.contains ~sub:"renaming_op_get_x" p);
  (* both observations survive as separate series *)
  let count_lines sub =
    List.length
      (List.filter
         (fun l -> String.length l > 0 && l.[0] <> '#' && Test_util.contains ~sub l)
         (String.split_on_char '\n' p))
  in
  Alcotest.(check int) "two distinct series exported" 2 (count_lines "renaming_op_get")

(* The journey blame/tail families publish through the same registry
   path as every other counter, so their sanitized names and # TYPE
   lines must come out stable — these are the series dashboards bind. *)
let test_export_prometheus_journeys () =
  let r = Obs.Registry.create () in
  let s = Obs.Registry.shard r in
  Array.iter
    (fun st -> Obs.Registry.count s ("journey.blame." ^ Obs.Journey.stage_name st) 100)
    Obs.Journey.stages;
  Obs.Registry.count s "journey.completed" 42;
  Obs.Registry.count s "journey.flagged" 2;
  Obs.Gauge.observe (Obs.Registry.gauge s "journey.worst_ns") 31_744;
  Obs.Gauge.observe (Obs.Registry.gauge s "journey.worst_id") 7;
  let p = Obs.Export.to_prometheus (Obs.Registry.snapshot r) in
  List.iter
    (fun sub -> Alcotest.(check bool) ("prometheus has " ^ sub) true
      (Test_util.contains ~sub p))
    [
      "# TYPE renaming_journey_blame_acquire counter";
      "renaming_journey_blame_acquire 100";
      "# TYPE renaming_journey_blame_reclaim counter";
      "# TYPE renaming_journey_completed counter";
      "renaming_journey_completed 42";
      "renaming_journey_flagged 2";
      "# TYPE renaming_journey_worst_ns gauge";
      "renaming_journey_worst_ns_hwm 31744";
      "renaming_journey_worst_id_hwm 7";
    ];
  (* the FNV-collision guard holds for the journey family too: a raw
     name that sanitizes onto an existing blame series must surface as
     its own suffixed series, never silently merge into it *)
  Obs.Registry.inc s "journey.blame_acquire";
  let p = Obs.Export.to_prometheus (Obs.Registry.snapshot r) in
  Alcotest.(check bool) "first claimant keeps the bare name" true
    (Test_util.contains ~sub:"renaming_journey_blame_acquire 100" p);
  Alcotest.(check bool) "collision gets a hash suffix" true
    (Test_util.contains ~sub:"renaming_journey_blame_acquire_x" p)

let test_export_text () =
  let t = Obs.Export.to_text (exporter_snapshot ()) in
  List.iter
    (fun sub -> Alcotest.(check bool) ("text has " ^ sub) true
      (Test_util.contains ~sub t))
    [ "store.reads"; "op.get.accesses"; "names.held" ]

(* ----- a bound Store.tally: per-register-group counters ----- *)

let test_observed_groups () =
  let layout = Layout.create () in
  let a = Layout.alloc_array layout ~name:"A" 4 0 in
  let b = Layout.alloc layout ~name:"B" 0 in
  let mem = Store.seq_create layout in
  let r = Obs.Registry.create () in
  let sh = Obs.Registry.shard r in
  let ops = Store.seq_ops ~tally:(Store.tally ~shard:sh ()) mem ~pid:1 in
  ignore (ops.read a.(0));
  ignore (ops.read a.(3));
  ops.write a.(1) 5;
  ignore (ops.read b);
  ignore (ops.rmw b (fun v -> v + 1));
  let snap = Obs.Registry.snapshot r in
  let counter name = Option.value ~default:0 (List.assoc_opt name snap.counters) in
  Alcotest.(check int) "A reads" 2 (counter "store.reads.A");
  Alcotest.(check int) "A writes" 1 (counter "store.writes.A");
  Alcotest.(check int) "B reads" 1 (counter "store.reads.B");
  Alcotest.(check int) "B rmws" 1 (counter "store.rmws.B");
  Alcotest.(check int) "total reads" 3 (counter "store.reads");
  Alcotest.(check int) "total writes" 1 (counter "store.writes");
  Alcotest.(check int) "total rmws" 1 (counter "store.rmws");
  Alcotest.(check string) "group strips the index" "A" (Store.group a.(2))

(* Store.counter is backed by the same Obs counters the registry uses,
   so the per-op tallies and any grouped series can never drift. *)
let test_counting_cannot_drift () =
  let layout = Layout.create () in
  let c = Layout.alloc layout ~name:"c" 0 in
  let mem = Store.seq_create layout in
  let cnt = Store.counter () in
  let ops = Store.counting cnt (Store.seq_ops mem ~pid:1) in
  ignore (ops.read c);
  ops.write c 1;
  ignore (ops.rmw c (fun v -> v));
  Alcotest.(check int) "reads" 1 (Store.reads cnt);
  Alcotest.(check int) "writes (rmw tallies as write)" 2 (Store.writes cnt);
  Alcotest.(check int) "accesses" 3 (Store.accesses cnt);
  Store.reset cnt;
  Alcotest.(check int) "reset" 0 (Store.accesses cnt)

(* ----- schema parity: simulator vs real domains ----- *)

(* A real-domain run exports the name server's schema ([server.*] and
   [store.*]); the simulator exports the op/names schema.  What both
   share: the per-kind store access counters, and one GetName cost
   observation per acquisition. *)
let store_counters (snap : Obs.Registry.snapshot) =
  List.filter
    (fun n -> List.mem n [ "store.reads"; "store.writes"; "store.rmws" ])
    (List.map fst snap.counters)

let hist_count (snap : Obs.Registry.snapshot) name =
  match List.assoc_opt name snap.histograms with
  | Some (h : Obs.Histogram.snap) -> h.count
  | None -> Alcotest.failf "no %s histogram" name

let sim_snapshot () =
  let layout = Layout.create () in
  let sp = Renaming.Split.create layout ~k:4 in
  let work = Layout.alloc layout ~name:"work" 0 in
  let pids = [| 1; 5; 9; 13 |] in
  let registry = Obs.Registry.create () in
  let shard = Obs.Registry.shard registry in
  let obs = Sim.Observe.create shard in
  let body =
    Workload.protocol_body ~markers:true (module Renaming.Split) sp ~work ~cycles:3
  in
  let t =
    Sim.Sched.create ~monitor:(Sim.Observe.monitor obs) layout
      (Array.map (fun pid -> (pid, body)) pids)
  in
  ignore (Sim.Sched.run t (Sim.Sched.random (Sim.Rng.make 7)));
  Sim.Observe.finalize obs;
  Obs.Registry.snapshot registry

let domain_snapshot () =
  let registry = Obs.Registry.create () in
  let r =
    (Churn.run_bare ~registry ~k:4 ~s:16 ~pids:[| 1; 5; 9; 13 |] ~cycles:3 ())
      .Churn.result
  in
  Alcotest.(check int) "no violations" 0 r.violations;
  Alcotest.(check int) "four shards" 4 (Obs.Registry.snapshot registry).shards;
  Obs.Registry.snapshot registry

let test_schema_parity () =
  let sim = sim_snapshot () and dom = domain_snapshot () in
  Alcotest.(check (list string)) "store counter schema" (store_counters sim)
    (store_counters dom);
  Alcotest.(check (list string)) "all three access kinds"
    [ "store.reads"; "store.rmws"; "store.writes" ]
    (store_counters dom);
  Alcotest.(check int) "one GetName cost per acquisition"
    (hist_count sim "op.get.accesses")
    (hist_count dom "server.acquire.accesses.cold");
  Alcotest.(check int) "acquisitions counted alike"
    (List.assoc "names.acquired" sim.counters)
    (List.assoc "server.acquired" dom.counters)

let test_domain_per_name () =
  let r =
    (Churn.run_bare ~k:3 ~s:8 ~pids:[| 2; 4; 6 |] ~cycles:5 ())
      .Churn.result
  in
  Alcotest.(check int) "no violations" 0 r.violations;
  Alcotest.(check (option string)) "no violation detail" None r.first_violation;
  Alcotest.(check bool) "per-name breakdown populated" true
    (r.max_concurrent_by_name <> []);
  List.iter
    (fun (n, m) ->
      Alcotest.(check bool)
        (Printf.sprintf "name %d held by at most one client" n)
        true (m = 1))
    r.max_concurrent_by_name

let () =
  Alcotest.run "obs"
    [
      ("clock", [ Alcotest.test_case "monotonic and fine-grained" `Quick test_clock ]);
      ( "primitives",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram exact below 16" `Quick test_histogram_exact_small;
          Alcotest.test_case "histogram percentile error" `Quick
            test_histogram_percentile_error;
          Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
          test_histogram_shard_merge_oracle;
          Alcotest.test_case "live reader never overshoots" `Slow
            test_histogram_live_reader;
        ] );
      ( "registry",
        [
          Alcotest.test_case "two shards merge" `Quick test_registry_two_shards;
          Alcotest.test_case "json exporter" `Quick test_export_json;
          Alcotest.test_case "json span truncation is explicit" `Quick
            test_export_json_truncation;
          Alcotest.test_case "prometheus exporter" `Quick test_export_prometheus;
          Alcotest.test_case "prometheus journey families" `Quick
            test_export_prometheus_journeys;
          Alcotest.test_case "prometheus name-collision regression" `Quick
            test_export_prometheus_collision;
          Alcotest.test_case "text exporter" `Quick test_export_text;
        ] );
      ( "store",
        [
          Alcotest.test_case "observed groups" `Quick test_observed_groups;
          Alcotest.test_case "counting cannot drift" `Quick test_counting_cannot_drift;
        ] );
      ( "domains",
        [
          Alcotest.test_case "schema parity with the simulator" `Quick test_schema_parity;
          Alcotest.test_case "per-name uniqueness breakdown" `Quick
            test_domain_per_name;
        ] );
    ]
