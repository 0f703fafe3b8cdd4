(* The two kinds of run: untraced (end-to-end metrics) and traced
   (per-layer metrics, the isolation ladder and the accounting of traced
   time). *)

open Drive
module M = Report

let warmup_s = 0.2

(* Server.create is timed this many times per run; the median is
   [setup_s]. *)
let setup_reps = 6

(* Span capacity shared by the clients of a traced run. *)
let span_cap = 1 lsl 20

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

let context w ~seed ~seconds ~clock_ns extra =
  let cfg = config w in
  let g = Gc.get () in
  [
    ( "workload",
      M.Obj
        [
          ("name", M.Str w.name);
          ("why", M.Str w.why);
          ("clients", M.Int w.clients);
          ("sources", M.Str (gen_label w.gen));
          ("source_space", M.Int w.source_space);
          ("stream_len", M.Int stream_len);
          ("registry", M.Bool w.registry);
          ("shards", M.Int cfg.shards);
          ("k_per_shard", M.Int cfg.k_per_shard);
          ("warm_capacity", M.Int cfg.warm_capacity);
          ("batch", M.Int cfg.batch);
        ] );
    ("seed", M.Int seed);
    ("seconds", M.Float seconds);
    ("warmup_s", M.Float warmup_s);
    ("epoch_s", M.Float epoch_s);
    ("nproc", M.Int (Domain.recommended_domain_count ()));
    ("ocaml", M.Str Sys.ocaml_version);
    ( "gc",
      M.Obj
        [
          ("minor_heap_size", M.Int g.minor_heap_size);
          ("space_overhead", M.Int g.space_overhead);
          ("max_overhead", M.Int g.max_overhead);
          ("stack_limit", M.Int g.stack_limit);
          ("custom_major_ratio", M.Int g.custom_major_ratio);
          ("OCAMLRUNPARAM", M.Str (Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:""));
        ] );
    ("clock", M.Str Clock.source);
    ("clock_read_ns", M.Float clock_ns);
    ("clock_resolution_ns", M.Int (Clock.resolution_ns ()));
  ]
  @ extra

let resilience_json (rs : Server.resilience_stats) ~settle_scans =
  M.Obj
    [
      ("settle_scans", M.Int settle_scans);
      ("scans", M.Int rs.scans);
      ("deaths", M.Int rs.deaths);
      ("reclaimed", M.Int rs.reclaimed);
      ("drain_heals", M.Int rs.drain_heals);
      ("fenced", M.Int rs.fenced);
      ("failovers", M.Int rs.failovers);
    ]

let finish ~context ~fails ~attempted ~failed metrics =
  let correct = fails = [] in
  List.iter (fun f -> Printf.eprintf "check failed: %s\n" f) fails;
  M.print
    ~context:(M.Obj (context @ [ ("failures", M.List (List.map (fun s -> M.Str s) fails)) ]))
    ~correct ~attempted ~failed metrics;
  correct

(* ----- untraced: the end-to-end metrics ----- *)

(* One server per run, created first in a fresh process: where the
   heap places the slab's per-slot atomics decides how much cache-line
   traffic two clients share, and only the first instance of a process
   gets the same placement on every run. *)
let e2e w ~seed ~seconds =
  let srcs = sources w ~seed in
  let clock_ns = Clock.read_cost_ns () in
  let setup = ref [] in
  let timed_create () =
    let t0 = Clock.now () in
    let srv = create w in
    setup := (fi (Clock.now () - t0) *. 1e-9) :: !setup;
    srv
  in
  let srv = timed_create () in
  let outs = untraced_phase w srv srcs ~warmup_s ~seconds in
  let settle_scans = settle srv (config w) in
  let fails = failures srv outs in
  let heap_top = (Gc.quick_stat ()).top_heap_words in
  for _ = 2 to setup_reps do
    Gc.full_major ();
    ignore (Sys.opaque_identity (timed_create ()))
  done;
  let epochs = epochs_of seconds in
  let epoch_s = seconds /. fi epochs in
  let ep =
    Array.init epochs (fun e ->
        let h = Hist.create () in
        Array.iter (fun o -> Hist.merge_into ~into:h o.hists.(e)) outs;
        ( fi (sum (fun o -> o.cycles.(e)) outs) /. epoch_s,
          fi (Hist.percentile h 0.50),
          fi (Hist.percentile h 0.99) ))
  in
  let requests = sum (fun o -> o.requests) outs in
  let granted = sum (fun o -> o.granted) outs in
  let words = Array.fold_left (fun a o -> a +. o.words) 0. outs in
  let metrics =
    [
      M.metric "setup_s" "s" (Clock.median (Array.of_list !setup));
      M.metric "cycles_per_s" "cycles/s" (Clock.median (Array.map (fun (r, _, _) -> r) ep));
      M.metric "latency_p50_ns" "ns" (Clock.median (Array.map (fun (_, p, _) -> p) ep));
      M.metric "latency_p99_ns" "ns" (Clock.median (Array.map (fun (_, _, p) -> p) ep));
      M.metric "grant_frac" "share" (ratio (fi granted) (fi requests));
      M.metric "minor_words_per_cycle" "words/cycle" (ratio words (fi granted));
      M.metric "heap_top_words" "words" (fi heap_top);
    ]
  in
  let context =
    context w ~seed ~seconds ~clock_ns
      [
        ("trace", M.Int 0);
        ("setup_samples", M.List (List.rev_map (fun v -> M.Float v) !setup));
        ( "epochs_data",
          M.List (Array.to_list (Array.map (fun (r, a, b) -> M.List [ M.Float r; M.Float a; M.Float b ]) ep)) );
        ("requests", M.Int requests);
        ("granted", M.Int granted);
        ("busy", M.Int (sum (fun o -> o.busy) outs));
        ("shed", M.Int (sum (fun o -> o.shed) outs));
        ("warm", M.Int (sum (fun o -> o.warm) outs));
        ("resilience", resilience_json (Server.resilience_stats srv) ~settle_scans);
      ]
  in
  finish ~context ~fails ~attempted:requests ~failed:(sum (fun o -> o.bad) outs) metrics

(* ----- traced: the per-layer metrics ----- *)

(* The ladder; then the workload traced, on a server over the shim
   backend, until a recorder is full (at most half the seconds); then
   the same workload untraced for the rest of the seconds, the base of
   [bench.trace_overhead] and of the GC rates. *)
let traced w ~seed ~seconds =
  let t_run = Clock.now () in
  let srcs = sources w ~seed in
  let clock_ns = Clock.read_cost_ns () in
  let ladder = Ladder.run ~seed in
  let cfg = config w in
  let recorders = Array.init w.clients (fun _ -> Trace.create (span_cap / w.clients)) in
  let srv = create ~backend:Trace.backend w in
  let outs = traced_phase w srv srcs ~recorders ~warmup_s ~seconds:(seconds /. 2.) in
  let settle_scans = settle srv cfg in
  let rs = Server.resilience_stats srv in
  let base_s = Float.max 1. (seconds -. (fi (Clock.now () - t_run) *. 1e-9)) in
  let base_srv = create w in
  let base = untraced_phase w base_srv srcs ~warmup_s ~seconds:base_s in
  ignore (settle base_srv cfg : int);
  let fails = failures srv outs @ failures base_srv base in
  let s = Trace.summarize (Array.to_list recorders) in
  let requests = sum (fun o -> o.requests) outs in
  let granted = sum (fun o -> o.granted) outs in
  let g = fi granted in
  let k = s.by_kind in
  let drains = sum (fun o -> o.drains) outs in
  let wall = sum (fun o -> o.w_stop - o.w_start) outs in
  let traced_rate =
    Array.fold_left (fun a o -> a +. ratio (fi o.granted) (fi (o.w_stop - o.w_start) *. 1e-9)) 0. outs
  in
  let base_granted = sum (fun o -> o.granted) base in
  let base_rate = fi base_granted /. base_s in
  let row id = List.find (fun (r : Ladder.row) -> r.id = id) ladder in
  let ladder_metrics =
    let below = ref None in
    List.concat_map
      (fun (r : Ladder.row) ->
        let delta = match !below with None -> r.ns | Some (b : Ladder.row) -> r.ns -. b.ns in
        below := Some r;
        [
          M.metric ("ladder." ^ r.id ^ "_ns") "ns/op" r.ns;
          M.metric ("ladder." ^ r.id ^ "_accesses") "accesses/op" r.accesses;
          M.metric ("ladder." ^ r.id ^ "_words") "words/op" r.words;
          M.metric ("ladder." ^ r.id ^ "_delta_ns") "ns/op" delta;
        ])
      ladder
  in
  let metrics =
    [
      M.metric "server.acquire_warm_ns" "ns" (Trace.mean_self s Trace.acquire_warm);
      M.metric "server.acquire_cold_self_ns" "ns" (Trace.mean_self s Trace.acquire_cold);
      M.metric "server.acquire_refused_ns" "ns" (Trace.mean_self s Trace.acquire_refused);
      M.metric "server.release_self_ns" "ns" (Trace.mean_self s Trace.release);
      M.metric "server.tend_ns" "ns" (Trace.mean_self s Trace.tend);
      M.metric "server.warm_hit_frac" "share" (ratio (fi (sum (fun o -> o.warm) outs)) (fi requests));
      M.metric "server.busy_frac" "share" (ratio (fi (sum (fun o -> o.busy) outs)) (fi requests));
      M.metric "server.shed_frac" "share" (ratio (fi (sum (fun o -> o.shed) outs)) (fi requests));
      M.metric "server.drains_per_kcycle" "drains/kcycle" (1000. *. ratio (fi drains) g);
      M.metric "server.releases_per_drain" "releases/drain"
        (ratio (fi (sum (fun o -> o.drained) outs)) (fi drains));
      M.metric "server.settle_scans" "count" (fi settle_scans);
      M.metric "server.drain_heals" "count" (fi rs.drain_heals);
      M.metric "server.deaths" "count" (fi rs.deaths);
      M.metric "split.get_ns" "ns" (Trace.mean_self s Trace.split_get);
      M.metric "split.release_ns" "ns" (Trace.mean_self s Trace.split_release);
      M.metric "split.get_calls" "count" (fi k.(Trace.split_get).calls);
      M.metric "split.release_calls" "count" (fi k.(Trace.split_release).calls);
      M.metric "split.get_accesses_mean" "accesses" (Trace.mean_accesses s Trace.split_get);
      M.metric "split.get_accesses_max" "accesses" (fi k.(Trace.split_get).acc_max);
      M.metric "split.release_accesses_mean" "accesses" (Trace.mean_accesses s Trace.split_release);
      M.metric "store.accesses_per_cycle" "accesses/cycle"
        (ratio (fi (k.(Trace.split_get).acc_sum + k.(Trace.split_release).acc_sum)) g);
      M.metric "obs.registry_overhead" "ratio"
        (ratio (row "L5r_server_cold_registry").ns (row "L5_server_cold").ns);
      M.metric "gc.minor_collections_per_mcycle" "GCs/Mcycle"
        (1e6 *. ratio (fi base.(0).minor_gcs) (fi base_granted));
      M.metric "bench.clock_ns" "ns" clock_ns;
      M.metric "bench.trace_overhead" "ratio" (ratio base_rate traced_rate);
      M.metric "bench.unspanned_ns" "ns/cycle" (ratio (fi (wall - s.root_ns)) g);
      M.metric "bench.traced_requests" "count" (fi s.requests);
    ]
    @ ladder_metrics
  in
  let predictions =
    match w.name with
    | "warm-pair" -> [ ("warm_pair_split_calls_zero", M.Bool (k.(Trace.split_get).calls + k.(Trace.split_release).calls = 0)) ]
    | "cold-solo" ->
        [ ("cold_solo_warm_hit_frac_below_0.01", M.Bool (ratio (fi (sum (fun o -> o.warm) outs)) (fi requests) < 0.01)) ]
    | _ -> []
  in
  let context =
    context w ~seed ~seconds ~clock_ns
      [
        ("trace", M.Int 1);
        ("traced_requests", M.Int requests);
        ("traced_granted", M.Int granted);
        ("baseline_granted", M.Int base_granted);
        ("resilience", resilience_json rs ~settle_scans);
        ("predictions", M.Obj predictions);
      ]
  in
  finish ~context ~fails
    ~attempted:(requests + sum (fun o -> o.requests) base)
    ~failed:(sum (fun o -> o.bad) outs + sum (fun o -> o.bad) base)
    metrics
