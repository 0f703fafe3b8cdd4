(* Benchmark harness: regenerates every experiment in DESIGN.md §4
   (exact shared-access counts on the simulator) and then runs the
   wall-clock micro-benchmarks (B1–B5) on the sequential store.  Every
   timing reads Obs.Clock, and every per-op figure (B1–B5, obs, trace,
   shootout) comes from one method, [rounds]: ns and minor words per
   op from direct timed loops, the thunks compared timed back to back
   in each round.  Tables show the best round; the obs and trace gates
   decide on the median of the per-round paired ratios.

     dune exec bench/main.exe             -- everything
     dune exec bench/main.exe -- e4 e6    -- selected experiments
     dune exec bench/main.exe -- wall     -- wall-clock benches only
     dune exec bench/main.exe -- modelcheck -- model-checker throughput only
     dune exec bench/main.exe -- obs      -- lib/obs instrumentation overhead only
     dune exec bench/main.exe -- obs --smoke -- same, with fewer, shorter loops
     dune exec bench/main.exe -- trace    -- flight-recorder overhead only
     dune exec bench/main.exe -- shootout -- cross-backend shootout only
     dune exec bench/main.exe -- --csv    -- also write results/<id>_<n>.csv

   The modelcheck bench additionally writes BENCH_modelcheck.json (one
   JSON line per configuration: paths, states, pruning counters,
   paths/sec).  The obs bench writes BENCH_obs.json (bare vs
   instrumented ns/cycle, the per-round paired ratios and their
   median) and fails if the median regresses to more than 2x the
   recorded bench/obs_baseline.json.  The trace bench ("trace") does
   the same for the structural flight recorder — BENCH_trace.json,
   gated at 1.5x bench/trace_baseline.json.  Every BENCH_*.json but
   BENCH_modelcheck.json records the core count and the OCaml
   version.
   The server bench ("server") drives the sharded name server with
   Zipf churn across 4 client domains (1M+ acquire/release cycles when
   not --smoke), with the full telemetry stack on (registry shards,
   windowed rollups, the sampler domain), and writes BENCH_server.json
   (sustained acquires/sec, latency percentiles, warm-vs-cold access
   costs, a false-sharing probe).  It alternates journeys-off and
   journeys-on runs in paired rounds (7 full, 5 --smoke) and reports
   the run of median throughput on each side; full runs fail if that
   throughput drops below 0.9x the recorded bench/server_baseline.json
   (0.4x under --smoke) or the median per-round journey tax exceeds
   1.15x (1.6x under --smoke).  The obs bench likewise measures with
   the sampler live and gates full runs at min(2.0, 2x baseline).
   The shootout bench ("shootout") races every registered backend
   (lib/core/backends.ml) over the fault campaign's seed matrix —
   names used, shared accesses, solo wall-clock and name-server
   warm-hit rate per backend — and writes BENCH_backends.json,
   failing on any uniqueness violation or truncated run.
   The interference bench ("interference") runs perfbench's zipf
   closed loop in paired, alternating rounds (10 of 1 s full, 5 of
   0.2 s --smoke): two clients on one server, then each on a server of
   its own, with disjoint sources.  It writes BENCH_interference.json
   (both per-request medians, every per-round ratio) and fails if the
   median ratio exceeds 1.3x (2.0x under --smoke): what sharing one
   server adds is false sharing between its clients.
   The chaos bench ("chaos") runs the whole-server fault campaign
   (crash holding leases, crash mid-drain, parked drainer, hot-shard
   stall over a 32-seed matrix, 4 under --smoke) plus a clean run;
   its reclaimer scans are run by whichever client first tends after
   each scan interval, so a crashed victim cannot stop them.  It
   writes BENCH_chaos.json, and fails if any cell breaks its
   invariants, the clean warm path touches shared memory, or
   matrix-minimum availability drops below 0.9x the recorded
   bench/chaos_baseline.json.
   The trend bench ("trend") runs obs + server gated plus the
   shootout and chaos (smoke quota) and appends one timestamped JSON
   line combining the payloads to BENCH_history.jsonl, the cross-run
   log consumed by the CLI's [observe diff]. *)

open Shared_mem
module Split = Renaming.Split
module Filter = Renaming.Filter
module Ma = Renaming.Ma
module Pipeline = Renaming.Pipeline

(* ----- the one timing method ----- *)

(* Per-op cost of one thunk: ns on Obs.Clock, and minor-heap words. *)
type cost = { ns : float; words : float }

(* [reps] rounds of direct timed loops: each round times every thunk
   once for [iters] calls, so the thunks being compared share machine
   state, and odd rounds run them in reverse order so neither side
   always goes first.  Returns [costs.(thunk).(round)].  No GC
   stabilisation between samples: with a live sampler domain a forced
   collection is a stop-the-world stall that would land in the
   timing. *)
let rounds ~reps ~iters thunks =
  Array.iter
    (fun f ->
      for _ = 1 to iters / 10 do
        f ()
      done)
    thunks;
  let n = Array.length thunks in
  let costs = Array.init n (fun _ -> Array.make reps { ns = nan; words = nan }) in
  for r = 0 to reps - 1 do
    for j = 0 to n - 1 do
      let i = if r land 1 = 0 then j else n - 1 - j in
      let f = thunks.(i) in
      let w0 = Gc.minor_words () in
      let t0 = Obs.Clock.now_ns () in
      for _ = 1 to iters do
        f ()
      done;
      let ns = float_of_int (Obs.Clock.now_ns () - t0) /. float_of_int iters in
      costs.(i).(r) <- { ns; words = (Gc.minor_words () -. w0) /. float_of_int iters }
    done
  done;
  costs

(* The best of one thunk's rounds (noise only ever adds time); words
   come from the best round. *)
let best = Array.fold_left (fun b c -> if c.ns < b.ns then c else b) { ns = infinity; words = nan }

let measure ~reps ~iters thunks = Array.map best (rounds ~reps ~iters thunks)

let median xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The per-round ratios of thunk [i] over thunk 0 (each ratio compares
   two loops timed back to back) and their median — the overhead
   figure the obs and trace gates decide on. *)
let paired costs i =
  let ratios = Array.mapi (fun r c -> c.ns /. costs.(0).(r).ns) costs.(i) in
  (ratios, median ratios)

let print_overhead ratios overhead =
  Printf.printf "paired ratios : %s\n"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.2fx") ratios)));
  Printf.printf "overhead      : %8.2fx (median of %d paired rounds)\n" overhead
    (Array.length ratios)

let ratios_json ratios =
  "[" ^ String.concat "," (Array.to_list (Array.map (Printf.sprintf "%.3f") ratios)) ^ "]"

(* Host stamp for every committed BENCH file: core count and compiler. *)
let host_json () =
  Printf.sprintf "\"nproc\":%d,\"ocaml\":%S" (Domain.recommended_domain_count ())
    Sys.ocaml_version

(* ----- B1–B5: get/release cycles (solo, sequential store) ----- *)

let bench_split () =
  let layout = Layout.create () in
  let sp = Split.create layout ~k:8 in
  let mem = Store.seq_create layout in
  let ops = Store.seq_ops mem ~pid:123_456_789 in
  fun () ->
    let lease = Split.get_name sp ops in
    Split.release_name sp ops lease

let bench_filter () =
  let layout = Layout.create () in
  let s = 2 * 4 * 4 * 4 * 4 in
  let f =
    Filter.create layout { k = 4; d = 3; z = 29; s; participants = [| 17; 170; 340; 500 |] }
  in
  let mem = Store.seq_create layout in
  let ops = Store.seq_ops mem ~pid:17 in
  fun () ->
    let lease = Filter.get_name f ops in
    Filter.release_name f ops lease

let bench_ma () =
  let layout = Layout.create () in
  let m = Ma.create layout ~k:4 ~s:1024 in
  let mem = Store.seq_create layout in
  let ops = Store.seq_ops mem ~pid:512 in
  fun () ->
    let lease = Ma.get_name m ops in
    Ma.release_name m ops lease

let bench_pipeline () =
  let layout = Layout.create () in
  let p = Pipeline.create layout ~k:4 ~s:1_000_000 ~participants:[| 271_828 |] in
  let mem = Store.seq_create layout in
  let ops = Store.seq_ops mem ~pid:271_828 in
  fun () ->
    let lease = Pipeline.get_name p ops in
    Pipeline.release_name p ops lease

let bench_tas () =
  let layout = Layout.create () in
  let t = Renaming.Tas_baseline.create layout ~k:4 in
  let mem = Store.seq_create layout in
  let ops = Store.seq_ops mem ~pid:2 in
  fun () ->
    let lease = Renaming.Tas_baseline.get_name t ops in
    Renaming.Tas_baseline.release_name t ops lease

let run_wall_clock () =
  print_endline "\n=== Wall-clock micro-benchmarks (best of 5, sequential store) ===";
  let benches =
    [
      ("B1 split k=8 get+release", 200_000, bench_split ());
      ("B2 filter k=4 S=512 get+release", 50_000, bench_filter ());
      ("B3 ma k=4 S=1024 get+release (O(kS))", 20_000, bench_ma ());
      ("B4 pipeline k=4 S=1e6 get+release", 200_000, bench_pipeline ());
      ("B5 tas k=4 get+release (Test&Set)", 2_000_000, bench_tas ());
    ]
  in
  let tbl = Stats.table [ "benchmark"; "ns/cycle"; "words/cycle" ] in
  List.iter
    (fun (name, iters, thunk) ->
      let c = (measure ~reps:5 ~iters [| thunk |]).(0) in
      Stats.add_row tbl [ name; Printf.sprintf "%.0f" c.ns; Printf.sprintf "%.0f" c.words ])
    benches;
  Stats.print tbl

(* ----- model-checker throughput (sleep sets + state cache) ----- *)

let run_modelcheck_bench () =
  print_endline "\n=== Model checker (sleep-set POR + state cache) ===";
  let oc = open_out "BENCH_modelcheck.json" in
  let tbl =
    Stats.table
      [ "config"; "paths"; "states"; "sleep-pruned"; "cache-pruned"; "complete"; "paths/s" ]
  in
  let run label options builder =
    let rep = Sim.Model_check.check ~options builder in
    output_string oc (Sim.Model_check.report_json ~label rep);
    output_char oc '\n';
    let o = rep.outcome and s = rep.stats in
    Stats.add_row tbl
      [
        label;
        string_of_int o.paths;
        string_of_int s.states;
        string_of_int s.pruned_by_sleep;
        string_of_int s.pruned_by_cache;
        string_of_bool o.complete;
        Printf.sprintf "%.0f"
          (if s.elapsed_s > 0. then float_of_int o.paths /. s.elapsed_s else 0.);
      ]
  in
  let reduced = Sim.Model_check.default_options in
  let plain = { reduced with Sim.Model_check.por = false; cache_bound = 0 } in
  let splitter ~procs =
    Workload.splitter_config (module Renaming.Splitter) Renaming.Splitter.create
      ~pids:(Array.init procs (fun p -> p + 1))
      ~cycles:1
  in
  run "splitter_l2_plain" plain (splitter ~procs:2);
  run "splitter_l2_reduced" reduced (splitter ~procs:2);
  run "splitter_l3_reduced" reduced (splitter ~procs:3);
  run "pf_mutex_reduced" reduced
    (Workload.mutex_config ~retries:6 (module Renaming.Pf_mutex) Renaming.Pf_mutex.create
       ~cycles:2);
  close_out oc;
  Stats.print tbl;
  print_endline "wrote BENCH_modelcheck.json"

(* ----- lib/obs instrumentation overhead ----- *)

(* The recorded overhead ratio this machine class is expected to stay
   within 2x of; regenerate with [bench obs --rebaseline]. *)
let baseline_path = "bench/obs_baseline.json"

let read_baseline_key baseline_path key =
  match open_in baseline_path with
  | exception Sys_error _ -> None
  | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      let rec find i =
        if i + String.length key > String.length s then None
        else if String.sub s i (String.length key) = key then begin
          let j = ref (i + String.length key) in
          let start = !j in
          while
            !j < String.length s && (match s.[!j] with '0' .. '9' | '.' | ' ' -> true | _ -> false)
          do
            incr j
          done;
          float_of_string_opt (String.trim (String.sub s start (!j - start)))
        end
        else find (i + 1)
      in
      find 0

(* Gate [check] against the committed baseline's [key].  A missing or
   unparsable baseline fails: a gate must not pass because there was
   nothing to compare against.  [--rebaseline] writes a fresh one. *)
let gate_baseline path key check =
  match read_baseline_key path key with
  | None ->
      Printf.printf "baseline      : FAILED (no %s in %s; run with --rebaseline)\n" key
        path;
      false
  | Some base -> check base

let run_obs_bench ~smoke ~rebaseline () =
  Printf.printf
    "\n=== lib/obs instrumentation overhead (split k=8, sequential store, sampler on)%s ===\n"
    (if smoke then " [smoke]" else "");
  let layout = Layout.create () in
  let sp = Split.create layout ~k:8 in
  let mem = Store.seq_create layout in
  let pid = 123_456_789 in
  let bare_ops = Store.seq_ops mem ~pid in
  let registry = Obs.Registry.create () in
  let sh = Obs.Registry.shard ~span_capacity:4096 registry in
  (* Per-operation instrumentation in the simulator's op.* schema,
     built the way the server builds its ops: the store's own closures
     count into a tally bound to the shard (grouped access counts
     materialize at snapshot, not per access), a span per op clocked
     by its own access delta, and op.*.accesses histograms through
     handles resolved once. *)
  let tally = Store.tally ~shard:sh () in
  let inst_ops = Store.seq_ops ~tally mem ~pid in
  let clock = ref 0 in
  let get_h = Obs.Registry.histogram sh "op.get.accesses" in
  let get_c = Obs.Registry.counter sh "op.get.count" in
  let rel_h = Obs.Registry.histogram sh "op.release.accesses" in
  let rel_c = Obs.Registry.counter sh "op.release.count" in
  let record op hist count annotations =
    let accesses = Store.tally_since tally in
    Obs.Registry.record_span sh ~name:op ~pid ~start_step:!clock
      ~end_step:(!clock + accesses) ~accesses ~annotations;
    clock := !clock + accesses;
    Obs.Histogram.observe hist accesses;
    Obs.Counter.incr count
  in
  let bare () =
    let lease = Split.get_name sp bare_ops in
    Split.release_name sp bare_ops lease
  in
  let instrumented () =
    Store.tally_mark tally;
    let lease = Split.get_name sp inst_ops in
    record "get" get_h get_c [ ("name", Split.name_of sp lease) ];
    Store.tally_mark tally;
    Split.release_name sp inst_ops lease;
    record "release" rel_h rel_c []
  in
  (* Journey-recorder tax, priced the way the server pays it on a cold
     grant: start, one stage dwell, the access count, finish (the fold
     into reservoir + blame + exemplar-linked histogram).  A synthetic
     advancing clock isolates the stamping cost itself; the real
     clock-read cost is priced end-to-end by the server bench gate. *)
  let jr = Obs.Journey.create () in
  let jnow = ref 0 in
  let jid = ref 0 in
  let journeyed () =
    incr jid;
    jnow := !jnow + 64;
    Obs.Journey.start jr ~id:!jid ~now:!jnow;
    let t0 = !jnow in
    let lease = Split.get_name sp bare_ops in
    jnow := !jnow + 16;
    Obs.Journey.dwell jr Obs.Journey.Acquire (!jnow - t0);
    Obs.Journey.accesses jr 14;
    Split.release_name sp bare_ops lease;
    jnow := !jnow + 16;
    Obs.Journey.finish jr ~now:!jnow
  in
  (* Telemetry as deployed: the live sampler domain polls the arena
     throughout, exactly like the server's always-on sampler.  It runs
     under all three thunks, since [measure] alternates them rep by
     rep, so the ratios price the per-op probes. *)
  let sampler =
    Obs.Sampler.create ~window_ns:1_000_000
      ~shard:(Obs.Registry.shard registry)
      [
        { Obs.Sampler.name = "tally.total"; read = (fun () -> Store.tally_total tally) };
      ]
  in
  let handle = Obs.Sampler.start sampler ~sleep:(fun () -> Unix.sleepf 0.001) in
  let reps = if smoke then 5 else 7 in
  let iters = if smoke then 20_000 else 300_000 in
  let samples = rounds ~reps ~iters [| bare; instrumented; journeyed |] in
  Obs.Sampler.stop handle;
  let ticks = Obs.Sampler.ticks sampler in
  let costs = Array.map best samples in
  let bare_ns = costs.(0).ns and inst_ns = costs.(1).ns and journey_ns = costs.(2).ns in
  let ratios, overhead = paired samples 1 in
  let _, journey_overhead = paired samples 2 in
  Printf.printf "bare          : %8.1f ns/cycle, %.0f words (best round)\n" bare_ns
    costs.(0).words;
  Printf.printf "instrumented  : %8.1f ns/cycle, %.0f words\n" inst_ns costs.(1).words;
  Printf.printf "journeyed     : %8.1f ns/cycle, %.0f words (%.2fx, stamping only)\n"
    journey_ns costs.(2).words journey_overhead;
  print_overhead ratios overhead;
  Printf.printf "sampler ticks : %8d\n" ticks;
  let json =
    Printf.sprintf
      "{\"id\":\"obs\",\"smoke\":%b,%s,\"bare_ns\":%.1f,\"instrumented_ns\":%.1f,\"overhead\":%.3f,\"ratios\":%s,\"journeyed_ns\":%.1f,\"journey_overhead\":%.3f,\"sampler_ticks\":%d}\n"
      smoke (host_json ()) bare_ns inst_ns overhead (ratios_json ratios) journey_ns
      journey_overhead ticks
  in
  let oc = open_out "BENCH_obs.json" in
  output_string oc json;
  close_out oc;
  print_endline "wrote BENCH_obs.json";
  if rebaseline then begin
    let oc = open_out baseline_path in
    Printf.fprintf oc "{\"id\":\"obs_baseline\",\"overhead\":%.3f}\n" overhead;
    close_out oc;
    Printf.printf "recorded new baseline %.3fx in %s\n" overhead baseline_path;
    true
  end
  else
    gate_baseline baseline_path "\"overhead\":" (fun base ->
        (* full runs also enforce the absolute 2x ceiling from the
           telemetry SLO; smoke quotas are too noisy for an absolute
           bound, so they gate relative to the baseline only *)
        let ceiling = if smoke then 2.0 *. base else Float.min 2.0 (2.0 *. base) in
        let ok = (not (Float.is_nan overhead)) && overhead <= ceiling in
        Printf.printf "baseline      : %8.2fx (gate: <= %.2fx) -> %s\n" base ceiling
          (if ok then "OK" else "REGRESSED");
        ok)

(* ----- flight-recorder overhead ----- *)

(* The recorded flight-recorder overhead ratio this machine class is
   expected to stay within 1.5x of; regenerate with
   [bench trace --rebaseline]. *)
let trace_baseline_path = "bench/trace_baseline.json"

let run_trace_bench ~smoke ~rebaseline () =
  Printf.printf "\n=== flight-recorder overhead (split k=8, sequential store)%s ===\n"
    (if smoke then " [smoke]" else "");
  let layout = Layout.create () in
  let sp = Split.create layout ~k:8 in
  let mem = Store.seq_create layout in
  let pid = 123_456_789 in
  let bare_ops = Store.seq_ops mem ~pid in
  let ring = Obs.Flight.create () in
  let clock = ref 0 in
  let traced_ops =
    Store.probed (Obs.Flight.probe ring ~pid ~clock:(fun () -> !clock)) bare_ops
  in
  let bare () =
    let lease = Split.get_name sp bare_ops in
    Split.release_name sp bare_ops lease
  in
  let traced () =
    incr clock;
    let lease = Split.get_name sp traced_ops in
    Obs.Flight.record ring ~clock:!clock ~pid
      (Obs.Flight.Acquired (Split.name_of sp lease));
    Split.release_name sp traced_ops lease;
    Obs.Flight.record ring ~clock:!clock ~pid
      (Obs.Flight.Released (Split.name_of sp lease))
  in
  let reps = if smoke then 5 else 7 in
  let iters = if smoke then 20_000 else 300_000 in
  let samples = rounds ~reps ~iters [| bare; traced |] in
  let costs = Array.map best samples in
  let bare_ns = costs.(0).ns and traced_ns = costs.(1).ns in
  let ratios, overhead = paired samples 1 in
  Printf.printf "bare          : %8.1f ns/cycle, %.0f words (best round)\n" bare_ns
    costs.(0).words;
  (* per cycle: 7 splitters x (Enter + Exit + Release) + Acquired + Released *)
  Printf.printf "traced        : %8.1f ns/cycle, %.0f words (23 ring record(s)/cycle)\n"
    traced_ns costs.(1).words;
  print_overhead ratios overhead;
  let json =
    Printf.sprintf
      "{\"id\":\"trace\",\"smoke\":%b,%s,\"bare_ns\":%.1f,\"traced_ns\":%.1f,\"overhead\":%.3f,\"ratios\":%s}\n"
      smoke (host_json ()) bare_ns traced_ns overhead (ratios_json ratios)
  in
  let oc = open_out "BENCH_trace.json" in
  output_string oc json;
  close_out oc;
  print_endline "wrote BENCH_trace.json";
  if rebaseline then begin
    let oc = open_out trace_baseline_path in
    Printf.fprintf oc "{\"id\":\"trace_baseline\",\"overhead\":%.3f}\n" overhead;
    close_out oc;
    Printf.printf "recorded new baseline %.3fx in %s\n" overhead trace_baseline_path;
    true
  end
  else
    gate_baseline trace_baseline_path "\"overhead\":" (fun base ->
        (* the raw-arena record path pays for a tighter gate: 1.5x of
           the recorded baseline, down from the pre-paydown 2x *)
        let ok = (not (Float.is_nan overhead)) && overhead <= 1.5 *. base in
        Printf.printf "baseline      : %8.2fx (gate: <= %.2fx) -> %s\n" base (1.5 *. base)
          (if ok then "OK" else "REGRESSED");
        ok)

(* ----- name server under churn ----- *)

(* Sustained acquire/release throughput this machine class must stay
   within 0.4x of; regenerate with [bench server --rebaseline].  The
   generous factor absorbs CI-runner noise — the gate is for
   order-of-magnitude collapses (a lost batch path, an accidental
   global lock), not jitter. *)
let server_baseline_path = "bench/server_baseline.json"

(* Ping the same cells from [n] domains: adjacent boxed atomics share
   cache lines, Pad cells do not.  The cells are promoted first, so the
   probe measures the major-heap layout a long-running server works in
   rather than the minor heap they were allocated in.  The delta needs
   domains on separate cores to show: with one core they timeslice and
   no line ever moves between caches. *)
let hammer_ns ~iters cells =
  Gc.full_major ();
  let n = Array.length cells in
  let t0 = Obs.Clock.now_ns () in
  let ds =
    Array.init n (fun i ->
        Domain.spawn (fun () ->
            for _ = 1 to iters do
              Atomic.incr cells.(i)
            done))
  in
  Array.iter Domain.join ds;
  float_of_int (Obs.Clock.now_ns () - t0) /. float_of_int (iters * n)

let run_server_bench ~smoke ~rebaseline () =
  Printf.printf "\n=== name server under churn (4 shards x k=4, 4 client domains)%s ===\n"
    (if smoke then " [smoke]" else "");
  let clients = 4 in
  (* ~16% of closed-loop requests land Busy on a claimed hot name, so
     350k requests/client keeps completed cycles comfortably over 1M *)
  let requests = if smoke then 10_000 else 350_000 in
  let s = 4096 in
  let config =
    Server.default_config ~shards:4 ~k_per_shard:4 ~warm_capacity:2 ~batch:8 ~clients
      ~source_space:s ()
  in
  let spec client = Workload.server_churn ~s ~requests ~seed:42 ~client () in
  (* Journeys off: telemetry on — registry shards per client, windowed
     rollups, and the sampler domain polling the server probes — so
     the throughput gate below prices the always-on stack, not a
     stripped server. *)
  let run_off () = Churn.run ~config ~registry:(Obs.Registry.create ()) ~spec () in
  (* Journeys on: a recorder wired on every client.  The tail-tracing
     tax must stay within 1.15x of the journeys-off throughput (smoke
     runs are too short for that bound and gate loosely), the warm
     path must stay at 0 shared accesses, and each run's own p100 must
     be explained by a retained journey. *)
  let jbound = 7 * (4 - 1) in
  let run_on () =
    let jarr = Array.init clients (fun _ -> Obs.Journey.create ~seed:42 ~bound:jbound ()) in
    Churn.run ~config ~journeys:jarr ~spec ()
  in
  (* One run's throughput on a shared 2-core host swings by more than
     the bound, so off and on runs alternate in paired rounds (odd
     rounds on first) and the gate decides on the median of the
     per-round ratios, as the obs and trace gates do. *)
  let nrounds = if smoke then 5 else 7 in
  let pairs =
    Array.init nrounds (fun i ->
        if i land 1 = 0 then
          let off = run_off () in
          (off, run_on ())
        else
          let on = run_on () in
          (run_off (), on))
  in
  let ratios =
    Array.map
      (fun ((off : Churn.report), (on : Churn.report)) ->
        if on.throughput > 0. then off.throughput /. on.throughput else Float.infinity)
      pairs
  in
  let journey_overhead = median ratios in
  (* the figures reported are those of the run of median throughput,
     on each side *)
  let median_run runs =
    let a = Array.copy runs in
    Array.sort (fun (x : Churn.report) y -> Float.compare x.throughput y.throughput) a;
    a.(nrounds / 2)
  in
  let offs = Array.map fst pairs and ons = Array.map snd pairs in
  let report = median_run offs and jreport = median_run ons in
  let r = report.Churn.result in
  let journeys (rep : Churn.report) =
    match rep.journeys with Some j -> j | None -> assert false
  in
  let j = journeys jreport in
  let jsnap = Obs.Journey.snapshot j in
  let junexplained = Obs.Journey.unexplained_tail j in
  let jp999 = Obs.Histogram.percentile (Obs.Journey.hist j) 0.999 in
  let top_stage =
    match Obs.Journey.top_blame_stage jsnap with
    | Some (st, _) -> Obs.Journey.stage_name st
    | None -> "none"
  in
  let iters = if smoke then 200_000 else 1_000_000 in
  let adj_ns = hammer_ns ~iters (Array.init clients (fun _ -> Atomic.make 0)) in
  let padded = Pad.create clients 0 in
  let pad_ns = hammer_ns ~iters (Pad.cells padded) in
  let lat = report.Churn.latency in
  let cold = report.Churn.cold_accesses and warm = report.Churn.warm_accesses in
  let hit_rate =
    if report.Churn.acquires = 0 then 0.
    else float_of_int report.Churn.warm_hits /. float_of_int report.Churn.acquires
  in
  Printf.printf "cycles        : %d across %d domains (%.3f s)\n" report.Churn.cycles
    clients report.Churn.elapsed_s;
  Printf.printf "throughput    : %8.0f acquires/sec\n" report.Churn.throughput;
  Printf.printf "latency ns    : p50=%d p95=%d p99=%d p100=%d\n" lat.p50 lat.p95
    lat.p99 lat.p100;
  Printf.printf "warm hits     : %d (%.1f%% of acquires), %d shared accesses each\n"
    report.Churn.warm_hits (100. *. hit_rate) warm.p100;
  Printf.printf "cold accesses : mean=%.1f p99=%d\n" cold.mean cold.p99;
  Printf.printf "busy / shed   : %d / %d\n" report.Churn.busy report.Churn.shed;
  Printf.printf "sampler ticks : %d (%d series)\n"
    report.Churn.telemetry.Churn.sampler_ticks
    (List.length report.Churn.telemetry.Churn.samples);
  Printf.printf "atomics ns/inc: adjacent=%.1f padded=%.1f (false-sharing probe)\n"
    adj_ns pad_ns;
  Printf.printf "journey ratios: %s\n"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.2fx") ratios)));
  Printf.printf "journeys      : %.2fx throughput tax (median of %d paired rounds), top \
                 blame %s, p999=%d ns%s\n"
    journey_overhead nrounds top_stage jp999
    (match junexplained with
    | Some _ -> " (UNEXPLAINED TAIL)"
    | None -> "");
  Printf.printf "violations    : %d   leaked: %d\n" r.violations r.leaked;
  let json =
    Printf.sprintf
      "{\"id\":\"server\",\"smoke\":%b,%s,\"clients\":%d,\"shards\":%d,\"k_per_shard\":%d,\"source_space\":%d,\"requests_per_client\":%d,\"cycles\":%d,\"elapsed_s\":%.3f,\"acquires_per_sec\":%.0f,\"latency_ns\":{\"p50\":%d,\"p95\":%d,\"p99\":%d,\"p100\":%d},\"warm_hits\":%d,\"warm_hit_rate\":%.4f,\"warm_accesses_p100\":%d,\"cold_accesses_mean\":%.1f,\"cold_accesses_p99\":%d,\"busy\":%d,\"shed\":%d,\"drains\":%d,\"drained_releases\":%d,\"false_sharing_ns\":{\"adjacent\":%.1f,\"padded\":%.1f},\"violations\":%d,\"leaked\":%d,\"sampler_ticks\":%d,\"tail_blame\":{\"top_blame_stage\":\"%s\",\"tail_p999_ns\":%d,\"journey_overhead\":%.3f,\"journey_ratios\":%s,\"completed\":%d,\"flagged\":%d,\"unexplained\":%b}}\n"
      smoke (host_json ()) clients 4 4 s requests report.Churn.cycles
      report.Churn.elapsed_s
      report.Churn.throughput lat.p50 lat.p95 lat.p99 lat.p100 report.Churn.warm_hits
      hit_rate warm.p100 cold.mean cold.p99 report.Churn.busy report.Churn.shed
      report.Churn.drains report.Churn.drained_releases adj_ns pad_ns r.violations
      r.leaked report.Churn.telemetry.Churn.sampler_ticks top_stage jp999
      journey_overhead (ratios_json ratios) jsnap.Obs.Journey.completed
      jsnap.Obs.Journey.flagged (junexplained <> None)
  in
  let oc = open_out "BENCH_server.json" in
  output_string oc json;
  close_out oc;
  print_endline "wrote BENCH_server.json";
  let run_ok (rep : Churn.report) =
    rep.result.violations = 0 && rep.result.leaked = 0 && rep.warm_hits > 0
    && rep.warm_accesses.p100 = 0 && rep.cold_accesses.mean > 0.
  in
  let correct =
    Array.for_all run_ok offs && Array.for_all run_ok ons
    && Array.for_all (fun rep -> Obs.Journey.unexplained_tail (journeys rep) = None) ons
  in
  let journey_gate = if smoke then 1.6 else 1.15 in
  (* a NaN ratio means no run measured anything: it fails *)
  let journey_ok =
    (not (Float.is_nan journey_overhead)) && journey_overhead <= journey_gate
  in
  if not journey_ok then
    Printf.printf "journey gate  : FAILED (%.2fx > %.2fx throughput tax)\n"
      journey_overhead journey_gate;
  if not correct then begin
    print_endline
      "correctness   : FAILED (violation, leak, warm cache inert or taxed, or \
       unexplained tail)";
    false
  end
  else if not journey_ok then false
  else if rebaseline then begin
    let oc = open_out server_baseline_path in
    Printf.fprintf oc "{\"id\":\"server_baseline\",\"acquires_per_sec\":%.0f}\n"
      report.Churn.throughput;
    close_out oc;
    Printf.printf "recorded new baseline %.0f acquires/sec in %s\n"
      report.Churn.throughput server_baseline_path;
    true
  end
  else
    gate_baseline server_baseline_path "\"acquires_per_sec\":" (fun base ->
        (* full runs must hold 0.9x of the telemetry-on baseline;
           smoke runs are too short for a tight throughput bound *)
        let floor = if smoke then 0.4 *. base else 0.9 *. base in
        let ok = report.Churn.throughput >= floor in
        Printf.printf "baseline      : %8.0f acquires/sec (gate: >= %.0f) -> %s\n" base
          floor
          (if ok then "OK" else "REGRESSED");
        ok)

(* ----- interference: two clients on one server, or one server each ----- *)

(* The zipf closed loop of perfbench's zipf-pair-obs (tend, acquire,
   release when granted; the registry on), run two ways in each round:
   both clients on one server that the main domain builds, as perfbench
   builds it, and each client on a server of its own that its own
   domain builds.  Client c draws Zipf(0.99) over 2048 names shifted by
   2048·c, so no claim is shared, and every server has the two-client
   geometry, so a client owns the same shards either way.  What the
   shared server adds per request is false sharing between the
   clients, which the median per-round ratio bounds.  The bound is the worst of 10 full runs plus
   a margin; the smoke bound only catches a collapse. *)
let interference_bound = 1.3
let interference_smoke_bound = 2.0

(* One client's loop: after [warm_ns], the ns per request over the next
   [win_ns], the clock read once per 16 requests. *)
let interference_loop srv c srcs ~warm_ns ~win_ns =
  let mask = Array.length srcs - 1 in
  let t0 = Obs.Clock.now_ns () in
  let open_at = t0 + warm_ns and stop = t0 + warm_ns + win_ns in
  let i = ref 0 and i0 = ref (-1) and t_open = ref 0 and now = ref t0 in
  while !now < stop || !i0 = !i do
    for _ = 1 to 16 do
      let src = Array.unsafe_get srcs (!i land mask) in
      incr i;
      Server.tend srv c;
      match Server.acquire srv c ~src with
      | Server.Granted g -> Server.release srv c ~token:g.token
      | Server.Busy | Server.Shed -> ()
    done;
    now := Obs.Clock.now_ns ();
    if !i0 < 0 && !now >= open_at then begin
      i0 := !i;
      t_open := !now
    end
  done;
  Server.flush srv c;
  float_of_int (!now - !t_open) /. float_of_int (!i - !i0)

(* One arm of a round: the mean of the two clients' ns per request, and
   whether every server came out clean (no violation, nothing
   outstanding or leaked after the join). *)
let interference_arm ~shared ~warm_ns ~win_ns srcs =
  (* no client dies here, and the idle handle of a per-client server
     must not be declared dead *)
  let config =
    Server.default_config
      ~resilience:{ Server.default_resilience with lease_ttl = 1_000_000 }
      ~clients:2 ~source_space:4096 ()
  in
  let make () = Server.create ~registry:(Obs.Registry.create ()) config in
  let prime srv id =
    let c = Server.client srv id in
    for i = 0 to config.warm_capacity - 1 do
      match Server.acquire srv c ~src:srcs.(id).(i) with
      | Server.Granted g -> Server.release srv c ~token:g.token
      | Server.Busy | Server.Shed -> ()
    done
  in
  (* The shared server is built and primed by the main domain, as
     perfbench does.  A client's own server is built and primed by the
     client's domain, so none of its blocks sits in a pool next to the
     other server's: OCaml 5 gives each domain pools of its own. *)
  let shared_srv = if shared then Some (make ()) else None in
  Option.iter (fun srv -> prime srv 0; prime srv 1) shared_srv;
  let ready = Atomic.make 0 in
  let ds =
    Array.init 2 (fun id ->
        Domain.spawn (fun () ->
            let srv =
              match shared_srv with
              | Some srv -> srv
              | None ->
                  let srv = make () in
                  prime srv id;
                  srv
            in
            Atomic.incr ready;
            while Atomic.get ready < 2 do
              Domain.cpu_relax ()
            done;
            (interference_loop srv (Server.client srv id) srcs.(id) ~warm_ns ~win_ns, srv)))
  in
  let runs = Array.map Domain.join ds in
  let clean (_, srv) =
    Server.drain_all srv (Server.client srv 0);
    let r = Runtime.Agg.result (Server.scoreboard srv) in
    r.violations = 0 && r.leaked = 0 && Server.outstanding srv = 0
  in
  ((fst runs.(0) +. fst runs.(1)) /. 2., Array.for_all clean runs)

let run_interference_bench ~smoke () =
  let nrounds = if smoke then 5 else 10 in
  let win_ns = if smoke then 200_000_000 else 1_000_000_000 in
  let warm_ns = if smoke then 50_000_000 else 200_000_000 in
  Printf.printf
    "\n=== interference: 2 zipf clients on one server vs one server each (%d rounds \
     of %d ms)%s ===\n"
    nrounds (win_ns / 1_000_000)
    (if smoke then " [smoke]" else "");
  let srcs =
    Array.init 2 (fun id ->
        let draw = Workload.zipf ~stream:id ~s:2048 ~seed:1 () in
        Array.init 65536 (fun i -> (2048 * id) + draw i))
  in
  (* odd rounds run the per-client servers first *)
  let rounds =
    Array.init nrounds (fun r ->
        let arm shared = interference_arm ~shared ~warm_ns ~win_ns srcs in
        if r land 1 = 0 then
          let sh = arm true in
          (sh, arm false)
        else
          let sep = arm false in
          (arm true, sep))
  in
  let shared = Array.map (fun ((ns, _), _) -> ns) rounds in
  let separate = Array.map (fun (_, (ns, _)) -> ns) rounds in
  let clean = Array.for_all (fun ((_, a), (_, b)) -> a && b) rounds in
  let ratios = Array.map2 ( /. ) shared separate in
  let ratio = median ratios in
  let bound = if smoke then interference_smoke_bound else interference_bound in
  let fmt_ns a = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.0f") a)) in
  Printf.printf "shared ns/req : %s (median %.0f)\n" (fmt_ns shared) (median shared);
  Printf.printf "own ns/req    : %s (median %.0f)\n" (fmt_ns separate) (median separate);
  print_overhead ratios ratio;
  let floats a = "[" ^ String.concat "," (Array.to_list (Array.map (Printf.sprintf "%.1f") a)) ^ "]" in
  let json =
    Printf.sprintf
      "{\"id\":\"interference\",\"smoke\":%b,%s,\"rounds\":%d,\"window_ms\":%d,\"shared_ns\":%s,\"separate_ns\":%s,\"shared_median_ns\":%.1f,\"separate_median_ns\":%.1f,\"ratios\":%s,\"ratio\":%.3f,\"bound\":%.2f,\"clean\":%b}\n"
      smoke (host_json ()) nrounds (win_ns / 1_000_000) (floats shared) (floats separate)
      (median shared) (median separate) (ratios_json ratios) ratio bound clean
  in
  let oc = open_out "BENCH_interference.json" in
  output_string oc json;
  close_out oc;
  print_endline "wrote BENCH_interference.json";
  if not clean then print_endline "correctness   : FAILED (violation, leak or name outstanding)";
  (* a NaN ratio means no round measured anything: it fails *)
  let ok = (not (Float.is_nan ratio)) && ratio <= bound in
  Printf.printf "gate          : %.2fx <= %.2fx -> %s\n" ratio bound
    (if ok then "OK" else "FAILED");
  clean && ok

(* ----- chaos: availability under the fault campaign ----- *)

(* A clean (no-fault) run prices the resilience stack and records the
   availability baseline; the seeded chaos matrix then gates that
   availability holds to within 0.9x of it with every fault plan
   firing.  The warm path must stay at zero shared accesses in the
   clean run — resilience must not tax the fast path. *)
let chaos_baseline_path = "bench/chaos_baseline.json"

let run_chaos_bench ~smoke ~rebaseline () =
  let seeds =
    List.filteri (fun i _ -> i < if smoke then 4 else 32) Campaign.default_seeds
  in
  let requests = if smoke then 600 else 1500 in
  Printf.printf "\n=== chaos campaign (%d seeds x %d faults, %d requests/client)%s ===\n"
    (List.length seeds)
    (List.length Campaign.chaos_faults)
    requests
    (if smoke then " [smoke]" else "");
  let clean = Campaign.chaos_clean ~requests ~seed:(List.hd seeds) () in
  let oc = clean.Churn.outcomes in
  let clean_avail =
    if oc.Churn.issued = 0 then 0.
    else float_of_int oc.Churn.granted /. float_of_int oc.Churn.issued
  in
  let warm_p100 = clean.Churn.warm_accesses.Obs.Histogram.p100 in
  let clean_unexplained =
    match clean.Churn.journeys with
    | Some j -> Obs.Journey.unexplained_tail j <> None
    | None -> false
  in
  Printf.printf "clean         : %.4f availability, warm p100=%d accesses, tail %s\n"
    clean_avail warm_p100
    (if clean_unexplained then "UNEXPLAINED" else "explained");
  let outcomes = Campaign.run_chaos ~seeds ~requests () in
  let matrix_ok = Campaign.chaos_ok outcomes in
  let avail =
    List.fold_left
      (fun m o -> Float.min m o.Campaign.co_availability)
      clean_avail outcomes
  in
  let deaths =
    List.fold_left (fun s o -> s + o.Campaign.co_deaths) 0 outcomes
  in
  let worst_reclaim =
    List.fold_left (fun m o -> max m o.Campaign.co_reclaim_scans) 0 outcomes
  in
  List.iter
    (fun o ->
      if not o.Campaign.co_ok then
        Printf.printf "cell FAILED   : seed=%#x fault=%s: %s\n" o.Campaign.co_seed
          (Campaign.chaos_fault_name o.Campaign.co_fault)
          o.Campaign.co_msg)
    outcomes;
  Printf.printf "matrix        : %d cells, %d deaths, worst reclaim %d scans -> %s\n"
    (List.length outcomes) deaths worst_reclaim
    (if matrix_ok then "OK" else "FAILED");
  Printf.printf "availability  : %.4f (matrix minimum)\n" avail;
  let json =
    Printf.sprintf
      "{\"id\":\"chaos\",\"smoke\":%b,%s,\"seeds\":%d,\"requests_per_client\":%d,\"cells\":%d,\"matrix_ok\":%b,\"deaths\":%d,\"worst_reclaim_scans\":%d,\"clean_availability\":%.4f,\"warm_accesses_p100\":%d,\"clean_tail_unexplained\":%b,\"chaos_availability\":%.4f}\n"
      smoke (host_json ()) (List.length seeds) requests (List.length outcomes) matrix_ok
      deaths
      worst_reclaim clean_avail warm_p100 clean_unexplained avail
  in
  let oc = open_out "BENCH_chaos.json" in
  output_string oc json;
  close_out oc;
  print_endline "wrote BENCH_chaos.json";
  if warm_p100 <> 0 then begin
    Printf.printf "warm path     : FAILED (%d shared accesses on a warm grant)\n"
      warm_p100;
    false
  end
  else if clean_unexplained then begin
    print_endline
      "tail          : FAILED (clean-run p100 has no journey behind it)";
    false
  end
  else if not matrix_ok then false
  else if rebaseline then begin
    let oc = open_out chaos_baseline_path in
    Printf.fprintf oc "{\"id\":\"chaos_baseline\",\"availability\":%.4f}\n" avail;
    close_out oc;
    Printf.printf "recorded new baseline %.4f availability in %s\n" avail
      chaos_baseline_path;
    true
  end
  else
    gate_baseline chaos_baseline_path "\"availability\":" (fun base ->
        let floor = 0.9 *. base in
        let ok = avail >= floor in
        Printf.printf "baseline      : %8.4f availability (gate: >= %.4f) -> %s\n"
          base floor
          (if ok then "OK" else "REGRESSED");
        ok)

(* ----- cross-backend shootout ----- *)

(* Every registered backend (lib/core/backends.ml), one row each, over
   the fault campaign's seed matrix: names used and shared-access
   distribution from seeded concurrent simulator runs (gated on zero
   uniqueness violations), solo wall-clock on the sequential store,
   and — for backends that can serve arbitrary source names — the
   warm-hit rate and sustained throughput of the real name server
   under Zipf churn.  Writes BENCH_backends.json: one JSON object,
   one line, with a per-backend array plus the two cross-backend
   scalars ("worst_get_accesses", "best_warm_hit_rate") that [observe
   diff] tracks across trend entries. *)

type shootout_row = {
  b_spec : Renaming.Backends.spec;
  b_name_space : int;
  b_names_used : int;
  b_max_name : int;
  b_get_mean : float;
  b_get_max : int;
  b_rel_mean : float;
  b_wall_ns : float;
  b_warm : (float * float) option;  (** hit rate, acquires/sec *)
  b_violations : int;
  b_truncated : int;
}

let run_backends_bench ~smoke () =
  Printf.printf "\n=== cross-backend shootout (k=4, campaign seed matrix)%s ===\n"
    (if smoke then " [smoke]" else "");
  let k = 4 and s = 64 in
  let seeds =
    let all = Campaign.default_seeds in
    if smoke then List.filteri (fun i _ -> i < 8) all else all
  in
  let cycles = if smoke then 2 else 4 in
  let measure_backend (spec : Renaming.Backends.spec) =
    let pids = Renaming.Backends.default_pids ~k ~s in
    let module A = Renaming.Protocol.Any in
    (* --- seeded concurrent runs: names used, access costs, uniqueness --- *)
    let name_space = ref 0 in
    let names_used = ref 0 and max_name = ref (-1) in
    let costs = Workload.costs () in
    let violations = ref 0 and truncated = ref 0 in
    List.iter
      (fun seed ->
        let layout = Layout.create () in
        let proto = spec.build layout ~k ~s ~participants:pids in
        name_space := A.name_space proto;
        let work = Layout.alloc layout ~name:"work" 0 in
        let body = Workload.protocol_body ~costs (module A) proto ~work ~cycles in
        let u = Sim.Checks.uniqueness ~name_space:!name_space () in
        let t =
          Sim.Sched.create
            ~monitor:(Sim.Checks.uniqueness_monitor u)
            layout
            (Array.map (fun pid -> (pid, body)) pids)
        in
        (match
           Sim.Sched.run ~max_steps:2_000_000 t (Sim.Sched.random (Sim.Rng.make seed))
         with
        | outcome -> if outcome.Sim.Sched.truncated then incr truncated
        | exception Sim.Model_check.Violation _ -> incr violations);
        names_used := max !names_used (Sim.Checks.names_used u);
        max_name := max !max_name (Sim.Checks.max_name u))
      seeds;
    let mean = function
      | [] -> 0.
      | l ->
          float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)
    in
    let maxi l = List.fold_left max 0 l in
    (* --- solo wall clock, sequential store --- *)
    let wall_ns =
      let layout = Layout.create () in
      let proto = spec.build layout ~k ~s ~participants:pids in
      let mem = Store.seq_create layout in
      let ops = Store.seq_ops mem ~pid:pids.(0) in
      let reps = if smoke then 1 else 3 in
      let iters = if smoke then 20_000 else 200_000 in
      let cycle () =
        let lease = A.get_name proto ops in
        A.release_name proto ops lease
      in
      (measure ~reps ~iters [| cycle |]).(0).ns
    in
    (* --- name server under Zipf churn: warm-hit rate --- *)
    let warm =
      if spec.fixed_participants then None
      else begin
        let source_space = 256 in
        let config =
          Server.default_config ~shards:2 ~k_per_shard:k ~warm_capacity:2 ~batch:8
            ~clients:2 ~source_space ()
        in
        let backend layout ~stage:_ ~k =
          spec.build layout ~k ~s:source_space
            ~participants:(Renaming.Backends.default_pids ~k ~s:source_space)
        in
        let requests = if smoke then 2_000 else 20_000 in
        let report =
          Churn.run ~backend ~config
            ~spec:(fun client ->
              Workload.server_churn ~s:source_space ~requests ~seed:42 ~client ())
            ()
        in
        if report.Churn.result.violations > 0 || report.Churn.result.leaked > 0 then begin
          incr violations;
          None
        end
        else
          let rate =
            if report.Churn.acquires = 0 then 0.
            else
              float_of_int report.Churn.warm_hits /. float_of_int report.Churn.acquires
          in
          Some (rate, report.Churn.throughput)
      end
    in
    {
      b_spec = spec;
      b_name_space = !name_space;
      b_names_used = !names_used;
      b_max_name = !max_name;
      b_get_mean = mean costs.get;
      b_get_max = maxi costs.get;
      b_rel_mean = mean costs.release;
      b_wall_ns = wall_ns;
      b_warm = warm;
      b_violations = !violations;
      b_truncated = !truncated;
    }
  in
  let rows = List.map measure_backend (Renaming.Backends.all ()) in
  let tbl =
    Stats.table
      [
        "backend"; "names (space)"; "max"; "get acc mean"; "get max"; "rel mean";
        "ns/cycle"; "warm hit"; "verdict";
      ]
  in
  List.iter
    (fun r ->
      Stats.add_row tbl
        [
          r.b_spec.name;
          Printf.sprintf "%d (%d)" r.b_names_used r.b_name_space;
          string_of_int r.b_max_name;
          Printf.sprintf "%.1f" r.b_get_mean;
          string_of_int r.b_get_max;
          Printf.sprintf "%.1f" r.b_rel_mean;
          Printf.sprintf "%.0f" r.b_wall_ns;
          (match r.b_warm with
          | Some (rate, _) -> Printf.sprintf "%.1f%%" (100. *. rate)
          | None -> "n/a");
          (if r.b_violations = 0 && r.b_truncated = 0 then "OK" else "FAILED");
        ])
    rows;
  Stats.print tbl;
  let worst_get =
    List.fold_left (fun acc r -> max acc r.b_get_max) 0 rows
  in
  let best_warm =
    List.fold_left
      (fun acc r -> match r.b_warm with Some (rate, _) -> Float.max acc rate | None -> acc)
      0. rows
  in
  let row_json r =
    Printf.sprintf
      "{\"backend\":%S,\"summary\":%S,\"read_write_only\":%b,\"name_space\":%d,\"names_used\":%d,\"max_name\":%d,\"get_accesses\":{\"mean\":%.2f,\"max\":%d},\"release_accesses_mean\":%.2f,\"wall_ns\":%.1f,%s\"violations\":%d,\"truncated\":%d}"
      r.b_spec.name r.b_spec.summary r.b_spec.read_write_only r.b_name_space
      r.b_names_used r.b_max_name r.b_get_mean r.b_get_max r.b_rel_mean r.b_wall_ns
      (match r.b_warm with
      | Some (rate, tput) ->
          Printf.sprintf "\"warm_hit_rate\":%.4f,\"server_acquires_per_sec\":%.0f," rate
            tput
      | None -> "\"warm_hit_rate\":null,")
      r.b_violations r.b_truncated
  in
  let json =
    Printf.sprintf
      "{\"id\":\"backends\",\"smoke\":%b,%s,\"k\":%d,\"s\":%d,\"seeds\":%d,\"cycles\":%d,\"worst_get_accesses\":%d,\"best_warm_hit_rate\":%.4f,\"backends\":[%s]}\n"
      smoke (host_json ()) k s (List.length seeds) cycles worst_get best_warm
      (String.concat "," (List.map row_json rows))
  in
  let oc = open_out "BENCH_backends.json" in
  output_string oc json;
  close_out oc;
  print_endline "wrote BENCH_backends.json";
  let bad =
    List.filter (fun r -> r.b_violations > 0 || r.b_truncated > 0) rows
  in
  List.iter
    (fun r ->
      Printf.printf "uniqueness gate: %s FAILED (%d violations, %d truncated)\n"
        r.b_spec.name r.b_violations r.b_truncated)
    bad;
  bad = []

(* ----- trend: both gated benches, appended to the history log ----- *)

(* Every gated run of [bench trend] appends one JSON line (timestamp +
   the BENCH_obs.json and BENCH_server.json payloads it just wrote) to
   BENCH_history.jsonl.  [observe diff] in the CLI compares the last
   two entries and fails on regression beyond tolerance — the history
   file is the cross-run memory the per-run gates don't have. *)
let history_path = "BENCH_history.jsonl"

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Some (String.trim s)

let run_trend_bench ~smoke ~rebaseline () =
  let obs_ok = run_obs_bench ~smoke ~rebaseline () in
  let server_ok = run_server_bench ~smoke ~rebaseline () in
  (* shootout always runs in smoke quota under trend: the tracked keys
     (worst accesses, warm-hit rate) are seed-deterministic counts and
     rates, not wall-clock, so the short quota does not blur them *)
  let backends_ok = run_backends_bench ~smoke:true () in
  (* chaos likewise runs in smoke quota under trend: the tracked key
     (matrix-minimum availability) is a rate over a seeded fault
     matrix, not wall-clock, and four seeds bound the tail well enough
     for the cross-run diff *)
  let chaos_ok = run_chaos_bench ~smoke:true ~rebaseline () in
  let entry key path =
    match read_file path with
    | Some line when line <> "" -> Printf.sprintf "%S:%s" key line
    | Some _ | None -> Printf.sprintf "%S:null" key
  in
  let line =
    Printf.sprintf "{\"ts\":%.0f,%s,%s,%s,%s}\n" (Unix.time ())
      (entry "obs" "BENCH_obs.json")
      (entry "server" "BENCH_server.json")
      (entry "backends" "BENCH_backends.json")
      (entry "chaos" "BENCH_chaos.json")
  in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 history_path in
  output_string oc line;
  close_out oc;
  Printf.printf
    "\nappended trend entry to %s (obs %s, server %s, backends %s, chaos %s)\n"
    history_path
    (if obs_ok then "OK" else "FAILED")
    (if server_ok then "OK" else "FAILED")
    (if backends_ok then "OK" else "FAILED")
    (if chaos_ok then "OK" else "FAILED");
  obs_ok && server_ok && backends_ok && chaos_ok

(* ----- driver ----- *)

let write_csvs (r : Experiments.report) =
  (try Sys.mkdir "results" 0o755 with Sys_error _ -> ());
  List.iteri
    (fun i (_, tbl) ->
      let path = Printf.sprintf "results/%s_%d.csv" r.id i in
      let oc = open_out path in
      output_string oc (Stats.to_csv tbl);
      output_char oc '\n';
      close_out oc)
    r.tables

let () =
  (* Every minor collection in a multi-domain run (sampler, churn
     clients) is a cross-domain stop-the-world rendezvous; an 8M-word
     nursery keeps that rendezvous rate off the measured paths.  The
     same sizing is the deployment guidance in EXPERIMENTS.md. *)
  Gc.set { (Gc.get ()) with minor_heap_size = 8 * 1024 * 1024 };
  let args = List.tl (Array.to_list Sys.argv) in
  let csv = List.mem "--csv" args in
  let smoke = List.mem "--smoke" args in
  let rebaseline = List.mem "--rebaseline" args in
  let args =
    List.filter (fun a -> not (List.mem a [ "--csv"; "--smoke"; "--rebaseline" ])) args
  in
  let wanted = if args = [] then List.map (fun (id, _, _) -> id) Experiments.all else args in
  let failures = ref 0 in
  let reports = ref [] in
  List.iter
    (fun id ->
      if String.equal id "wall" then run_wall_clock ()
      else if String.equal id "modelcheck" then run_modelcheck_bench ()
      else if String.equal id "obs" then begin
        if not (run_obs_bench ~smoke ~rebaseline ()) then incr failures
      end
      else if String.equal id "trace" then begin
        if not (run_trace_bench ~smoke ~rebaseline ()) then incr failures
      end
      else if String.equal id "server" then begin
        if not (run_server_bench ~smoke ~rebaseline ()) then incr failures
      end
      else if String.equal id "interference" then begin
        if not (run_interference_bench ~smoke ()) then incr failures
      end
      else if String.equal id "chaos" then begin
        if not (run_chaos_bench ~smoke ~rebaseline ()) then incr failures
      end
      else if String.equal id "shootout" then begin
        if not (run_backends_bench ~smoke ()) then incr failures
      end
      else if String.equal id "trend" then begin
        if not (run_trend_bench ~smoke ~rebaseline ()) then incr failures
      end
      else
        match Experiments.find id with
        | None ->
            Printf.eprintf "unknown experiment %S (known: e1..e13, wall, modelcheck, obs, trace, server, interference, chaos, shootout, trend)\n"
              id
        | Some run ->
            let r = run () in
            Format.printf "%a" Experiments.pp_report r;
            if csv then write_csvs r;
            reports := r :: !reports;
            if not r.ok then incr failures)
    wanted;
  if args = [] then begin
    run_wall_clock ();
    run_modelcheck_bench ();
    if not (run_obs_bench ~smoke ~rebaseline ()) then incr failures;
    if not (run_trace_bench ~smoke ~rebaseline ()) then incr failures;
    if not (run_server_bench ~smoke ~rebaseline ()) then incr failures
  end;
  (match !reports with
  | [] -> ()
  | rs ->
      print_endline "\n=== Summary ===";
      let tbl = Stats.table [ "experiment"; "title"; "result" ] in
      List.iter
        (fun (r : Experiments.report) ->
          Stats.add_row tbl [ r.id; r.title; (if r.ok then "OK" else "FAILED") ])
        (List.rev rs);
      Stats.print tbl);
  if !failures > 0 then exit 1
