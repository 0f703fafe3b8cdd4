module Agg = Runtime.Agg

type fault =
  | Park
  | Stall of { request : int; spins : int }
  | Slow of int
  | Crash of { request : int }
  | Crash_in_drain of { drain : int }
  | Park_in_drain of { drain : int }

let of_plan plan =
  List.map
    (fun { Sim.Faults.victim; trigger; action } ->
      let request =
        match trigger with
        | Sim.Faults.At_access n -> n
        | Sim.Faults.On_note { occurrence; _ } -> occurrence
        | Sim.Faults.On_acquire n -> n
      in
      ( victim,
        match action with
        | Sim.Faults.Park -> Park
        | Sim.Faults.Crash -> Crash { request }
        | Sim.Faults.Stall n -> Stall { request; spins = 1000 * n }
        | Sim.Faults.Slow n -> Slow (100 * n) ))
    plan

(* The live telemetry attached to a run: per-client windowed rollups
   (merged after the join — deterministically, see Timeseries) plus
   the sampler's gauge series over Server probes.  Canonical names
   feed Slo: "latency", "attempts", "attempts_failed", "grants",
   "warm", "sheds", and each sampler source under its own name. *)
type telemetry = {
  window_ns : int;
  latency : Obs.Timeseries.t;
  attempts : Obs.Timeseries.t;
  failed : Obs.Timeseries.t;
  grants : Obs.Timeseries.t;
  warm : Obs.Timeseries.t;
  sheds : Obs.Timeseries.t;
  samples : (string * Obs.Timeseries.t) list;
  sampler_ticks : int;
}

let telemetry_series tel name =
  match name with
  | "latency" -> Some tel.latency
  | "attempts" -> Some tel.attempts
  | "attempts_failed" -> Some tel.failed
  | "grants" -> Some tel.grants
  | "warm" -> Some tel.warm
  | "sheds" -> Some tel.sheds
  | other -> List.assoc_opt other tel.samples

(* Per-run policy outcome census (summed over clients after the join). *)
type outcomes = {
  issued : int;
  granted : int;
  retried : int;
  deadline : int;
  shed_policy : int;
  shed_early : int;
}

type report = {
  result : Agg.result;
  cycles : int;
  acquires : int;
  warm_hits : int;
  busy : int;
  shed : int;
  drains : int;
  drained_releases : int;
  elapsed_s : float;
  throughput : float;
  latency : Obs.Histogram.snap;
  latency_closed : Obs.Histogram.snap;
  cold_accesses : Obs.Histogram.snap;
  warm_accesses : Obs.Histogram.snap;
  outstanding : int;
  telemetry : telemetry;
  outcomes : outcomes;
  resilience : Server.resilience_stats;
  settle_scans : int;
  journeys : Obs.Journey.t option;
}

let spin n = for _ = 1 to n do Domain.cpu_relax () done

(* One client's private slice of the telemetry (single writer; merged
   after the join). *)
type rollup = {
  r_latency : Obs.Timeseries.t;
  r_attempts : Obs.Timeseries.t;
  r_failed : Obs.Timeseries.t;
  r_grants : Obs.Timeseries.t;
  r_warm : Obs.Timeseries.t;
  r_sheds : Obs.Timeseries.t;
}

let rollup ~window_ns () =
  {
    r_latency = Obs.Timeseries.create ~window_ns ();
    r_attempts = Obs.Timeseries.create ~hist:false ~window_ns ();
    r_failed = Obs.Timeseries.create ~hist:false ~window_ns ();
    r_grants = Obs.Timeseries.create ~hist:false ~window_ns ();
    r_warm = Obs.Timeseries.create ~hist:false ~window_ns ();
    r_sheds = Obs.Timeseries.create ~hist:false ~window_ns ();
  }

(* single-writer outcome counters, one record per client *)
type oc = {
  mutable o_issued : int;
  mutable o_granted : int;
  mutable o_retried : int;
  mutable o_deadline : int;
  mutable o_shed_policy : int;
  mutable o_shed_early : int;
}

let oc () =
  {
    o_issued = 0;
    o_granted = 0;
    o_retried = 0;
    o_deadline = 0;
    o_shed_policy = 0;
    o_shed_early = 0;
  }

(* A parked client grabs one name (skipping Busy/Shed request slots)
   and sits on it until every normal client has finished.  It never
   tends: its heartbeat goes stale exactly like a wedged process, so
   under resilient configs the reclaimer will (correctly) expire it —
   its wake-up release is then absorbed by the epoch fence. *)
let park_body server c (spec : Workload.server_spec) agg =
  let rec grab r =
    match Server.acquire server c ~src:(spec.source r) with
    | Server.Granted g -> g.token
    | Server.Busy | Server.Shed ->
        Domain.cpu_relax ();
        grab (r + 1)
  in
  let token = grab 0 in
  while not (Agg.all_normal_done agg) do
    Domain.cpu_relax ()
  done;
  Server.release server c ~token;
  Server.flush server c

exception Crashed

(* Drain-boundary fault hooks: the server calls them at every slot of
   a range it drains, before that slot's retirement fence, so a crash
   here leaves the rest of the range pending (the next drain of the
   shard, or the reclaimer's wedged-drain heal, retires it) but never
   half-retires a slot. *)
let install_chaos c fault agg =
  match fault with
  | Some (Crash_in_drain { drain }) ->
      let k = ref 0 in
      Server.set_chaos c
        (Some
           (fun _ ->
             let n = !k in
             incr k;
             if n = drain then raise Crashed))
  | Some (Park_in_drain { drain }) ->
      let k = ref 0 in
      let parked = ref false in
      Server.set_chaos c
        (Some
           (fun _ ->
             let n = !k in
             incr k;
             if n = drain && not !parked then begin
               parked := true;
               while not (Agg.all_normal_done agg) do
                 Domain.cpu_relax ()
               done
             end))
  | _ -> ()

let client_body server id nclients jr fault policy (spec : Workload.server_spec) ru
    counts lat_open lat_closed cold warm =
  let agg = Server.scoreboard server in
  let c = Server.client server id in
  install_chaos c fault agg;
  match fault with
  | Some Park -> park_body server c spec agg
  | _ ->
      let crash_at = match fault with Some (Crash { request }) -> request | _ -> max_int in
      let stall =
        match fault with
        | Some (Stall { request; spins }) -> Some (request, spins)
        | _ -> None
      in
      let slow = match fault with Some (Slow n) -> n | _ -> 0 in
      let park_in_drain =
        match fault with Some (Park_in_drain _) -> true | _ -> false
      in
      let obs = Server.client_obs c in
      (* Deadline-aware shedding reads this client's own latency
         rollup: the last complete window's p99, falling back to the
         live window when the series is young. *)
      let p99_ns () =
        let wns = Obs.Timeseries.window_ns ru.r_latency in
        let wid = Obs.Clock.now_ns () / wns in
        let p = Obs.Timeseries.percentile ru.r_latency ~wid:(wid - 1) 0.99 in
        if p > 0 then p else Obs.Timeseries.percentile ru.r_latency ~wid 0.99
      in
      (* A stream whose last arrival is still 0 is closed-loop: the
         scheduled time IS the issue time.  Open-loop streams schedule
         arrivals up front — the server, not the generator, eats any
         backlog (no coordinated omission).  Both clocks are recorded:
         open-loop latency from the schedule, closed-loop from issue;
         their divergence is exactly the queueing delay a
         coordinated-omission artifact would hide. *)
      let closed =
        spec.requests = 0 || spec.arrival (max 0 (spec.requests - 1)) <= 0.
      in
      let t0 = Obs.Clock.now_ns () in
      (try
         for r = 0 to spec.requests - 1 do
           if r > crash_at then raise Crashed;
           Server.tend server c;
           let sched =
             if closed then Obs.Clock.now_ns ()
             else begin
               let sched = t0 + int_of_float (spec.arrival r *. 1e9) in
               while Obs.Clock.now_ns () < sched do
                 Domain.cpu_relax ()
               done;
               sched
             end
           in
           let issue = if closed then sched else Obs.Clock.now_ns () in
           Obs.Timeseries.observe ru.r_attempts ~now:issue 1;
           counts.o_issued <- counts.o_issued + 1;
           (* one journey per request slot, id unique across clients;
              arrival is the scheduled time so the journey's total is
              exactly the open-loop latency it must explain *)
           (match jr with
           | Some j -> Obs.Journey.start j ~id:((r * nclients) + id + 1) ~now:sched
           | None -> ());
           let last_fail = ref 0 in
           (* Every refused attempt — Busy or Shed — lands in the
              dedicated attempts_failed series; sheds additionally
              keep their own series for the shed-rate SLO. *)
           let attempt () =
             (match jr with
             | Some j when !last_fail <> 0 ->
                 (* time since the previous refusal is backoff wait *)
                 Obs.Journey.retry j;
                 Obs.Journey.dwell j Obs.Journey.Backoff
                   (Obs.Clock.now_ns () - !last_fail)
             | _ -> ());
             (* heartbeat per attempt, not just per request: a retry
                storm must not read as a dead client *)
             Server.tend server c;
             match Server.acquire server c ~src:(spec.source r) with
             | Server.Granted g -> Ok (g.token, g.warm, g.accesses)
             | Server.Busy ->
                 let n = Obs.Clock.now_ns () in
                 last_fail := n;
                 Obs.Timeseries.observe ru.r_failed ~now:n 1;
                 Error `Busy
             | Server.Shed ->
                 let n = Obs.Clock.now_ns () in
                 last_fail := n;
                 Obs.Timeseries.observe ru.r_failed ~now:n 1;
                 Obs.Timeseries.observe ru.r_sheds ~now:n 1;
                 Error `Shed
           in
           let granted =
             match policy with
             | None -> (
                 match attempt () with Ok g -> Some g | Error _ -> None)
             | Some p -> (
                 match
                   Policy.drive p ~client:id ~p99_ns ~attempt ()
                 with
                 | Policy.Granted { value; retries } ->
                     counts.o_retried <- counts.o_retried + retries;
                     Some value
                 | Policy.Deadline_exceeded { retries } ->
                     counts.o_retried <- counts.o_retried + retries;
                     counts.o_deadline <- counts.o_deadline + 1;
                     None
                 | Policy.Shed { retries; early } ->
                     counts.o_retried <- counts.o_retried + retries;
                     if early then begin
                       counts.o_shed_early <- counts.o_shed_early + 1;
                       Obs.Timeseries.observe ru.r_sheds
                         ~now:(Obs.Clock.now_ns ()) 1
                     end
                     else counts.o_shed_policy <- counts.o_shed_policy + 1;
                     None)
           in
           (match granted with
           | None -> (
               match jr with
               | Some j -> Obs.Journey.finish j ~now:(Obs.Clock.now_ns ())
               | None -> ())
           | Some (token, was_warm, accesses) ->
               counts.o_granted <- counts.o_granted + 1;
               (* die holding the grant: no release, no flush *)
               if r = crash_at then raise Crashed;
               spin spec.think;
               (match stall with
               | Some (request, spins) when r = request -> spin spins
               | _ -> ());
               Server.release server c ~token;
               let fin = Obs.Clock.now_ns () in
               let d_open = fin - sched and d_closed = fin - issue in
               Obs.Histogram.observe lat_open d_open;
               Obs.Histogram.observe lat_closed d_closed;
               Obs.Histogram.observe (if was_warm then warm else cold) accesses;
               Obs.Timeseries.observe ru.r_latency ~now:fin d_open;
               Obs.Timeseries.observe ru.r_grants ~now:fin 1;
               if was_warm then Obs.Timeseries.observe ru.r_warm ~now:fin 1;
               (match jr with
               | Some j -> Obs.Journey.finish j ~now:fin
               | None -> ());
               (match obs with
               | Some o -> Obs.Registry.observe o "server.latency_ns" d_open
               | None -> ());
               Agg.cycle_done agg id);
           spin slow
         done;
         Server.flush server c
       with Crashed -> ());
      if not park_in_drain then Agg.worker_done agg

let run ?registry ?flight ?journeys ?backend ?(faults = []) ?policy
    ?(window_ns = 5_000_000) ?(sampler_interval_ns = 1_000_000)
    ~(config : Server.config) ~(spec : int -> Workload.server_spec) () =
  List.iter
    (fun (i, _) ->
      if i < 0 || i >= config.clients then
        invalid_arg "Churn.run: fault victim out of client range")
    faults;
  if window_ns < 1 then invalid_arg "Churn.run: window_ns < 1";
  let fault_of id = List.assoc_opt id faults in
  let parked =
    List.length
      (List.filter
         (fun (_, f) ->
           match f with Park | Park_in_drain _ -> true | _ -> false)
         faults)
  in
  let server = Server.create ?registry ?flight ?journeys ?backend ~parked config in
  let specs = Array.init config.clients spec in
  let lat_open = Array.init config.clients (fun _ -> Obs.Histogram.create ()) in
  let lat_closed = Array.init config.clients (fun _ -> Obs.Histogram.create ()) in
  let cold = Array.init config.clients (fun _ -> Obs.Histogram.create ()) in
  let warm = Array.init config.clients (fun _ -> Obs.Histogram.create ()) in
  let rollups = Array.init config.clients (fun _ -> rollup ~window_ns ()) in
  let countss = Array.init config.clients (fun _ -> oc ()) in
  (* The sampler polls Server probes (read-only) from its own domain,
     writing its own series and — when a registry is wired — its own
     dedicated shard, per the single-writer rule. *)
  let sampler =
    if sampler_interval_ns <= 0 then None
    else
      let shard = Option.map (fun r -> Obs.Registry.shard r) registry in
      Some
        (Obs.Sampler.create ?shard ~window_ns (Server.sampler_sources server))
  in
  let handle =
    Option.map
      (fun s ->
        Obs.Sampler.start s
          ~sleep:(fun () ->
            Unix.sleepf (float_of_int sampler_interval_ns /. 1e9)))
      sampler
  in
  let t0 = Obs.Clock.now_ns () in
  let domains =
    Array.init config.clients (fun id ->
        Domain.spawn (fun () ->
            client_body server id config.clients
              (Option.map (fun a -> a.(id)) journeys)
              (fault_of id) policy specs.(id) rollups.(id) countss.(id) lat_open.(id)
              lat_closed.(id) cold.(id) warm.(id)))
  in
  Array.iter Domain.join domains;
  let c0 = Server.client server 0 in
  Server.drain_all server c0;
  let elapsed_s = float_of_int (Obs.Clock.now_ns () - t0) /. 1e9 in
  (* Settle: whatever crashed clients leaked is reclaimed here, by
     scanning directly from the (now single-threaded) epilogue rather
     than waiting for tend-paced scans — bounded by the campaign's
     promise of two lease TTLs' worth of scans.  A clean run exits
     immediately. *)
  let settle_budget = 2 * config.resilience.lease_ttl + 2 in
  let settle = ref 0 in
  while Server.outstanding server > 0 && !settle < settle_budget do
    incr settle;
    Server.scan server c0;
    Server.drain_all server c0
  done;
  Option.iter Obs.Sampler.stop handle;
  Server.merge_flight server;
  (* journeys merge into recorder 0 (commutative; see Journey.merge) *)
  let journeys_merged =
    Option.map
      (fun a ->
        Array.iteri (fun i j -> if i > 0 then Obs.Journey.merge ~into:a.(0) j) a;
        a.(0))
      journeys
  in
  (* Publish the merged blame profile through the registry so the
     Prometheus exporter carries it like any other metric family.
     Post-join and single-threaded here, so a fresh shard is cheap and
     respects the single-writer rule. *)
  (match (registry, journeys_merged) with
  | Some r, Some j ->
      let sh = Obs.Registry.shard r in
      let s = Obs.Journey.snapshot j in
      Array.iteri
        (fun i ns ->
          Obs.Registry.count sh
            ("journey.blame." ^ Obs.Journey.stage_name Obs.Journey.stages.(i))
            ns)
        s.Obs.Journey.blame;
      Obs.Registry.count sh "journey.completed" s.Obs.Journey.completed;
      Obs.Registry.count sh "journey.flagged" s.Obs.Journey.flagged;
      (match s.Obs.Journey.worst with
      | Some w ->
          Obs.Gauge.observe
            (Obs.Registry.gauge sh "journey.worst_ns")
            w.Obs.Journey.total_ns;
          Obs.Gauge.observe
            (Obs.Registry.gauge sh "journey.worst_id")
            w.Obs.Journey.id
      | None -> ())
  | _ -> ());
  let resilience = Server.resilience_stats server in
  let result =
    Agg.result ~reclaimed:resilience.Server.reclaimed (Server.scoreboard server)
  in
  let cycles = Array.fold_left ( + ) 0 result.Agg.cycles_done in
  let sum f =
    let s = ref 0 in
    for id = 0 to config.clients - 1 do
      s := !s + f (Server.client_stats (Server.client server id))
    done;
    !s
  in
  let merge_all hs =
    let into = Obs.Histogram.create () in
    Array.iter (fun h -> Obs.Histogram.merge ~into h) hs;
    Obs.Histogram.snap into
  in
  let merge_series ~hist select =
    let into = Obs.Timeseries.create ~hist ~window_ns () in
    Array.iter (fun r -> Obs.Timeseries.merge ~into (select r)) rollups;
    into
  in
  let telemetry =
    {
      window_ns;
      latency = merge_series ~hist:true (fun r -> r.r_latency);
      attempts = merge_series ~hist:false (fun r -> r.r_attempts);
      failed = merge_series ~hist:false (fun r -> r.r_failed);
      grants = merge_series ~hist:false (fun r -> r.r_grants);
      warm = merge_series ~hist:false (fun r -> r.r_warm);
      sheds = merge_series ~hist:false (fun r -> r.r_sheds);
      samples =
        (match sampler with Some s -> Obs.Sampler.series s | None -> []);
      sampler_ticks =
        (match sampler with Some s -> Obs.Sampler.ticks s | None -> 0);
    }
  in
  let outcomes =
    Array.fold_left
      (fun acc o ->
        {
          issued = acc.issued + o.o_issued;
          granted = acc.granted + o.o_granted;
          retried = acc.retried + o.o_retried;
          deadline = acc.deadline + o.o_deadline;
          shed_policy = acc.shed_policy + o.o_shed_policy;
          shed_early = acc.shed_early + o.o_shed_early;
        })
      { issued = 0; granted = 0; retried = 0; deadline = 0; shed_policy = 0;
        shed_early = 0 }
      countss
  in
  let latency_open = merge_all lat_open in
  {
    result;
    cycles;
    acquires = sum (fun (s : Server.client_stats) -> s.acquires);
    warm_hits = sum (fun s -> s.warm_hits);
    busy = sum (fun s -> s.busy);
    shed = sum (fun s -> s.shed);
    drains = sum (fun s -> s.drains);
    drained_releases = sum (fun s -> s.drained_releases);
    elapsed_s;
    throughput = (if elapsed_s > 0. then float_of_int cycles /. elapsed_s else 0.);
    latency = latency_open;
    latency_closed = merge_all lat_closed;
    cold_accesses = merge_all cold;
    warm_accesses = merge_all warm;
    outstanding = Server.outstanding server;
    telemetry;
    outcomes;
    resilience;
    settle_scans = !settle;
    journeys = journeys_merged;
  }

let run_bare ?registry ?flight ?faults ?backend ~k ~s ~pids ~cycles () =
  let config =
    Server.default_config ~shards:1 ~k_per_shard:k ~warm_capacity:0 ~batch:1
      ~resilience:{ Server.default_resilience with scan_interval_ns = max_int }
      ~clients:(Array.length pids) ~source_space:s ()
  in
  let spec i =
    {
      Workload.requests = cycles;
      source = (fun _ -> pids.(i));
      arrival = (fun _ -> 0.);
      think = 0;
    }
  in
  run ?registry ?flight ?faults ?backend ~sampler_interval_ns:0 ~config ~spec ()
