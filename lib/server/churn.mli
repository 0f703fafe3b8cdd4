(** The heavy-churn load harness: real OS domains driving a
    {!Server} with {!Workload.server_spec} request streams.

    One domain per client.  Timed arrivals are {e open-loop}: request
    [i]'s latency is measured from its scheduled arrival time, not
    from when the client got around to issuing it, so a server that
    falls behind is charged the queueing delay (no coordinated
    omission).  A closed-loop stream (every arrival [0.]) measures
    from issue instead — there is no schedule to fall behind.  Cycle
    accounting, uniqueness monitoring and leak detection all go
    through the server's {!Runtime.Agg} scoreboard; latency and
    shared-access-cost histograms are client-local {!Obs.Histogram}s
    merged after the join — the same single-writer-then-merge
    discipline as the registry.

    Every client {!Server.tend}s once per request, so the resilience
    layer is live: crashed clients are declared dead and their leases
    reclaimed {e during} the run when it lasts long enough, and the
    post-join {e settle} epilogue drives the reclaimer directly until
    nothing is outstanding (or two lease TTLs of scans have passed —
    the chaos campaign's reclaim bound). *)

(** Client-side fault behaviours, mirroring the {!Sim.Faults} actions
    on real domains (the simulator freezes a victim's scheduler slot;
    here the victim misbehaves in its own request loop).  This is the
    one fault vocabulary of every real-domain run, bare protocol runs
    ({!run_bare}) included. *)
type fault =
  | Park
      (** Acquire one name and hold it until every normal client has
          finished, then release and flush — the long-lived parked
          holder. *)
  | Stall of { request : int; spins : int }
      (** Spin [spins] times while holding the name granted for
          request [request]. *)
  | Slow of int  (** Spin this many times after every completed cycle. *)
  | Crash of { request : int }
      (** Die holding the name granted for request [request] (or, if
          that request is refused, before issuing the next one): no
          release, no flush of warm leases — whatever the client holds
          or caches leaks until the reclaimer expires its lease (or
          forever, without scans) and shows up in [outstanding]
          meanwhile.  The victim completes [request] cycles when every
          earlier request was granted. *)
  | Crash_in_drain of { drain : int }
      (** Crash at the [drain]-th drained slot this client reaches: the
          rest of the shard's range stays pending until another drain
          scans it (or the reclaimer's wedged-drain heal does). *)
  | Park_in_drain of { drain : int }
      (** Park (until every normal client finishes) at the [drain]-th
          drained slot, then resume — the wedged drainer the per-shard
          drain-staleness healing exists for. *)

val of_plan : Sim.Faults.plan -> (int * fault) list
(** Map a simulator fault plan onto client faults: victims become
    client indices; [At_access n] / [On_acquire n] / [On_note]
    occurrences become request indices (the closest real-domain
    analogue of a self-condition); [Stall n] spins [1000·n], [Slow n]
    spins [100·n] — the simulator's global-step currency rendered as
    local work. *)

(** Always-on telemetry for a run: windowed rollups of the request
    stream (per-client {!Obs.Timeseries}, merged deterministically
    after the join) plus the sampler's gauge series read from
    {!Server} probes on a dedicated domain.  Canonical series names —
    ["latency"], ["attempts"], ["attempts_failed"], ["grants"],
    ["warm"], ["sheds"], and each sampler source (e.g.
    ["shard0.pending"], ["slab.free"]) — are what {!Obs.Slo} clauses
    bind to. *)
type telemetry = {
  window_ns : int;
  latency : Obs.Timeseries.t;  (** Open-loop ns per completed request. *)
  attempts : Obs.Timeseries.t;  (** Every request issued (count-only). *)
  failed : Obs.Timeseries.t;
      (** Every refused attempt — [Busy] and [Shed] both — in its own
          series, so failed work is first-class telemetry rather than
          silently excluded from the latency story. *)
  grants : Obs.Timeseries.t;
  warm : Obs.Timeseries.t;  (** Warm grants (count-only). *)
  sheds : Obs.Timeseries.t;
  samples : (string * Obs.Timeseries.t) list;  (** Sampler series. *)
  sampler_ticks : int;
}

val telemetry_series : telemetry -> string -> Obs.Timeseries.t option
(** Lookup by canonical name — pass as [~series] to {!Obs.Slo.evaluate}. *)

(** Policy outcome census over the whole run (all clients summed):
    what happened to each issued request under the resilience policy.
    Without a policy, [retried]/[deadline]/[shed_*] stay 0 and
    refusals are visible in [attempts_failed]. *)
type outcomes = {
  issued : int;  (** Requests issued (one per request slot). *)
  granted : int;
  retried : int;  (** Backed-off re-attempts across all requests. *)
  deadline : int;  (** Requests that hit their deadline mid-retry. *)
  shed_policy : int;  (** Requests that exhausted their retries. *)
  shed_early : int;
      (** Requests shed before their first attempt because the
          observed p99 already burned the deadline. *)
}

type report = {
  result : Runtime.Agg.result;
  cycles : int;  (** Completed acquire/release cycles, all clients. *)
  acquires : int;
  warm_hits : int;
  busy : int;
  shed : int;
  drains : int;
  drained_releases : int;
  elapsed_s : float;  (** Spawn to post-join drain, on {!Obs.Clock}. *)
  throughput : float;  (** [cycles /. elapsed_s]. *)
  latency : Obs.Histogram.snap;
      (** Open-loop: nanoseconds from scheduled arrival (equals
          closed-loop for closed streams). *)
  latency_closed : Obs.Histogram.snap;
      (** Closed-loop: nanoseconds from actual issue.  The gap to
          [latency] is queueing delay — a p100 that is high only
          open-loop is backlog, not a server stall. *)
  cold_accesses : Obs.Histogram.snap;  (** Shared accesses per cold grant. *)
  warm_accesses : Obs.Histogram.snap;  (** Per warm grant — all zero. *)
  outstanding : int;
      (** Names still held after drain {e and} settle: true leaks. *)
  telemetry : telemetry;
  outcomes : outcomes;
  resilience : Server.resilience_stats;
  settle_scans : int;  (** Epilogue scans needed to reach 0 outstanding. *)
  journeys : Obs.Journey.t option;
      (** All clients' journey recorders merged (into recorder 0 of
          the array passed to {!run}): the tail reservoir, per-stage
          blame profile and exemplar-linked totals histogram for the
          whole run.  [None] when journeys were not wired. *)
}

val run :
  ?registry:Obs.Registry.t ->
  ?flight:Obs.Flight.t ->
  ?journeys:Obs.Journey.t array ->
  ?backend:(Shared_mem.Layout.t -> stage:int -> k:int -> Renaming.Protocol.Any.t) ->
  ?faults:(int * fault) list ->
  ?policy:Policy.t ->
  ?window_ns:int ->
  ?sampler_interval_ns:int ->
  config:Server.config ->
  spec:(int -> Workload.server_spec) ->
  unit ->
  report
(** [run ~config ~spec ()] creates the server, spawns [config.clients]
    domains (client [i] driven by [spec i]), joins them, flushes and
    drains every batched release, settles leaked leases through the
    reclaimer, merges flight rings, and reports.

    Without [?policy], [Busy]/[Shed] outcomes consume the request slot
    without a retry — counted (in [busy]/[shed] and the
    ["attempts_failed"] series), not latency-measured.  With a policy,
    each request is driven through {!Policy.drive}: refusals back off
    and retry under the policy's jittered schedule, deadlines and
    early sheds land in {!outcomes}.

    Telemetry is on by default: rollup windows of [window_ns] (default
    5 ms), and a sampler domain polling {!Server.sampler_sources}
    every [sampler_interval_ns] (default 1 ms; [<= 0] disables the
    sampler).  The sampler only reads — client request paths gain no
    shared accesses (warm grants stay at 0 protocol accesses).
    @raise Invalid_argument when a fault names a client out of range,
    every client parks, or [window_ns < 1]. *)

val run_bare :
  ?registry:Obs.Registry.t ->
  ?flight:Obs.Flight.t ->
  ?faults:(int * fault) list ->
  ?backend:(Shared_mem.Layout.t -> stage:int -> k:int -> Renaming.Protocol.Any.t) ->
  k:int ->
  s:int ->
  pids:int array ->
  cycles:int ->
  unit ->
  report
(** A bare protocol across real domains: {!run} over the degenerate
    server of one shard of [k], no warm cache and batch 1, so every
    grant is cold and runs the protocol's [get_name], and every
    release runs its [release_name] at once ([backend] as in
    {!Server.create}, {!Renaming.Split} by default).  Client [i] asks for
    source name [pids.(i)] (in [\[0, s)]) [cycles] times, closed-loop
    with no think time and no sampler.  The reclaimer does not scan
    during the run — a parked holder keeps its name until it wakes —
    so leaks are only reclaimed by {!run}'s post-join settle.  Flight
    records carry client indices as pids.
    @raise Invalid_argument as {!run}, e.g. when every client parks. *)
