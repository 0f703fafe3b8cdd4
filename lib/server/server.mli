(** Renaming as a service: a sharded, batched, {e self-healing} name
    server.

    The paper's {e long-lived} property — names can be acquired and
    released forever, at a cost independent of the unbounded source
    space — is exactly what makes a name {e server} viable.  This
    module turns the protocol objects into one:

    {ul
    {- {b Sharding.}  A pool of {!Renaming.Protocol.S} instances (one
       per shard, each over its own layout and atomic store, labelled
       [~stage:shard] for the flight recorder).  Cold grants are routed
       by client: with [n] clients on [s] shards, client [c] owns the
       shards [{sh | sh ≡ c (mod n)}] when [n ≤ s], and a seed-fixed
       hash of the source name picks among them; when [n > s] it uses
       shard [c mod s].  So while [n ≤ s] no two clients share a shard,
       and a client's protocol registers and slot fences are written by
       its own grants only; a single client hashes over every shard.
       Per-shard concurrency is capped at the shard protocol's [k], so
       every instance runs inside its correctness precondition; the
       global destination space is the concatenation of the shard
       spaces.}
    {- {b A preallocated lock-free request slab.}  Every held name is
       carried by one slot of a fixed slab of [shards × k] slots, and
       shard [sh] owns the range [\[sh·k, sh·k + k)].  The range {e is}
       the shard's admission: a grant is admitted by one CAS that takes
       a FREE slot of it, so a shard never carries more than [k] leases
       (held, warm or pending) and keeps no counter beside its slots'
       fences.  When no slot is FREE the grant flushes its own warm
       leases on the shard, drains it and looks again, up to three
       times, before it answers {!outcome.Shed}.  A request allocates
       no slab state, the token handed to a client names its slot and
       the slot's grant generation (so a token a reclaim retired never
       names a later lease of the same slot), and each slot's fields
       sit on cache lines of their own.}
    {- {b Batched release draining.}  {!release} does not run the
       protocol's [release_name]: the lease parks in the client's warm
       cache or is fenced {e pending} in its slot, and whichever
       client trips the [batch] threshold (or needs admission
       capacity, or calls {!flush} or {!drain_all}) drains the shard
       by scanning its range and retiring every pending slot —
       releases are executed off the acquire path, in batches.}
    {- {b Re-granting leases the server still holds.}  A released name
       stays {e held} from the protocol's point of view until a drain
       retires it, whether it sits in its client's warm cache or
       pending in its slot.  A re-acquire of the same source name by
       the same client takes it back with {b zero} protocol (store)
       accesses: from the cache, or from the shard's range when the
       lease is pending.  This is legal {e precisely because renaming
       is long-lived}: the server never returned the name, it merely
       held it longer — §2's uniqueness condition cannot be violated
       by re-granting a name to the process that already holds it.
       The claim table keeps every {e other} client out
       ({!outcome.Busy}) until the lease is actually drained.}
    {- {b Resilience.}  Every lease retirement — batched drain or
       crash reclaim — must win a CAS on the slot's {e retirement
       fence}, so it happens exactly once no matter how drains,
       reclaims and fenced clients interleave.  Liveness rides on
       {!tend}: clients heartbeat, and one of them cooperatively holds
       the {e reclaimer seat} — scanning for dead clients (reclaiming
       their leases through the protocol's [reset_footprint] and
       sweeping their claims) and healing wedged drains: when per-shard
       {!Health} sees one lease sit pending for [drain_stale] scans,
       the seat drains that shard.  No shard is ever taken out of
       service or routed around: uniqueness rests on the per-source
       claim table alone, so the route carries no safety, and a
       crashed client's leases come back through the reclaim.  A
       client declared dead by mistake is {e fenced} by its epoch: it
       re-syncs and carries on, its stale tokens dying silently rather
       than double-retiring.}}

    Uniqueness is monitored on-line through a {!Runtime.Agg}
    scoreboard, and when a registry / flight ring is supplied every
    client writes its own shard / ring — cold grants and protocol
    releases are recorded as [Acquired] / [Released] under the index of
    the client that owns the lease, whichever client retires it — so
    the whole [lib/obs] stack (occupancy, provenance, Perfetto export)
    applies to server runs unchanged.  A bare
    protocol run is the degenerate config of one shard, no warm cache
    and batch 1 ({!Churn.run_bare}). *)

module Health = Health
module Policy = Policy

type resilience = {
  scan_interval_ns : int;
      (** Wall-clock spacing between reclaimer scans ([0] = every
          eligible {!tend}). *)
  lease_ttl : int;
      (** Scans without a heartbeat before a client is declared dead. *)
  seat_ttl : int;
      (** Silent scan intervals before the reclaimer seat is stolen. *)
  tend_every : int;  (** {!tend} calls between seat/epoch checks. *)
  drain_stale : int;
      (** Scans one lease may sit pending before the seat drains its
          shard (see {!Health}). *)
}

val default_resilience : resilience
(** [scan_interval_ns = 1ms], [lease_ttl = 8], [seat_ttl = 4],
    [tend_every = 32], [drain_stale = 4]. *)

type config = {
  shards : int;  (** Protocol instances in the pool. *)
  k_per_shard : int;
      (** Slots in each shard's range: the shard's leases, held, warm
          or pending, never exceed it. *)
  source_space : int;  (** Size [S] of the source name space. *)
  warm_capacity : int;  (** Warm leases cached per client ([0] disables). *)
  batch : int;
      (** PENDING slots on a shard that trip its drain: a release that
          leaves [batch] of the shard's fences PENDING drains it; [1]
          retires each release at once, by the releaser.  A range of
          [k_per_shard] fences never holds more, so a batch above
          [k_per_shard] never trips: such a shard drains only under
          admission pressure, in {!flush} or {!drain_all}, or by the
          reclaimer's wedged-drain heal.  Until then its owner can
          re-grant a pending lease. *)
  clients : int;  (** Registered client handles (one per domain). *)
  resilience : resilience;
}

val default_config :
  ?shards:int ->
  ?k_per_shard:int ->
  ?warm_capacity:int ->
  ?batch:int ->
  ?resilience:resilience ->
  clients:int ->
  source_space:int ->
  unit ->
  config
(** Defaults: 4 shards of [k = 4], warm capacity 2, batch 8,
    {!default_resilience}. *)

type t
type client

type outcome =
  | Granted of { name : int; token : int; warm : bool; accesses : int }
      (** [name] is global (shard base + local name); pass [token]
          back to {!release}.  [warm] grants cost [accesses = 0];
          cold grants report the protocol's shared-access count. *)
  | Busy
      (** The source name is claimed by another client (held, warm, or
          pending drain) — the renaming precondition that distinct
          concurrent participants carry distinct source names, served
          as first-come-first-served admission. *)
  | Shed
      (** The shard is at its [k] capacity even after draining — the
          server refuses rather than break the protocol's bound. *)

val create :
  ?registry:Obs.Registry.t ->
  ?flight:Obs.Flight.t ->
  ?journeys:Obs.Journey.t array ->
  ?backend:(Shared_mem.Layout.t -> stage:int -> k:int -> Renaming.Protocol.Any.t) ->
  ?parked:int ->
  config ->
  t
(** Build the shard pool (default backend: {!Renaming.Split} per
    shard).  Client handles, registry shards and flight rings are all
    created here, before any domain runs.  [parked] (default [0]) is
    the number of clients that will park holding a name — forwarded
    to the {!Runtime.Agg} scoreboard.  [journeys] wires one
    per-request journey recorder per client (same index as client
    ids): the server stamps stage dwells — claim CAS, admission
    flushes, drains, the protocol acquire with its access count,
    release/pending fencing, reclaimer work — into whichever journey
    the owning domain has in flight, and attributes out-of-journey
    work as window interference.
    @raise Invalid_argument on a non-positive dimension, a bad
    resilience knob, or a [journeys] array not sized [clients]. *)

val client : t -> int -> client
(** The preallocated handle of client [id ∈ \[0, clients)].  A handle
    is single-owner: exactly one domain may use it. *)

val acquire : t -> client -> src:int -> outcome
(** Serve one acquire request for source name [src]: warm from the
    client's cache or from its own pending lease of [src] on the
    shard {!shard_of} routes it to, else cold through the protocol on
    that shard.
    @raise Invalid_argument when [src] is outside [\[0, source_space)]. *)

val release : t -> client -> token:int -> unit
(** Give a granted name back: into the warm cache (evicting the
    oldest warm lease to pending when full), or straight to pending
    when caching is off.  A pending lease stays re-grantable by this
    client until a drain retires it; other clients get
    {!outcome.Busy} for its source meanwhile.  Drains the shard when
    the batch threshold trips.  A client that was declared dead and
    fenced does {e not} raise here: its token was retired on its
    behalf (or is now), and the release is absorbed silently — also
    when the client re-synced in an earlier call, for as many releases
    as it had tokens out at the re-sync.
    @raise Invalid_argument if [token] is not a slot this client
    holds. *)

val flush : t -> client -> unit
(** Move every warm lease this client caches to pending and drain
    every shard — call in a client's epilogue so no release can be
    lost at the join.  Only the owning client may flush its cache (it
    is domain-local state). *)

val drain_all : t -> client -> unit
(** Drain every shard's pending slots, [client] doing the work — call
    after the join to retire batched releases other clients left
    behind.  Cannot flush other clients' warm caches (see {!flush});
    anything still warm after a crash stays held until {!scan}
    reclaims it, and shows up in {!outstanding} meanwhile — exactly a
    leak. *)

val outstanding : t -> int
(** Names currently held, warm, or pending drain, across all shards:
    the slab's slots whose fence is not FREE. *)

(** {1 Liveness: heartbeats, the reclaimer seat, wedged drains}

    Crash tolerance is cooperative: no external reclaimer process
    exists.  Clients call {!tend} once per request (or at any
    convenient cadence); it bumps the caller's heartbeat and, every
    [tend_every] calls, checks the {e reclaimer seat} — claiming it if
    vacant, scanning if held and due, stealing it if the holder's scan
    heartbeat has been silent for [seat_ttl] intervals.  The seat's
    epoch fences deposed holders; the per-slot fences make even an
    in-flight deposed retirement exactly-once. *)

val tend : t -> client -> unit
(** Heartbeat + seat duty.  Cheap when off-duty: one atomic increment
    per call, seat logic only every [tend_every] calls and at most
    once per [scan_interval_ns]. *)

val scan : t -> client -> unit
(** Seize the seat unconditionally and run one scan now — for tests
    and run epilogues (e.g. settling leaked leases after a join);
    production clients should let {!tend} pace scans instead. *)

val seize_seat : t -> client -> int
(** Take the reclaimer seat (epoch-fenced CAS; returns the new seat
    word).  Exposed so a fault plan can start a run with a chosen
    victim on duty. *)

val health : t -> int -> Health.state
(** The shard's verdict at the last scan: {!Health.Wedged} when that
    scan found a lease pending for [drain_stale] scans and drained the
    shard.  Diagnostic only: no request path reads it.
    @raise Invalid_argument on a bad shard index. *)

val set_chaos : client -> (string -> unit) option -> unit
(** Install a fault-injection hook on a client handle; it fires at
    every slot of a range being drained (tag ["drain"]) {e before} the
    slot's retirement fence is attempted, so a hook that raises or
    parks models a drainer that stops half way, leaving the rest of
    the range pending for the next drain, but never half-retires a
    slot.  Owning domain only. *)

type resilience_stats = {
  scans : int;  (** Reclaimer scans executed (all seat holders). *)
  deaths : int;  (** Clients declared dead. *)
  reclaimed : int;  (** Leases reclaimed from dead clients. *)
  claims_swept : int;  (** Orphaned source claims cleared. *)
  reclaim_max_scans : int;
      (** Worst staleness (in scans) at which a lease was reclaimed —
          the chaos campaign's time-to-reclaim bound. *)
  drain_heals : int;
      (** Drains the reclaimer ran on a shard where one lease sat
          pending for [drain_stale] scans.  At the defaults (batch 8 >
          k 4) a shard without admission pressure drains only this way,
          so a fault-free run may count some. *)
  seat_steals : int;
  fenced : int;  (** Client operations absorbed by an epoch fence. *)
  failovers : int;
      (** Always [0]: an acquire is served on the shard its route picks,
          and nothing spills elsewhere.  Kept only because the benchmark
          harness still prints it. *)
}

val resilience_stats : t -> resilience_stats
(** Snapshot of the liveness counters.  Atomics plus per-client
    single-writer fields — read after the join for exact values,
    any time for telemetry-grade ones. *)

val name_space : t -> int
val shards : t -> int

val shard_of : t -> client -> src:int -> int
(** The shard serving [client]'s cold grants of [src] (see Sharding
    above) — a pure function of [(clients, client, src, shards)], so
    routing is stable across calls and server instances of the same
    geometry.  Every cold grant of [src] by [client] is served there. *)

val shard_route : shards:int -> clients:int -> client:int -> src:int -> int
(** {!shard_of} without a server: the same pure routing function, for
    harnesses that need a client's shards before construction. *)

val token_slot : token:int -> int
(** The slab slot a granted token names.  Tokens of successive cold
    grants of one slot differ: they carry the slot's grant
    generation. *)

val scoreboard : t -> Runtime.Agg.t
(** The live uniqueness/concurrency scoreboard (violations, holder
    high-water marks, per-client cycle counts).  Freeze it with
    {!Runtime.Agg.result} after the run. *)

val merge_flight : t -> unit
(** Concatenate per-client flight rings into the ring passed at
    {!create} (client order) — call after the join.  Each ring is
    clocked by its client's own access count, so ordering between
    records of different clients is not meaningful. *)

(** {1 Per-client counters} — single-writer; read them after the join. *)

type client_stats = {
  acquires : int;  (** Granted, warm and cold together. *)
  warm_hits : int;
  busy : int;
  shed : int;
  drains : int;  (** Times this client drained a shard. *)
  drained_releases : int;  (** Protocol releases it executed doing so. *)
  fenced : int;  (** Operations absorbed by this client's epoch fence. *)
}

val client_stats : client -> client_stats
val client_id : client -> int

val client_obs : client -> Obs.Registry.shard option
(** The client's registry shard (when a registry was supplied) — the
    load harness adds its latency series to the same shard. *)

(** {1 Telemetry probes} — read-only snapshots for a sampler.

    Every probe below only {e reads}: each census counts the shard's
    slot fences by state, via [Atomic.get] (a snapshot taken while
    grants and releases run — telemetry-grade by design).  Nothing
    is written, so attaching a {!Obs.Sampler} adds {b zero} shared
    accesses to any request path; the warm-grant path keeps its
    verified 0 {e protocol} accesses (its one slab-local fence CAS is
    outside the tallied store). *)

type shard_probe = {
  admitted : int;
      (** Admission occupancy: the range's slots not FREE — held, warm,
          pending, or being granted or retired; at most [k]. *)
  pending : int;
      (** PENDING slots: released leases awaiting a drain of this
          shard; each is re-grantable by its owner meanwhile. *)
  warm : int;  (** WARM slots: leases parked in clients' warm caches. *)
}

val probe_shard : t -> int -> shard_probe
(** @raise Invalid_argument on a bad shard index. *)

val probe_free : t -> int
(** FREE slab slots: capacity minus {!outstanding}. *)

val probe_claims : t -> int
(** Source names currently claimed — an [O(source_space)] scan; fine
    at sampler tick rates, not for request paths. *)

val sampler_sources : t -> Obs.Sampler.source list
(** The canonical gauge set for {!Obs.Sampler.create}: per shard
    [shardN.admitted] / [shardN.pending] / [shardN.warm] (the
    {!shard_probe} fence counts), plus [slab.free],
    [claims.held], [seat.scans] and [reclaimed]. *)
