(** Renaming as a service: a sharded, {e self-healing} name server.

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
       (held or warm) and keeps no counter beside its slots' fences.
       When no slot is FREE the grant retires its own warm leases on
       the shard and looks once more before it answers
       {!outcome.Shed}.  A request allocates
       no slab state: the shard's protocol lease sits in a per-shard
       {!Renaming.Protocol.Any.table} entry of its slot (SPLIT's int
       lease unboxed), and a cold grant takes the slot's warm reply
       from a small per-slot cache, so it allocates only the
       {!outcome.Granted} it returns.  The token handed to a client
       names its slot and its holder's epoch when the holder took the
       lease: a slot's tokens differ across its holder's epochs, not
       across grants.  A token a reclaim retired still never names a
       later lease of the same slot, since a reclaim bumps its victim's
       epoch first.  A second release of a token after the same slot
       was granted cold to the same client in the same epoch is not
       caught: it releases the new lease.  Each slot's fields sit on
       cache lines of their own.}
    {- {b Retirement at once.}  A released lease goes into the
       client's warm cache.  When it leaves the cache — evicted by a
       newer release, retired to make room on a full shard, dropped by
       a re-sync or by {!flush} — the client that gives it up runs the
       protocol's [release_name] on the spot.  With caching off
       ([warm_capacity = 0]) every release does so.  No lease is ever
       parked between the cache and the protocol, and no other client
       retires a live client's lease.}
    {- {b Re-granting warm leases.}  A released name stays {e held}
       from the protocol's point of view while it sits in its client's
       warm cache.  A re-acquire of the same source name by the same
       client takes it back with {b zero} protocol (store) accesses.
       This is legal {e precisely because renaming is long-lived}: the
       server never returned the name, it merely held it longer — §2's
       uniqueness condition cannot be violated by re-granting a name to
       the process that already holds it.  The claim table keeps every
       {e other} client out ({!outcome.Busy}) until the lease leaves the
       cache and is retired.}
    {- {b Resilience.}  Every lease retirement — by its owner or by a
       crash reclaim — must win a CAS on the slot's {e retirement
       fence}, so it happens exactly once no matter how owners,
       reclaims and fenced clients interleave.  Liveness rides on
       {!tend}: clients heartbeat, and whichever client finds a scan
       due and wins its {e ticket} scans for dead clients, reclaiming
       their held and warm leases through the protocol's
       [reset_footprint] and sweeping their claims.  No client leads,
       and no shard is ever taken out of service or routed around:
       uniqueness rests on the per-source claim table alone, so the
       route carries no safety, and a crashed client's leases come back
       through the reclaim.  A client declared dead by mistake is
       {e fenced} by its epoch: it re-syncs and carries on, its stale
       tokens dying silently rather than double-retiring.}}

    Uniqueness is monitored on-line through a {!Runtime.Agg}
    scoreboard, and when a registry / flight ring is supplied every
    client writes its own shard / ring — cold grants and protocol
    releases are recorded as [Acquired] / [Released] under the index of
    the client that owns the lease, whichever client retires it — so
    the whole [lib/obs] stack (occupancy, provenance, Perfetto export)
    applies to server runs unchanged.  A bare
    protocol run is the degenerate config of one shard and no warm
    cache ({!Churn.run_bare}). *)

(** Kept for perfbench until ROADMAP item 4: every shard is [Live]. *)
module Health : sig
  type state = Live

  val to_string : state -> string
end

module Policy = Policy

type resilience = {
  scan_interval_ns : int;
      (** Least wall-clock spacing between reclaimer scans ([0] = every
          eligible {!tend}).  A client reads the clock only on every
          [tend_every]-th {!tend} of its own, so a scan runs at the
          first such tend of {e any} client once [scan_interval_ns] has
          passed since the last scan began.  Scans are never closer
          than [scan_interval_ns], and every live client's checks can
          start one: a lone client that tends every 50 µs scans every
          1.6 ms at the defaults, while clients that tend far faster
          than [tend_every] per [scan_interval_ns] scan about once per
          [scan_interval_ns].  No client's death slows the pace.  A
          death takes [lease_ttl] scans to declare. *)
  lease_ttl : int;
      (** Scans without a heartbeat before a client is declared dead. *)
  tend_every : int;
      (** {!tend} calls between a client's epoch checks and clock
          reads, and so between its chances to win a scan (see
          [scan_interval_ns]). *)
}

val default_resilience : resilience
(** [scan_interval_ns = 1ms], [lease_ttl = 8], [tend_every = 32]. *)

type config = {
  shards : int;  (** Protocol instances in the pool. *)
  k_per_shard : int;
      (** Slots in each shard's range: the shard's leases, held or
          warm, never exceed it. *)
  source_space : int;  (** Size [S] of the source name space. *)
  warm_capacity : int;  (** Warm leases cached per client ([0] disables). *)
  batch : int;
      (** Always [1], and read by no server code: a lease is retired
          the moment it leaves the warm cache.  Kept for perfbench
          until ROADMAP item 4. *)
  clients : int;  (** Registered client handles (one per domain). *)
  resilience : resilience;
}

val default_config :
  ?shards:int ->
  ?k_per_shard:int ->
  ?warm_capacity:int ->
  ?resilience:resilience ->
  clients:int ->
  source_space:int ->
  unit ->
  config
(** Defaults: 4 shards of [k = 4], warm capacity 2,
    {!default_resilience}. *)

type t
type client

type outcome =
  | Granted of { name : int; token : int; warm : bool; accesses : int }
      (** [name] is global (shard base + local name); pass [token]
          back to {!release}.  [warm] grants cost [accesses = 0];
          cold grants report the protocol's shared-access count. *)
  | Busy
      (** The source name is claimed: held by a client, or warm in
          another client's cache — the renaming precondition that distinct
          concurrent participants carry distinct source names, served
          as first-come-first-served admission. *)
  | Shed
      (** The shard is at its [k] capacity even after the client
          retired its own warm leases on it — the server refuses rather
          than break the protocol's bound. *)

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
    flushes, the protocol acquire with its access count, release
    fencing, retirements, reclaimer work — into whichever journey
    the owning domain has in flight, and attributes out-of-journey
    work as window interference.
    @raise Invalid_argument on a non-positive dimension, a bad
    resilience knob, or a [journeys] array not sized [clients]. *)

val client : t -> int -> client
(** The preallocated handle of client [id ∈ \[0, clients)].  A handle
    is single-owner: exactly one domain may use it. *)

val acquire : t -> client -> src:int -> outcome
(** Serve one acquire request for source name [src]: warm from the
    client's cache, else cold through the protocol on the shard
    {!shard_of} routes it to.
    @raise Invalid_argument when [src] is outside [\[0, source_space)]. *)

val release : t -> client -> token:int -> unit
(** Give a granted name back: into the warm cache, where a full cache
    evicts its oldest lease and this client retires it through the
    protocol at once; with caching off, the release itself is retired
    at once.  Other clients get {!outcome.Busy} for a cached lease's
    source until it is retired.  A client that was declared dead and
    fenced does {e not} raise here: its token was retired on its
    behalf (or is now), and the release is absorbed silently — also
    when the client re-synced in an earlier call, for as many releases
    as it had tokens out at the re-sync.
    @raise Invalid_argument if [token] is not a slot this client
    holds. *)

val flush : t -> client -> unit
(** Retire every warm lease this client caches — call in a client's
    epilogue so no release can be lost at the join.  Only the owning
    client may flush its cache (it is domain-local state); anything
    still warm in a crashed client's cache stays held until {!scan}
    reclaims it, and shows up in {!outstanding} meanwhile — exactly a
    leak. *)

val drain_all : t -> client -> unit
(** Does nothing: no lease is ever parked.  Kept for perfbench until
    ROADMAP item 4. *)

val outstanding : t -> int
(** Names currently held or warm across all shards: the slab's slots
    whose fence is not FREE. *)

(** {1 Liveness: heartbeats and scan tickets}

    Crash tolerance is cooperative and leaderless: no external
    reclaimer process exists, and no client holds the duty.  Clients
    call {!tend} once per request (or at any convenient cadence); it
    bumps the caller's heartbeat and, every [tend_every] calls, checks
    whether a scan is due — [scan_interval_ns] since the last one
    began.  If so the client CASes the scan ticket, and the winner
    scans.  So scans come at the first [tend_every]-th tend of any
    client after [scan_interval_ns], and a dead client delays none.
    Each scan takes its id from the scan count; one that a newer scan
    superseded starts no new reclaim, and the per-slot fences make even
    its in-flight retirement exactly-once. *)

val tend : t -> client -> unit
(** Heartbeat + scan ticket.  Cheap between checks: one atomic
    increment per call; every [tend_every] calls, an epoch read, a
    clock read and a read of the last scan's start, and a scan when
    this client wins the ticket of a due one. *)

val scan : t -> client -> unit
(** Take a ticket unconditionally and run one scan now — for tests and
    run epilogues (e.g. settling leaked leases after a join);
    production clients should let {!tend} pace scans instead.  The next
    {!tend}-paced scan comes [scan_interval_ns] after this one. *)

val health : t -> int -> Health.state
(** Always {!Health.Live}.  Kept for perfbench until ROADMAP item 4. *)

val set_chaos : client -> (string -> unit) option -> unit
(** Install a fault-injection hook on a client handle; it fires once
    before each retirement the client runs of a lease it gives up (tag
    ["retire"]), {e before} the slot's retirement fence is attempted.
    A hook that raises or parks there leaves that lease held or warm
    under the client, for a reclaim to retire once the client is
    declared dead, and never half-retires a slot.  Owning domain
    only. *)

type resilience_stats = {
  scans : int;  (** Reclaimer scans executed (by every client). *)
  deaths : int;  (** Clients declared dead. *)
  reclaimed : int;  (** Leases reclaimed from dead clients. *)
  claims_swept : int;  (** Orphaned source claims cleared. *)
  reclaim_max_scans : int;
      (** Worst staleness (in scans) at which a lease was reclaimed —
          the chaos campaign's time-to-reclaim bound. *)
  drain_heals : int;
      (** Always [0]: nothing is parked, so nothing needs a heal.  Kept
          for perfbench until ROADMAP item 4. *)
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
(** The slab slot a granted token names.  A token also carries its
    holder's epoch when the holder took the lease, so a slot's tokens
    differ across its holder's epochs, not across grants: two cold
    grants of one slot to one client in one epoch hand out the same
    token, and a double release across them is not caught. *)

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
  drains : int;  (** Leases this client retired, giving them up. *)
  drained_releases : int;  (** The same count as [drains]. *)
  fenced : int;  (** Operations absorbed by this client's epoch fence. *)
  accesses : int;
      (** Shared accesses made through this client's stores: its cold
          grants, and the releases and reclaims it ran, on its own
          behalf or another's.  The registry's [store.*] totals, summed
          over clients, equal this sum after a snapshot. *)
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
          or being granted or retired; at most [k]. *)
  pending : int;
      (** Always [0]: nothing is parked.  Kept for perfbench until
          ROADMAP item 4. *)
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
    [shardN.admitted] / [shardN.warm] (the {!shard_probe} fence
    counts), plus [slab.free], [claims.held], [scans] and
    [reclaimed]. *)
