(** Acquire/release workload generators for simulator processes.

    Each generator returns a process body usable with {!Sim.Sched} (or
    the model checker).  Bodies emit [Acquired]/[Released] events so
    the standard uniqueness monitors apply, and emit
    [Note ("cycle", i)] at the start of each cycle for tracing.

    The hold duration is expressed in {e shared reads of [work]}, i.e.
    in scheduler steps, because simulated time only advances with
    shared accesses. *)

type spec = {
  cycles : int;  (** Acquire/release cycles to perform. *)
  hold : int -> int;  (** Steps to hold the name on cycle [i] (≥ 0). *)
  delay : int -> int;
      (** Steps to idle before re-acquiring on cycle [i] (≥ 0); cycle 0's
          delay staggers the process's arrival. *)
}

val churn : ?hold:int -> cycles:int -> unit -> spec
(** Back-to-back cycles, constant hold (default 1), no delays — maximum
    contention on the protocol. *)

val staggered : ?hold:int -> cycles:int -> stride:int -> index:int -> unit -> spec
(** Like {!churn} but process [index] starts after [index · stride]
    idle steps — models processes arriving over time. *)

val bursty : cycles:int -> seed:int -> spec
(** Random holds (0–7) and random delays (0–15) from a seeded
    generator — models irregular request patterns. *)

(** {2 Fault-plan shapes}

    Deterministic workload counterparts of the {!Sim.Faults} actions:
    where a fault plan makes the {e scheduler} adversarial, these make
    the {e request pattern} adversarial, so the two compose (a slow-lane
    workload under a park plan is the paper's worst long-lived regime). *)

val slow_lane : ?lag:int -> cycles:int -> unit -> spec
(** Every cycle holds the name for [lag] steps (default 6) and idles
    [lag] steps before re-acquiring — the slow-lane process of a
    [Slow] fault, as a workload. *)

val burst : cycles:int -> burst_len:int -> pause:int -> spec
(** Back-to-back cycles in bursts of [burst_len] releases/re-acquires,
    idling [pause] steps between bursts — the burst release/re-acquire
    regime of a [Stall]-on-[Acquired] fault. *)

(** {2 Server churn family}

    Heavy-churn request streams for the name server ([lib/server]) on
    {e real} OS domains: open-loop (timed) arrivals and Zipf-skewed
    source names, millions of acquire/release cycles.  Everything is a
    pure function of its seed, so a run's request stream replays
    identically — the simulator-oriented specs above describe {e hold
    shapes}; these describe {e who asks, and when}. *)

type server_spec = {
  requests : int;  (** Acquire/release requests this client issues. *)
  source : int -> int;
      (** Request index to source name in [\[0, s)], Zipf-skewed: a few
          hot names dominate, the tail is long — the regime where the
          server's warm-name cache pays. *)
  arrival : int -> float;
      (** Scheduled arrival of request [i], in seconds from the
          client's start ([0.] everywhere means closed-loop: issue as
          fast as the server answers).  Open-loop arrivals do not wait
          for earlier requests — a late server eats the queueing delay
          in its latency tail, as a real load generator would charge
          it. *)
  think : int;  (** Local spins while holding a granted name. *)
}

val zipf : ?theta:float -> ?stream:int -> s:int -> seed:int -> unit -> int -> int
(** [zipf ~s ~seed ()] is a request-index-to-source-name function,
    Zipf-distributed over [s] names with skew [theta] (default
    [0.99], YCSB's): rank [r] is drawn with probability proportional
    to [1/(r+1)^theta] via the Gray et al. closed-form inverse CDF,
    then scrambled across [\[0, s)] by a seed-keyed hash.  Distinct
    [stream]s (default [0]) draw independent sequences but agree on
    the scramble, so concurrent clients contend on the {e same} hot
    names.  O(s) precomputation at creation, O(1) per request.
    @raise Invalid_argument unless [s ≥ 1] and [0 < theta < 1]. *)

val open_loop : rate:float -> seed:int -> int -> float
(** [open_loop ~rate ~seed] maps request index [i] to its scheduled
    arrival time: the sum of [i] exponential inter-arrival draws of
    mean [1/rate] seconds (a Poisson stream).  [rate ≤ 0.] yields the
    constant [0.] — closed-loop.  The returned closure memoises
    cumulative sums and is single-writer: give each client its own. *)

val server_churn :
  ?theta:float ->
  ?rate:float ->
  ?think:int ->
  s:int ->
  requests:int ->
  seed:int ->
  client:int ->
  unit ->
  server_spec
(** The standard heavy-churn client: Zipf sources (stream [client],
    shared scramble) at Poisson rate [rate] requests/second (default
    [0.] — closed-loop), [think] spins per hold (default [0]).  Two
    clients of the same [seed] share the distribution but draw
    independent request streams. *)

val pin : sources:int array -> server_spec -> server_spec
(** Remap a spec's source stream through a fixed table: request [i]
    asks for [sources.(source i mod length)].  Keeps the stream's
    skew but confines it to the given names — e.g. the sources one
    shard serves, to build a hot-shard fault plan.
    @raise Invalid_argument on an empty table. *)

val body :
  (module Renaming.Protocol.S with type t = 'a) ->
  'a ->
  work:Shared_mem.Cell.t ->
  spec ->
  Shared_mem.Store.ops ->
  unit
(** Run the spec against the protocol. *)

val rotating_body :
  (module Renaming.Protocol.S with type t = 'a) ->
  'a ->
  work:Shared_mem.Cell.t ->
  pids:int array ->
  spec ->
  Shared_mem.Store.ops ->
  unit
(** Like {!body}, but cycle [i] is performed under source name
    [pids.(i mod length)] — models a pool of [n ≫ k] client identities
    multiplexed over one execution slot, the long-lived scenario from
    the paper's introduction (at most [k] concurrent, unboundedly many
    over time).  All pids must be legal source names for the
    protocol. *)
