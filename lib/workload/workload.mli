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
  ?on_get:('l -> unit) ->
  (module Renaming.Protocol.S with type t = 'a and type lease = 'l) ->
  'a ->
  work:Shared_mem.Cell.t ->
  spec ->
  Shared_mem.Store.ops ->
  unit
(** Run the spec against the protocol.  [on_get] sees each lease right
    after [get_name] returns, before [Acquired] is emitted. *)

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

(** {2 Checking harnesses}

    The process bodies and model-checker configurations behind every
    mechanical check of the paper's guarantees: name uniqueness
    (SPLIT, FILTER, the Theorem 11 pipeline, …), the splitter
    occupancy bound (Theorem 5) and two-process mutual exclusion
    (Lemma 6).  Each body holds its object across exactly one read of
    a [work] register, so that "inside" spans at least one scheduling
    point: events attach to the preceding shared access, and with no
    access in between no other process could ever observe the holder
    and the check would be vacuous.

    A [*_config] builder allocates a fresh layout — the object first,
    then [work] — and arms the matching {!Sim.Checks} monitor, followed
    by [monitors] (default none). *)

type costs = { mutable get : int list; mutable release : int list }
(** Shared accesses of every [GetName] / [ReleaseName] call, newest
    first. *)

val costs : unit -> costs

val protocol_body :
  ?markers:bool ->
  ?costs:costs ->
  ?on_get:('l -> unit) ->
  (module Renaming.Protocol.S with type t = 'a and type lease = 'l) ->
  'a ->
  work:Shared_mem.Cell.t ->
  cycles:int ->
  Shared_mem.Store.ops ->
  unit
(** [cycles] plain cycles: [get_name], [Acquired n], one [work] read,
    [Released n], [release_name].  [markers] (default [false]) adds the
    {!Sim.Observe.op_begin} span markers before [get_name] and
    [release_name]; [costs] records the accesses of each call; [on_get]
    is as in {!body}.  No [Note ("cycle", _)] is emitted. *)

val protocol_config :
  ?markers:bool ->
  ?monitors:Sim.Sched.monitor list ->
  (module Renaming.Protocol.S with type t = 'a) ->
  (Shared_mem.Layout.t -> 'a) ->
  pids:int array ->
  cycles:int ->
  unit ->
  Sim.Model_check.config
(** One {!protocol_body} process per pid, under the uniqueness monitor
    over the instance's name space. *)

(** The splitter interface the occupancy harness drives:
    {!Renaming.Splitter} and {!Renaming.Mutations.Mutant_splitter}. *)
module type SPLITTER = sig
  type t
  type token

  val enter : t -> Shared_mem.Store.ops -> token
  val direction : token -> int
  val release : t -> Shared_mem.Store.ops -> token -> unit
end

val splitter_body :
  (module SPLITTER with type t = 'a) ->
  'a ->
  work:Shared_mem.Cell.t ->
  cycles:int ->
  Shared_mem.Store.ops ->
  unit
(** [cycles] enter/release cycles emitting the notes
    {!Sim.Checks.occupancy} reads: [begin], [in d], one [work] read,
    [out d], [end]. *)

val splitter_config :
  ?monitors:Sim.Sched.monitor list ->
  (module SPLITTER with type t = 'a) ->
  (Shared_mem.Layout.t -> 'a) ->
  pids:int array ->
  cycles:int ->
  unit ->
  Sim.Model_check.config
(** One {!splitter_body} process per pid, under the occupancy
    monitor. *)

(** The two-process mutex interface the exclusion harness drives:
    {!Renaming.Pf_mutex} and {!Renaming.Mutations.Mutant_mutex}. *)
module type MUTEX = sig
  type t
  type slot

  val enter : t -> Shared_mem.Store.ops -> dir:int -> slot
  val check : t -> Shared_mem.Store.ops -> dir:int -> slot -> bool
  val release : t -> Shared_mem.Store.ops -> dir:int -> slot -> unit
end

val mutex_config :
  ?retries:int ->
  ?monitors:Sim.Sched.monitor list ->
  (module MUTEX with type t = 'a) ->
  (Shared_mem.Layout.t -> 'a) ->
  cycles:int ->
  unit ->
  Sim.Model_check.config
(** Processes [0] and [1] on directions [0] and [1], each running
    [cycles] times: enter, check up to [1 + retries] times, and on
    success [Note ("cs", dir)], one [work] read,
    [Note ("cs_exit", dir)]; then release either way.  Without
    [retries] a process spins until its check succeeds.  Under the
    exclusion monitor. *)
