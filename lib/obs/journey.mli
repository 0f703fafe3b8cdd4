(** Per-request journeys: allocation-free stage tracing with
    tail-based sampling and per-stage blame attribution.

    A {e journey} follows one request end-to-end through the name
    server: arrival, backoff/retry waits, admission, claim CAS,
    protocol acquire (with its shared-access count), grant, and the
    release half (release, retire).  Each client
    domain owns one single-writer {!t}; the in-flight journey is a
    scratch row of a preallocated flat int arena (same pattern as the
    span ring and access tallies from the telemetry PR), so stamping
    is a handful of plain int stores — no allocation, no atomics.

    On completion a journey is folded into:

    - a windowed {e tail reservoir}: per absolute window id the K
      slowest complete journeys (total order: slower first, then
      lower id) plus R seeded random exemplars (kept by minimum
      deterministic hash of [(seed, id)], so merging is commutative);
    - per-window and all-time {e blame} sums: total nanoseconds spent
      per stage, the raw material for "where does the tail go";
    - a totals {!Histogram} whose buckets carry journey-id exemplar
      links, so any percentile — p100 included — can be traced back
      to a concrete journey.

    Recorders merge at join ({!merge}): commutative and associative
    over the same window geometry, like {!Timeseries}. *)

(** The stages a request can spend time in.  The first four are the
    acquire half, stamped per journey; [Release]/[Retire] are the
    release half, a lease that leaves the warm cache being retired at
    once; [Retire]/[Reclaim] are also {e interference} — work a domain
    performs on behalf of others' tokens, attributed to the window via
    {!interfere}. *)
type stage =
  | Backoff  (** Policy retry waits between attempts. *)
  | Admission  (** Spinning for an admission slot (cap busy). *)
  | Claim  (** Claim-table CAS contention. *)
  | Acquire  (** Protocol acquire: the paper-bounded accesses. *)
  | Release  (** Fence transition on the release path. *)
  | Retire  (** Slot retirement fencing. *)
  | Reclaim  (** Reclaimer scans and lease takeover. *)

val nstages : int
val stages : stage array
val stage_index : stage -> int
val stage_name : stage -> string
val stage_of_name : string -> stage option

type t
(** A single-writer journey recorder (one per client domain). *)

val create :
  ?windows:int ->
  ?window_ns:int ->
  ?k:int ->
  ?exemplars:int ->
  ?seed:int ->
  ?bound:int ->
  unit ->
  t
(** [windows] retained window slots (default [8]); [window_ns] window
    width (default [5_000_000]); [k] slowest journeys kept per window
    (default [8]); [exemplars] random exemplars kept per window
    (default [4]); [seed] drives exemplar selection deterministically;
    [bound] is the backend's paper access bound — a cold journey whose
    acquire stage exceeds it is flagged ([0] disables). *)

(** {1 Hot path} — all allocation-free plain int stores. *)

val start : t -> id:int -> now:int -> unit
(** Begin the journey for request [id] (ids are positive; [0] is
    reserved for "no exemplar") arriving at [now] ns. *)

val dwell : t -> stage -> int -> unit
(** Add [ns] to the in-flight journey's dwell for [stage]. *)

val retry : t -> unit
(** Count one backoff/retry round on the in-flight journey. *)

val accesses : t -> int -> unit
(** Record the protocol acquire's shared-access count. *)

val warm : t -> unit
(** Mark the in-flight journey as a warm-cache hit. *)

val finish : t -> now:int -> unit
(** Complete the in-flight journey: total latency is [now] minus the
    arrival stamp; the journey is offered to the window reservoir,
    blame sums, the all-time-worst slot, and the totals histogram.
    A no-op if no journey is in flight. *)

val active : t -> bool

val interfere : t -> stage -> now:int -> int -> unit
(** Attribute [ns] of [stage] work done at [now] on behalf of {e
    other} requests (retirement, reclaimer scans) to
    the window's blame profile, outside any journey. *)

(** {1 Views} *)

type view = {
  id : int;
  arrival_ns : int;
  total_ns : int;
  retries : int;
  accesses : int;
  warm : bool;
  over_bound : bool;  (** Acquire accesses exceeded the paper bound. *)
  dwells : int array;  (** ns per stage, indexed by {!stage_index}. *)
}

type window = {
  wid : int;  (** Absolute window id: arrival / window_ns. *)
  count : int;
  blame : int array;  (** ns per stage (journeys + interference). *)
  slowest : view list;  (** Slowest first. *)
  exemplars : view list;
}

type snap = {
  windows : window list;  (** Ascending wid. *)
  worst : view option;  (** All-time slowest; never rotates out. *)
  completed : int;
  flagged : int;  (** Journeys flagged over the access bound. *)
  blame : int array;  (** All-time ns per stage. *)
}

val snapshot : t -> snap
val merge : into:t -> t -> unit

val top : ?n:int -> t -> view list
(** The [n] (default [k]) slowest retained journeys across all
    windows and the all-time-worst slot, deduplicated by id. *)

val find : t -> id:int -> view option
(** Look a retained journey up by id (for histogram exemplar links). *)

val hist : t -> Histogram.t
(** The totals histogram (exemplar-linked); [Histogram.percentile]
    over it yields [tail_p999_ns] and friends. *)

val top_blame_stage : snap -> (stage * int) option
(** The stage with the largest all-time blame, with its ns. *)

val unexplained_tail : ?factor:float -> t -> (int * int) option
(** [Some (p100, p99)] when the histogram's exact maximum exceeds
    [factor] (default [100.]) times its p99 {e and} no retained
    journey reaches that maximum — an observed tail the reservoir
    cannot explain.  [None] means every extreme tail has a journey. *)

val pp_waterfall : Format.formatter -> view -> unit
(** A per-stage waterfall: one bar per nonzero stage, scaled to the
    journey's total. *)

(** {1 Portable text form} *)

val to_string : t -> string
(** The ["renaming.journeys/v1"] document: header (geometry, seed,
    bound), all-time blame and worst, then per-window blame and
    reservoir lines. *)

val of_string : string -> (t, string) result
(** Parse a document produced by {!to_string}.  The totals histogram
    is rebuilt from the retained journeys only (the full population
    is not serialized). *)
