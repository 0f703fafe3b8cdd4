(** The metrics registry: named counters, gauges, histograms and span
    rings, sharded by writer.

    A {!shard} is the write capability of one process or OS domain.
    Writes are plain mutable stores on data only the owning writer
    touches — no locks, no atomics on the hot path; the registry mutex
    guards only shard {e creation} and {e snapshotting}.  A snapshot
    merges every shard into one name-keyed view (counters add, gauge
    currents add / high-water marks max, histograms merge
    element-wise, span rings concatenate), so simulator runs (one
    shard), name-server runs (one shard per client domain, merged after
    the join) and model-check counterexample replays all report through
    one registry.

    Metric names are dot-separated paths ([store.reads.SLOT],
    [op.get.accesses], [names.held.3]); exporters map them to the
    target format's conventions. *)

type t
type shard

val create : ?span_capacity:int -> unit -> t
(** [span_capacity] (default [4096]) bounds each shard's span ring. *)

val shard : ?span_capacity:int -> t -> shard
(** Register a new shard; call once per writer, {e before} its hot
    loop (takes the registry mutex).  [span_capacity] overrides the
    registry default for this shard. *)

val shard_id : shard -> int
(** Creation order, from [0]. *)

val on_snapshot : shard -> (unit -> unit) -> unit
(** [on_snapshot s f] registers [f] to run at the start of every
    {!snapshot}, before shards merge — the hook for deferred
    publishers (e.g. [Store] access tallies) that batch hot-path
    counts in private storage and only materialize registry metrics
    when someone looks.  Register at wiring time, like {!shard}
    itself: the list is plain mutable state owned by the shard's
    writer. *)

(** {1 Writing} — find-or-create by name, then update. *)

val counter : shard -> string -> Counter.t
val gauge : shard -> string -> Gauge.t
val histogram : shard -> string -> Histogram.t

val adopt_histogram : shard -> string -> Histogram.t -> unit
(** [adopt_histogram s name h] makes [h] the shard's histogram [name]:
    whatever was already recorded under [name] is merged into [h], and
    from then on {!histogram} and {!snapshot} find [h].  For a writer
    that builds a hot histogram itself, e.g. on cache lines of its own
    ([Shared_mem.Pad.copy_as_padded]), and registers it on first use. *)

val inc : shard -> string -> unit
val count : shard -> string -> int -> unit
val observe : shard -> string -> int -> unit
(** Histogram shorthand. *)

val span : shard -> Span.t -> unit

val record_span :
  shard ->
  name:string ->
  pid:int ->
  start_step:int ->
  end_step:int ->
  accesses:int ->
  annotations:(string * int) list ->
  unit
(** Allocation-free {!Span.record} into the shard's ring — the hot
    per-operation path; {!span} is the record-building convenience. *)

val shard_spans : shard -> Span.t list
(** This shard's recorded spans, oldest first — the harness reads its
    own operation costs back through this. *)

val shard_spans_dropped : shard -> int

(** {1 Snapshot} *)

type snapshot = {
  shards : int;
  counters : (string * int) list;  (** Sorted by name. *)
  gauges : (string * Gauge.snap) list;
  histograms : (string * Histogram.snap) list;
  spans : Span.t list;  (** Shard creation order, oldest first within a shard. *)
  spans_dropped : int;
}

val snapshot : t -> snapshot
(** Merge all shards.  Safe at any time, but values are only guaranteed
    complete once every writer has finished (e.g. after
    [Domain.join]). *)
