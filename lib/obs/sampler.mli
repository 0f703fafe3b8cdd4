(** Polls cheap read-only gauges into {!Timeseries} on a schedule.

    Sources are [unit -> int] probes over someone else's state (e.g.
    {!Server.probe_shard} readouts) — the sampler only ever {e reads}
    through them, so attaching one to a hot structure adds zero shared
    writes to that structure's fast paths.  The background loop
    stamps its polls with {!Clock.now_ns}; the pause is an injected
    thunk, keeping [lib/obs] free of [Unix].  Tests drive polls
    deterministically, with a time of their choosing, via {!poll}.

    Single-writer discipline: whichever loop calls [poll] — the
    caller, or the domain spawned by {!start} — owns every series and
    the optional registry shard.  Give {!create} a shard of its own;
    sharing one with another writer breaks the registry's
    one-writer-per-shard contract. *)

type source = { name : string; read : unit -> int }
type t

val create :
  ?windows:int -> ?shard:Registry.shard -> window_ns:int -> source list -> t
(** One [~hist:false] series of [?windows] (default 64) windows per
    source.  With [?shard], each poll also mirrors the latest value
    into a ["sampler.<name>"] gauge so exports see live levels and
    high-water marks. *)

val poll : t -> now:int -> unit
(** Read every source once into the window containing [now].  Call
    from a single loop only. *)

val series : t -> (string * Timeseries.t) list
val ticks : t -> int

(** {1 Background polling} *)

type handle

val start : t -> sleep:(unit -> unit) -> handle
(** Spawn a domain that repeats [poll t ~now:(Clock.now_ns ()); sleep ()]
    until {!stop}, then polls one final time (so even sub-interval
    runs get a sample).  The sampler must not be polled elsewhere
    while the handle is live. *)

val stop : handle -> unit
(** Signal and join the polling domain. *)
