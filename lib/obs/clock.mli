(** The one clock behind every timed value: journey stamps and dwells,
    timeseries windows, sampler ticks, policy deadlines, the server's
    scan pacing and the benches all compare its readings.  It reads
    [CLOCK_MONOTONIC], so it never steps backwards, resolves tens of
    nanoseconds, and a read allocates nothing. *)

val now_ns : unit -> int
(** Nanoseconds since an arbitrary fixed origin; only differences
    between readings are meaningful. *)
