(** Reusable invariant monitors.

    These raise {!Model_check.Violation} so they work both under the
    model checker and under plain simulation runs (where the exception
    simply propagates to the caller). *)

val combine : Sched.monitor list -> Sched.monitor
(** Runs every hook of every monitor, in list order. *)

(** {1 Name uniqueness}

    The renaming correctness condition: distinct processes never hold
    the same destination name concurrently.  Processes must emit
    [Event.Acquired n] after [GetName] returns [n] and
    [Event.Released n] after [ReleaseName].

    Crash recovery extends the discipline: a reclaimer emits
    [Note ("reclaimed", n)] before it resets a dead holder's footprint
    (see the crash matrix in [lib/campaign]), which transfers ownership
    of [n] away from the corpse — the name may then be re-acquired
    without a [Released]. *)

type uniqueness

val uniqueness : ?name_space:int -> unit -> uniqueness
(** If [name_space] is given, also checks every acquired name lies in
    [\[0, name_space)]. *)

val uniqueness_monitor : uniqueness -> Sched.monitor
val names_used : uniqueness -> int
(** Number of distinct names ever acquired. *)

val max_name : uniqueness -> int
(** Largest name ever acquired; [-1] if none. *)

val max_concurrent : uniqueness -> int
(** Maximum number of names held simultaneously. *)

val held_now : uniqueness -> (int * int) list
(** Names currently held as [(name, proc)] pairs, sorted.  After a run
    completes, a non-empty result is a {e leak}: a name acquired by a
    process that never released it (e.g. a crashed holder) and never
    reclaimed. *)

(** {1 Gauges}

    Per-key simultaneous-occupancy counters with high-water marks, fed
    by [Event.Note] events.  Used for the splitter output-set bound
    (Theorem 5): a test emits [Note (enter_tag, d)] when a process
    joins output set [d] and [Note (leave_tag, d)] when it leaves, and
    asserts on the recorded maxima afterwards. *)

type gauge

val gauge : enter:string -> leave:string -> gauge
(** Gauge listening for the two given note tags. *)

val gauge_monitor : gauge -> Sched.monitor
val gauge_max : gauge -> int -> int
(** High-water mark of simultaneous occupancy for a key; 0 if unseen. *)

val gauge_current : gauge -> int -> int
val gauge_keys : gauge -> int list

(** {1 Splitter occupancy (Theorem 5)}

    Processes emit [Note ("begin", _)] when starting an Enter (Using
    becomes true), [Note ("in", d)] when Enter returns direction [d]
    (Inside the output set), [Note ("out", d)] when starting the
    matching Release, and [Note ("end", _)] when Release returns.

    The monitor checks the prefix-closed form of the Theorem 5 bound
    online: whenever an output set holds [c ≥ 2] processes
    simultaneously, the high-water mark of concurrent users so far
    must be at least [c + 1]. *)

type occupancy

val occupancy : unit -> occupancy
val occupancy_monitor : occupancy -> Sched.monitor
val occupancy_users_max : occupancy -> int
(** High-water mark of concurrent users. *)

val occupancy_set_max : occupancy -> int -> int
(** High-water mark of simultaneous occupancy of one output set. *)

(** {1 Post-hoc revalidation}

    Defense in depth for the on-line {!uniqueness} monitor: re-derive
    the holder intervals from a recorded {!Trace.t} and check pairwise
    non-overlap independently. *)

val revalidate_intervals : Trace.item list -> (int, string) result
(** [Ok n] with [n] the number of acquisitions checked, or [Error msg]
    describing the first overlap / mismatched release. *)
