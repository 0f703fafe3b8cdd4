(** Bounded schedule exploration.

    OCaml continuations are one-shot, so the checker is re-execution
    based (in the style of stateless model checkers such as dscheck):
    each explored interleaving rebuilds the whole configuration from
    scratch via a user-supplied builder and replays a prefix of
    scheduling choices, then extends it depth-first.

    {!check} is the engine: depth-first search with two orthogonal
    reductions, both on by default and both switchable.

    {b Sleep-set partial-order reduction.}  Two pending steps are
    independent when they involve distinct processes, do not conflict
    on a register (distinct cells, or both plain reads of the same
    cell), {e and} at most one of them emits an event.  The last clause
    is what makes the reduction sound for this checker's monitors: they
    check properties of the {e event sequence} (two processes holding
    the same name simultaneously), so two event-emitting steps never
    commute from the monitors' point of view even when their memory
    accesses do.  An earlier revision of this module skipped POR
    entirely for that reason; making the dependence relation
    event-aware restores soundness while still pruning the (vastly more
    numerous) commuting memory-access interleavings.  Whether a step
    emits is known from the execution that first explored it, and
    independence guarantees sleeping steps replay identically.

    {b State caching.}  After each step the state fingerprint
    ({!State_hash}: shared memory, per-process access histories, the
    ordered event sequence) is looked up in a bounded cache.  A revisit
    is pruned only when a previous visit covered it: its sleep set was
    a subset of the current one (it explored at least as many
    successors) and its remaining step budget was at least as large (it
    explored at least as deep).  Including the ordered event sequence
    in the fingerprint keeps caching sound for history-dependent
    monitors (e.g. an occupancy high-water mark).

    Exhaustive exploration with both reductions handles the paper's
    "special cases" (2–3 processes, a few acquire/release cycles well
    beyond what plain DFS reaches); beyond that, {!sample} draws
    seeded-random schedules.  The mutation suite (test_mutations.ml,
    test_model_check.ml) is the regression net that keeps the
    reductions honest: reduced and unreduced search must agree on every
    verdict.

    The engine assumes {!Sched.pause} is not used while checking
    {e except} through a [?faults] plan passed to the entry points
    below, and that process bodies' cleanup handlers do not perform
    shared accesses after an abort.

    {b Fault plans.}  Every entry point takes [?faults:Faults.plan];
    the checker creates a fresh {!Faults} controller per (re-)execution
    and sequences its monitor after the configuration's own.  Park-only
    plans ({!Faults.por_safe}) keep both reductions sound: whether a
    victim is frozen depends only on its own history, which is part of
    the {!State_hash} fingerprint and commutes with reordering
    independent steps of other processes.  Timed actions ([Stall],
    [Slow]) depend on the global step clock, so {!check} silently falls
    back to [por = false], [cache_bound = 0] for such plans.  When every
    unfinished process is frozen, pending timed resumes are
    fast-forwarded ({!Faults.unstick}) — deterministically, so replayed
    prefixes stay aligned; permanently parked processes are unwound via
    {!Sched.abort} at the end of each path, never reported as
    incomplete. *)

exception Violation of string
(** Raised by monitors to signal an invariant violation; the checker
    catches it and reports the offending schedule. *)

type config = {
  layout : Shared_mem.Layout.t;
  procs : (int * (Shared_mem.Store.ops -> unit)) array;
  monitor : Sched.monitor;
}

type builder = unit -> config
(** Must build a {e fresh} configuration — fresh layout, fresh cells,
    fresh monitor state — so that replayed schedules are reproducible. *)

type violation = {
  message : string;
  schedule : int list;
      (** The choice at each decision point: index into the enabled
          array, in execution order.  Replayable via {!replay}. *)
}

type result = {
  paths : int;  (** Interleavings fully explored. *)
  complete : bool;  (** False if [max_paths] stopped the search. *)
  violation : violation option;  (** First violation found, if any. *)
}

(** {1 The engine} *)

type options = {
  por : bool;  (** Sleep-set partial-order reduction. *)
  cache_bound : int;
      (** Maximum number of distinct states remembered by the state
          cache; [0] disables caching entirely. *)
  max_steps : int;  (** Per-path step budget (checked along the way). *)
  max_paths : int;  (** Total path budget. *)
}

val default_options : options
(** [por = true], [cache_bound = 1_000_000], [max_steps = 10_000],
    [max_paths = 2_000_000]. *)

type stats = {
  states : int;  (** Interior states expanded (not terminals). *)
  cache_hits : int;  (** Lookups that found the fingerprint cached. *)
  pruned_by_sleep : int;  (** Enabled transitions skipped while asleep. *)
  pruned_by_cache : int;  (** Paths cut at a covered cached state. *)
  max_depth : int;  (** Deepest path, in steps. *)
  truncated_paths : int;  (** Paths cut by [max_steps]. *)
  elapsed_s : float;
      (** Elapsed time spent exploring, on {!Obs.Clock}.  The search
          is single-threaded and compute-bound, so this is ≈ its
          processor time. *)
}

type report = { outcome : result; stats : stats }

val check : ?options:options -> ?faults:Faults.plan -> builder -> report
(** Depth-first exploration with the selected reductions.  With
    [por = false] and [cache_bound = 0] this is exactly {!explore}
    (same DFS order, same path count, same verdict).  A non-park-only
    [faults] plan forces both reductions off (see the module preamble). *)

val report_json : ?label:string -> report -> string
(** One machine-readable JSON line summarising a report (paths, states,
    pruning counters, paths/sec). *)

(** {1 Classic interface} *)

val explore :
  ?max_steps:int -> ?max_paths:int -> ?faults:Faults.plan -> builder -> result
(** Plain depth-first exhaustive exploration — {!check} with both
    reductions off.  [max_steps] (default [10_000]) truncates each path
    (invariants are still checked along truncated paths); [max_paths]
    (default [2_000_000]) bounds the search. *)

val sample :
  ?max_steps:int -> ?faults:Faults.plan -> seeds:int list -> builder -> result
(** One seeded-random schedule per seed; [paths] counts runs,
    including the violating run if any.  A reported violation carries
    the actual schedule taken (replayable via {!replay} with the same
    [faults] plan); its message is prefixed with ["[seed N] "].

    {b Seed contract}: for a fixed builder and plan, the schedule taken
    for seed [s] is a pure function of [s] — each scheduling decision
    draws exactly one [Rng.int rng (Array.length enabled)] from
    [Rng.create s], in execution order (see rng.mli). *)

val replay :
  ?max_steps:int ->
  ?faults:Faults.plan ->
  builder ->
  int list ->
  (unit, violation) Result.t
(** Re-run a single schedule (as reported in {!violation.schedule});
    once the schedule is exhausted, the first enabled process is
    stepped until completion or [max_steps].  Pass the same [faults]
    plan that produced the schedule, or the replay diverges. *)

val shortest_violation :
  ?max_steps:int ->
  ?max_paths_per_depth:int ->
  ?faults:Faults.plan ->
  builder ->
  violation option
(** Iterative-deepening search for a minimal-length counterexample:
    explores all schedules of length [d] for growing [d] (up to
    [max_steps], default [200]) and returns the first violation found
    at the smallest depth.  Much shorter counterexamples than
    {!explore}'s depth-first order, at the price of re-exploration;
    meant for debugging small configurations. *)

val minimize :
  ?max_steps:int -> ?faults:Faults.plan -> builder -> int list -> violation option
(** Greedy delta-debugging of a violating schedule: repeatedly delete
    chunks (halving the chunk size) and lower surviving choices towards
    [0], keeping a candidate only if a full {!replay} (under the same
    [faults] plan) still violates.  Returns [None] if the input
    schedule does not violate to begin with.  The result replays
    deterministically and is usually far shorter than what {!sample}
    reports — the printable witness for a bug report. *)
