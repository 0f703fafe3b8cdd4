(** Feeding the metrics registry from a simulated run.

    One {!monitor} turns a {!Sched} execution — a plain [simulate] run,
    a harness measurement, or a model-check counterexample replay —
    into registry updates.  Real-domain runs go through the name
    server and export its own schema ([server.*]); the per-kind
    [store.*] totals and one GetName cost per acquisition are what the
    two share:

    - every shared access bumps the per-register-group counters
      ([store.reads.<group>], …) plus the ungrouped totals;
    - [Acquired n]/[Released n] events drive the [names.held] gauge,
      the per-name [names.held.<n>] gauges, and the [names.acquired] /
      [names.released] counters;
    - {e spans}: a process body marks the start of an operation with
      {!op_begin} (an [Event.Note ("obs:<op>", _)], free of shared
      accesses, so it never perturbs the schedule or costs).  The span
      collects every shared access the process performs until the
      operation completes — [Acquired n] closes a pending span (the
      [GetName] span, annotated with its destination name), a
      subsequent {!op_begin} or {!finalize} closes any other.  Closing
      a span records it in the shard's ring and feeds the
      [op.<op>.accesses] histogram and [op.<op>.count] counter.
      [Note] events emitted while a span is open become annotations.

    Emitting marker notes changes neither the enabled sets nor any
    access, so a model checker schedule found against marker-free
    bodies replays identically against marker-bearing ones — this is
    how counterexamples are profiled without disturbing partial-order
    reduction (event-emitting steps never commute, so markers inside
    checked bodies would defeat the reduction). *)

type t

val create : Obs.Registry.shard -> t
(** Fresh per-run tracker writing into [shard].  Create one per
    {!Sched.t}; a shard may accumulate several runs. *)

val monitor : t -> Sched.monitor
(** Combine with the run's other monitors via {!Checks.combine}. *)

val op_begin : string -> unit
(** Emit the span-start marker for operation [op] (["get"],
    ["release"], …) from inside a simulated process body. *)

val finalize : t -> unit
(** Close any spans still open (e.g. the last [release] of each
    process, or everything in-flight when a violation aborted the
    run).  Call after {!Sched.run} returns or raises. *)
