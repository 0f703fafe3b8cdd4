(** Adversarial fault injection for simulated runs.

    The paper's guarantees are adversarial: the splitter's output-set
    bound (Theorem 5) and FILTER's wait-freedom (Theorem 10) must hold
    {e no matter where other processes stall} — a parked process that
    re-enters later is exactly the long-lived regime in which renaming
    bugs hide.  A {!plan} describes such adversities declaratively;
    a {!t} (controller) applies it to a {!Sched} run through an
    ordinary {!Sched.monitor}, so fault plans compose with any
    scheduling strategy and with the model checker.

    {b Triggers are self-conditions.}  Every trigger depends only on
    the victim's {e own} history (its access count, its own emitted
    events) — never on another process's progress.  This is what keeps
    {!Model_check}'s partial-order reduction sound for park-only plans:
    a parked process is simply a frozen transition, and whether it is
    frozen commutes with reordering independent steps of other
    processes (see {!por_safe}).

    {b Actions.}
    - [Park]: freeze the victim permanently.  Non-faulty processes must
      still make progress — this is the wait-freedom regime.
    - [Stall n]: freeze the victim until [n] further {e global} steps
      have been taken, then resume it.  Models a slow process re-entering;
      triggered on [Acquired] it models a stalled holder whose burst
      release/re-acquire lands in the middle of other operations.
    - [Slow n]: from the trigger on, the victim pauses for [n] global
      steps after {e every} access — a slow-lane process.
    - [Crash]: process death.  Operationally identical to [Park] — in
      the asynchronous model a crashed process is indistinguishable
      from an arbitrarily slow one — but recorded separately
      ({!crashed}) so harnesses know the victim will {e never} release
      what it holds: a crash while holding a name leaks it forever
      unless a reclaimer resets the corpse's footprint.

    Timed actions depend on global time, so they are {e not} POR-safe;
    {!Model_check} automatically falls back to unreduced search for
    such plans. *)

type trigger =
  | At_access of int
      (** Fire right after the victim's [n]-th shared access ([n ≥ 1];
          [At_access 0] fires before its first). *)
  | On_note of { tag : string; value : int option; occurrence : int }
      (** Fire when the victim emits its [occurrence]-th (1-based)
          [Event.Note (tag, v)] with [v] matching [value] (any value if
          [None]).  [Note ("in", d)] parks a process {e inside} a
          splitter output set; [Note ("cycle", i)] parks it at the
          start of re-entry [i]. *)
  | On_acquire of int
      (** Fire when the victim emits its [n]-th (1-based)
          [Event.Acquired _] — i.e. while it {e holds} a name. *)

type action =
  | Park
  | Stall of int  (** Resume after this many further global steps. *)
  | Slow of int  (** Stall this many global steps after every access. *)
  | Crash  (** Permanent park recorded as process death. *)

type fault = { victim : int; trigger : trigger; action : action }
(** [victim] is the process {e index} (into the [procs] array). *)

type plan = fault list

val por_safe : plan -> bool
(** [true] iff every action is [Park] or [Crash] — the only cases in
    which the plan commutes with partial-order reduction and state
    caching (both just freeze a transition forever). *)

val victims : plan -> int list
(** Sorted distinct victim indices. *)

(** {1 Textual plans}

    A compact syntax for CLI flags, log lines and reproduction
    recipes; {!to_string} and {!of_string} round-trip.

    {v
    plan    := "none" | fault { "," fault }
    fault   := action "@p" INT ":" trigger
    action  := "park" | "crash" | "stall" INT | "slow" INT
    trigger := "acc" INT
             | "note(" TAG [ "=" INT ] ")" [ "#" INT ]
             | "acquire" [ "#" INT ]
    v}

    Examples: [park@p1:acc7] (park process 1 after its 7th access),
    [stall24@p2:note(in)#2] (second time process 2 is inside an output
    set, stall it for 24 global steps), [slow3@p0:acquire]. *)

val to_string : plan -> string
val of_string : string -> (plan, string) result

(** {1 Applying a plan} *)

type t
(** A controller: one per run.  Stateful — create a fresh one for every
    (re-)execution, exactly like a fresh monitor. *)

val controller : plan -> t

val monitor : t -> Sched.monitor
(** Combine with the run's other monitors ({!Checks.combine}); order
    does not matter.  The controller pauses victims via {!Sched.pause}
    and resumes timed stalls via {!Sched.resume} as global steps
    accumulate. *)

val fired : t -> int
(** Faults triggered so far. *)

val parked : t -> int list
(** Victims currently frozen (parked, crashed, stalling, or in a
    slow-lane pause), sorted. *)

val crashed : t -> int list
(** Victims whose [Crash] fault has fired, sorted.  Always a subset of
    {!parked}: crashed processes never resume. *)

val pending_resumes : t -> bool
(** A timed resume is scheduled but not yet due. *)

val unstick : t -> Sched.t -> bool
(** If no process is enabled but timed resumes are pending, fast-forward
    the fault clock to the earliest due batch and resume it (repeating
    until some process is enabled or nothing is pending).  Returns
    [true] if any process was resumed.  Needed because pauses do not
    consume steps: when every unfinished process is frozen the global
    clock would otherwise never advance. *)

val run :
  ?max_steps:int -> t -> Sched.t -> Sched.strategy -> Sched.outcome
(** Like {!Sched.run} but fault-aware: [t]'s monitor must already be
    attached to the simulation, and the loop {!unstick}s instead of
    stopping when only timed-stalled processes remain.  Parked
    processes are left frozen: the run completes when every non-parked
    process finishes. *)

(** {1 Random plans} *)

val gen :
  Rng.t ->
  nprocs:int ->
  ?tags:string list ->
  ?max_access:int ->
  unit ->
  plan
(** A random plan for a configuration of [nprocs] processes: up to
    [nprocs - 1] faults with distinct victims (at least one process is
    always left fault-free), triggers drawn over access counts in
    [\[0, max_access\]] (default [32]), the given note [tags], and
    acquire counts; actions weighted towards [Park].  Deterministic in
    the generator state — the same seed reproduces the same plan.
    Never generates [Crash]: crash campaigns use {!gen_crash}, and
    keeping this distribution fixed preserves the plans baked into
    existing campaign seeds. *)

val gen_crash :
  Rng.t ->
  nprocs:int ->
  ?max_cycle:int ->
  unit ->
  plan
(** A random {e crash} plan: between [1] and [nprocs - 1] victims (at
    least one process always survives), each crashed while {b holding}
    a name — trigger [On_acquire occ] with [occ] drawn from
    [\[1, max_cycle\]] (default [3]).  This is the adversary a
    reclaimer exists for: every fired fault leaks a held name until
    something reclaims it.  Deterministic in the generator
    state. *)
