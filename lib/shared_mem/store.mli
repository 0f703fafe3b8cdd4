(** Process-side access to shared registers.

    An {!ops} record is the capability a single process uses to touch
    shared memory.  Protocol code is written purely against [ops], so
    the same code runs under the deterministic simulator, a plain
    sequential array (for single-threaded tests), or an [Atomic.t]
    array across OS domains (see the [runtime] library).

    The [pid] field is the process's {e source name} — the identity in
    [{0, …, S-1}] that the renaming protocols reduce. *)

(** {1:arena The access arena}

    A {!tally} is one process's flat, preallocated access ledger:
    per-register-kind counts indexed by dense {!Cell.id} plus a
    running total, all plain int-array stores.  It is not a wrapper:
    the store counts into it on the access path itself.  A direct
    store ({!atomic}, with [?tally]) registers every cell of its
    layout when its [ops] are built, so {!read} counts an access with
    two plain increments and no check; a closure store ({!seq_ops})
    registers a cell on its first access.  One arena serves per-group
    registry metrics ({e deferred}: deltas are pushed only when a
    snapshot runs), per-operation access counts
    ([tally_mark]/[tally_since]) and the flight recorder's logical
    clock ([tally_total]).  Several [ops] may share one tally (e.g. one
    per server shard store).  Single-writer, like every registry
    shard; its running total sits on cache lines of its own
    ({!Pad.copy_as_padded}), so two writers' arenas never false-share. *)

type tally

val tally : ?shard:Obs.Registry.shard -> unit -> tally
(** A fresh arena; each cell is registered on its first counted
    access.  With [shard], the arena is bound to it: group counters
    ([store.reads.<group>], …; a register's {e group} is its
    {!Cell.name} up to the first ['[']) plus the ungrouped totals
    [store.reads] / [store.writes] / [store.rmws] (present in [shard]
    from creation on) are materialized into [shard] as deltas when
    {!Obs.Registry.snapshot} runs, or on {!tally_flush}.  Without
    [shard], the counts serve {!tally_total} and {!tally_since}
    only. *)

val tally_total : tally -> int
(** Every access since creation — never reset; the flight recorder's
    logical clock. *)

val tally_mark : tally -> unit
(** Mark the current total; {!tally_since} reports accesses since. *)

val tally_since : tally -> int

val tally_flush : tally -> unit
(** Push unpushed deltas into the bound registry shard now (no-op for
    an unbound tally).  Registered automatically via
    {!Obs.Registry.on_snapshot}, so explicit calls are rarely
    needed. *)

(** {1 The capability}

    An {!ops} value is the capability a single process uses to touch
    shared memory.  It has two arms, fixed when it is built:
    - {e direct}: built by {!atomic} over an [int Atomic.t] array.
      {!read}, {!write} and {!rmw} index that array themselves, so an
      access is one [Atomic] operation plus the tally's two increments;
    - {e closures}: built by {!make}, for stores that must intercept
      each access (the simulator's effect store, {!seq_ops},
      {!counting}, test wrappers).  {!read} calls the [read] field.

    Protocol code calls {!read}, {!write} and {!rmw}, never the fields,
    so the same source runs on both arms.  The record is private: only
    this module builds one, so a wrapper can not copy an [ops] and keep
    its direct arm while replacing an accessor. *)

type ops = private {
  mutable pid : int;
      (** Source name of the executing process, set with {!set_pid}:
          an agent running protocol steps on behalf of several
          sources (the name server, one client's ops per shard)
          re-binds it per request without copying the record.  Only
          the owner of an [ops] value may set it, and never while a
          protocol call on it is in flight. *)
  read : Cell.t -> int;
      (** Atomic read of a register, as a closure.  On either arm it
          does what {!read} does, for callers that want a function
          value. *)
  write : Cell.t -> int -> unit;  (** Atomic write, as a closure. *)
  rmw : Cell.t -> (int -> int) -> int;
      (** [rmw c f] atomically replaces the contents [v] of [c] by
          [f v] and returns [v].  This is a {e stronger} primitive than
          the paper's read/write registers (consensus number > 1); the
          core protocols never use it — it exists for the Test&Set
          baseline ({!Renaming.Tas_baseline}) that the paper contrasts
          against, and costs one shared access. *)
  probe : Obs.Probe.t;
      (** Structural-event hook: protocol code reports its traced
          steps (splitter enter/exit, mutex enter/check/release) here.
          Defaults to {!Obs.Probe.null} in every backend; install a
          recording probe with {!probed}.  Emitting costs no shared
          access. *)
  regs : int Atomic.t array;  (** The direct arm's registers; empty on the closure arm. *)
  counts : tally;  (** The direct arm's tally. *)
}

val read : ops -> Cell.t -> int
(** Atomic read of a register: one shared access. *)

val write : ops -> Cell.t -> int -> unit
(** Atomic write of a register: one shared access. *)

val rmw : ops -> Cell.t -> (int -> int) -> int
(** Atomic read-modify-write (see the [rmw] field): one shared
    access. *)

val make :
  ?probe:Obs.Probe.t ->
  pid:int ->
  read:(Cell.t -> int) ->
  write:(Cell.t -> int -> unit) ->
  rmw:(Cell.t -> (int -> int) -> int) ->
  unit ->
  ops
(** A closure store: every access calls the given function.  A wrapper
    forwards to the store it wraps with {!read}/{!write}/{!rmw}. *)

val atomic : ?tally:tally -> cells:Cell.t array -> int Atomic.t array -> pid:int -> ops
(** [atomic ~cells regs ~pid] is a direct store over [regs], the
    registers of the layout whose cells are [cells] ([regs.(Cell.id c)]
    holds [c]).  With [tally], every cell is registered in it now and
    every access is counted into it.  For store implementations
    ([Runtime.Atomic_store.ops]).
    @raise Invalid_argument when [tally] is given and [cells] does not
    cover every index of [regs]. *)

val set_pid : ops -> int -> unit
(** Re-bind the source name in place (see the [pid] field). *)

val with_pid : ops -> int -> ops
(** A copy of [ops] with another source name, on the same arm and with
    the same probe (pipeline chaining, crash recovery). *)

val probed : Obs.Probe.t -> ops -> ops
(** [probed p ops] is [ops] with [p] installed as the structural
    probe.  The probe closure should capture the process identity it
    attributes events to at wrap time — {!with_pid} re-labelling
    carries the probe along unchanged, so attribution stays with the
    original process. *)

(** {1 Sequential store}

    Backing for single-threaded tests: a plain array.  All processes
    share the same array; no interleaving happens (calls run to
    completion), so it exercises protocol logic, not concurrency. *)

type seq

val seq_create : Layout.t -> seq
(** Instantiate register storage from a layout's initial values. *)

val seq_ops : ?tally:tally -> seq -> pid:int -> ops
(** Capability for process [pid] over the sequential store.  With
    [tally], every access is counted into it by the same closure that
    touches the array (see {!section:arena}). *)

val seq_get : seq -> Cell.t -> int
(** Direct inspection of a register (test helper, not a protocol step). *)

val seq_set : seq -> Cell.t -> int -> unit
(** Direct mutation of a register (test helper, not a protocol step). *)

(** {1 Access counting}

    Both counting wrappers are backed by [lib/obs] counters, so the
    per-operation tallies below and the registry's per-group series are
    bumped by the same primitive and can never drift. *)

type counter
(** A pair of {!Obs.Counter.t}s (reads, writes) for one process's
    current operation. *)

val counter : unit -> counter

val counting : counter -> ops -> ops
(** [counting c ops] forwards to [ops] and tallies accesses in [c].
    An [rmw] is one atomic access and tallies as a write. *)

val reads : counter -> int
val writes : counter -> int

val accesses : counter -> int
(** [reads + writes] — the paper's complexity measure. *)

val reset : counter -> unit

val group : Cell.t -> string
(** The register-group key used by a bound {!tally}: the cell's name
    up to the first ['[']. *)
