(** Per-shard health: a pure state machine the reclaimer seat drives
    once per scan.

    A shard is {e live} until its scan-over-scan deltas say otherwise:
    admission pressure (sheds this scan) degrades it, reclaimed leases
    (a crashed client's footprint came back through the lease scanner)
    or wedged pending slots (a non-zero count of the shard's PENDING
    fences unmoved for [drain_stale] consecutive scans) quarantine
    it.  A quarantined
    shard stops taking new acquires — the router spills them to a
    sibling — and is re-admitted only after it has been rebuilt in
    place: every lease reclaimed, nothing pending, and one quiet scan.

    The module is deliberately free of atomics and clocks: the server
    feeds it deltas and mirrors the resulting state into the padded
    word its router reads.  That keeps every transition unit-testable
    without domains. *)

type state = Live | Degraded | Quarantined

type thresholds = {
  degrade_sheds : int;  (** Sheds per scan that degrade the shard. *)
  quarantine_leaks : int;  (** Reclaimed leases per scan that quarantine. *)
  drain_stale : int;  (** Scans of unmoved non-empty pending that quarantine. *)
}

val default_thresholds : thresholds
(** [{ degrade_sheds = 64; quarantine_leaks = 1; drain_stale = 4 }]. *)

type t

val create : thresholds -> t
(** @raise Invalid_argument on a non-positive threshold. *)

val observe :
  t -> sheds:int -> leaks:int -> pending:int -> admitted:int -> state
(** One scan tick.  [sheds] and [leaks] are deltas since the previous
    tick; [pending] and [admitted] are the shard's current censuses,
    counted from its slot fences: PENDING ones, and all but the FREE
    ones.  Returns the state after the transition. *)

val state : t -> state

val quarantines : t -> int
(** Transitions into [Quarantined] so far. *)

val rebuilds : t -> int
(** Transitions [Quarantined] → [Live] so far. *)

val to_string : state -> string
