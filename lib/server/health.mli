(** Per-shard wedged-drain judge: a pure record the reclaimer seat
    feeds once per scan.

    A shard's drain is {e wedged} when one lease has sat PENDING in
    its range for [drain_stale] consecutive scans after the scan that
    first saw it: its drainer crashed or parked, or nothing has
    released on the shard since.  The seat then heals the shard by
    draining it.  A lease is known by its slot and the slot's grant
    generation, which advances on every cold grant, so a slot whose
    pending lease is retired and replaced between two scans restarts
    the clock, however many leases the range holds.  An owner's
    re-grant keeps the generation: a lease re-granted and parked again
    between scans counts as the same lease, and draining it is
    harmless.

    The module is deliberately free of atomics and clocks: the server
    feeds it one snapshot of the range per scan.  That keeps every
    verdict unit-testable without domains. *)

type state =
  | Live
  | Wedged  (** The last scan found a lease pending for [drain_stale] scans. *)

type t

val create : drain_stale:int -> slots:int -> t
(** A judge for a range of [slots] slots.
    @raise Invalid_argument when [drain_stale] or [slots] is below 1. *)

val observe : t -> int array -> state
(** One scan tick over a snapshot with one entry per slot: [snap.(i)]
    is the grant generation of the range's slot [i] when its fence is
    PENDING, and [-1] otherwise.  The judge
    keeps the last snapshot, so the caller may reuse the array.  After
    a [Wedged] verdict every lease's clock restarts, so a shard the
    caller drains is judged afresh. *)

val state : t -> state
(** The last verdict. *)

val to_string : state -> string
