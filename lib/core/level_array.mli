(** Per-level bit arrays with a probe/claim discipline, following
    Alistarh et al., {e The LevelArray: A Fast, Practical Long-Lived
    Renaming Algorithm} (ICDCS 2014).

    Names are cells of a cascade of bit arrays with capacities
    [2, 4, 8, … < 2k] plus a final backstop array of [k] cells.  A
    process probes each level lowest-slot-first — read the bit, skip it
    if set, otherwise claim it with test&set — and descends after
    [capacity/2] failures; the backstop level is retried without bound
    and always succeeds.  (The paper probes randomly; this variant
    probes deterministically from slot 0, which keeps the simulator
    runs replayable and concentrates names at the low end.)

    The point of the cascade is {e adaptivity}: every failure is
    chargeable to a distinct concurrent process, so with live
    contention [m] both the acquired name and the access count are
    [O(m)] — independent of the build capacity [k] (see the
    [prop_level_adaptive] property suite).

    Like {!Tas_baseline} this uses the stronger test&set primitive
    ([Store.rmw]) rather than reads and writes alone; it is the
    "practical multicore" point of comparison for the paper's
    read/write protocols, not one of them.  Long-lived: release clears
    the claimed bit.  [reset_footprint] is total — a holder's whole
    footprint is its one set bit. *)

type t

type lease

val create : Shared_mem.Layout.t -> k:int -> t
(** Cascade for at most [k] concurrent processes.  Registers the level
    arrays [LVL[i]] and the backstop [LVLB].
    @raise Invalid_argument if [k < 1]. *)

val k : t -> int

val name_space : t -> int
(** Total cells across all levels — less than [4k]. *)

val levels : t -> int
(** Number of levels including the backstop. *)

val get_name : t -> Shared_mem.Store.ops -> lease
val name_of : t -> lease -> int
val release_name : t -> Shared_mem.Store.ops -> lease -> unit
val reset_footprint : (t -> Shared_mem.Store.ops -> lease -> unit) option

val accesses : lease -> int
(** Shared accesses the acquisition took (adaptivity instrumentation). *)

val level_of : lease -> int
(** The level the name was claimed at; the backstop is [levels t - 1]. *)
