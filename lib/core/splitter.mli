(** The long-lived splitter building block (Figure 2, Theorem 5).

    Accessing processes are dynamically partitioned into three output
    sets [-1], [0], [1].  Guarantee: in any execution in which at most
    [ℓ] processes use the splitter concurrently (with [ℓ ≥ 2]), each
    output set contains at most [ℓ - 1] processes at any time — so a
    tree of splitters strictly shrinks groups level by level.

    Mechanism: [LAST] detects interference (a process that does not
    read its own id back joins set [0]); [ADVICE[1]]/[ADVICE[2]] pass
    "which non-zero set is safe" advice between processes.  The advice
    may be wrong except in the one critical scenario — [ℓ] processes
    entering sequentially — where it provably survives intact (§3.1).

    Costs: [enter] ≤ 7 shared accesses, [release] ≤ 3.

    Note on the figure: lines 3, 4, 10, 11 of the supplied paper text
    are OCR-garbled; this implementation reconstructs them from the
    reads and writes quoted in the Lemma 4 case analysis (see
    DESIGN.md) and is validated by exhaustive model checking. *)

type t

type token = int
(** Per-entry bookkeeping needed by [release], packed into 4 bits of
    one immediate int so that entering allocates nothing:
    - bits 0–1: [direction + 1] (0, 1 or 2);
    - bit 2: set when the advice read on entry was [-1] (clear: [1]);
    - bit 3: [adv2], whether this entry wrote [ADVICE[2]].

    The advice is never ⊥ once read: [ADVICE[2]] starts at [1] and is
    only written with the negation of a non-⊥ value.  The encoding is
    public so that {!Renaming.Split} can store one token per level in
    a packed lease; any other int is not a token. *)

val create : ?loc:Obs.Loc.t -> Shared_mem.Layout.t -> t
(** Allocates [LAST], [ADVICE[1]], [ADVICE[2]].  [loc] is the stable
    structural label reported on every traced step (default
    [Splitter {stage = 0; node = 0}]); {!Renaming.Split} labels each
    node with its heap index. *)

val loc : t -> Obs.Loc.t
(** The structural label given at {!create} time. *)

val enter : t -> Shared_mem.Store.ops -> token
(** Join an output set; the set joined is [direction] of the token.
    Probes: [Enter loc] before the first access, [Exit (loc, dir)]
    after the last. *)

val direction : token -> int
(** The output set assigned: [-1], [0] or [1]. *)

val release : t -> Shared_mem.Store.ops -> token -> unit
(** Leave the output set.  A token must be released exactly once,
    before the same process re-enters.  Probes [Release loc]. *)

val reset : t -> Shared_mem.Store.ops -> token -> unit
(** Crash recovery: release the token on behalf of a {e dead} holder.
    [ops.pid] must be the dead process's source name and the holder
    must take no further step.  Behaves like {!release} and
    additionally clears a [LAST] claim still owned by the corpse. *)
