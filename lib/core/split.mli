(** The SPLIT protocol (Figure 1, Theorem 2): fast, long-lived renaming
    of [k] processes to [3^(k-1)] names in [O(k)] shared accesses.

    A complete ternary tree of splitters of depth [k-1].  To acquire a
    name, a process enters the root splitter and descends: the output
    set assigned at each level selects the child entered at the next
    level.  Since each splitter shrinks the group by one (Theorem 5),
    the leaf reached after [k-1] levels is occupied by no other
    process; the leaf's path string [s] (over [{-1,0,1}], root symbol
    first) encodes the name [Σ (1+s[i])·3^(i-1)].  Releasing walks the
    path backwards, releasing the deepest splitter first so that a
    process never ceases to be "inside" a parent while still using the
    child.

    Cost: at most 7 accesses per splitter on entry and 2 on release,
    so GetName ≤ 7(k-1) and ReleaseName ≤ 2(k-1) — independent of [S]
    and [n].  Space is [Θ(3^k)] registers, which is why SPLIT is only
    the first stage of the Theorem 11 pipeline (it reduces [S] to
    [3^(k-1)] so that FILTER's polynomial-space instances apply). *)

include Protocol.S with type lease = int
(** A lease is one immediate int, so a get/release cycle allocates
    nothing.  The {!Splitter.token} taken at depth [h] occupies bits
    [4h .. 4h+3], root first; [k ≤ 12] uses at most 44 bits.  The
    splitters themselves are not stored: the node entered at depth
    [h+1] is [3i + 2 + dir] for the depth-[h] node [i], so
    [release_name] replays the descent to the deepest node and walks
    back up through parents [(i-1)/3].  [name_of] recomputes the name
    from the directions. *)

val create : ?stage:int -> Shared_mem.Layout.t -> k:int -> t
(** Allocates the [(3^(k-1) - 1) / 2] interior splitters, each
    labelled [Obs.Loc.Splitter {stage; node}] with its heap index
    (children of node [i] are [3i+1..3i+3]); [stage] (default 0)
    distinguishes pipeline stages in traces.
    @raise Invalid_argument if [k < 1] or [k > 12] (the tree would
    exceed ~265k registers). *)

val k : t -> int

val path_string : t -> lease -> int array
(** The leaf label [s] of a held lease — the sequence of output sets
    assigned along the descent, root first (length [k-1]).  Exposed
    for tests and the experiment harness. *)
