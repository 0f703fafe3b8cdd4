(** Cache-line discipline for hot atomic arrays.

    [Atomic.make] allocates a two-word block (header + value).  An
    [Array.init n (fun _ -> Atomic.make 0)] therefore packs cells
    next to each other: on OCaml 5 the major heap keeps blocks of one
    size in segregated pools, so once promoted the cells sit 16 bytes
    apart, several to a 64-byte line, and contended updates to
    {e different} cells ping-pong the same line between cores (false
    sharing).  Spacer blocks allocated between the cells do not help:
    they keep the cells apart only in the minor heap, and promotion
    sends cells and spacers to different pools.

    OCaml 5.1 has no [Atomic.make_contended], so this module pads the
    cells themselves: each cell is one block of [2 * line_words] words
    whose field 0 is the atomic's value.  The padding is part of the
    block, so minor-heap promotion copies it and compaction keeps it;
    two cells' values are always at least [2 * line_words] words
    apart.

    Each cell costs [2 * line_words] words instead of two — use this
    for small, hot arrays (per-shard and per-client counters, per-slot
    fences, per-name holder counters), not for O(S) tables. *)

type t
(** A padded array of [int Atomic.t] cells. *)

val create : int -> int -> t
(** [create n v] — [n] cells initialised to [v], no two on one cache
    line.
    @raise Invalid_argument when [n < 0]. *)

val cells : t -> int Atomic.t array
(** The cells themselves, for hot-loop indexing.  Element [i] is the
    same cell every call; every [Atomic] operation works on it. *)

val get : t -> int -> int
val length : t -> int

val line_words : int
(** Words in one 64-byte cache line on 64-bit; each cell spans two. *)
