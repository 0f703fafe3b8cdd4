(** Cache-line discipline for hot, per-writer state.

    [Atomic.make] allocates a two-word block (header + value), and a
    small record is a block of a few words.  On OCaml 5 the major heap
    keeps blocks of one size in segregated pools, so once promoted,
    blocks allocated one after the other sit next to each other,
    several to a 64-byte line.  Updates to {e different} blocks then
    ping-pong the same line between cores (false sharing).  Spacer
    blocks allocated between them do not help: they keep the blocks
    apart only in the minor heap, and promotion sends blocks and
    spacers to different pools.

    OCaml 5.1 has no [Atomic.make_contended], so this module pads the
    blocks themselves: {!copy_as_padded} copies a block into a larger
    one whose extra fields are never read.  The padding is part of the
    block, so minor-heap promotion copies it and compaction keeps it.
    The fields of two padded blocks can never share a line, whichever
    domain allocated them and whichever pool the GC promoted them into.
    An unpadded block's last fields may still share a line with the
    first fields of a padded block right after it.

    Padding costs at least [2 * line_words] words per block — use it
    for small, hot per-writer state (per-client records and counters,
    per-shard and per-slot cells), not for O(S) tables. *)

val copy_as_padded : 'a -> 'a
(** [copy_as_padded x] is a shallow copy of the block [x]: the same tag
    and the same fields, followed by at least [line_words - 1] unused
    words, the whole block a whole number of lines and at least two
    lines long.  Mutable fields of the copy are its own: writes to [x]
    after the copy are not seen through it, so copy before handing the
    value to anyone else.  Only the copy's size differs, and the size
    is visible to polymorphic equality, hashing and [Marshal]: compare
    padded values physically.  A [{ r with ... }] update of a padded
    record builds an unpadded one.
    @raise Invalid_argument on an immediate, a closure, a lazy value or
    a block the GC does not scan (strings, floats, float arrays). *)

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
(** Words in one 64-byte cache line on 64-bit. *)
