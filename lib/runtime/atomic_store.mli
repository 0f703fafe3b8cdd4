(** Shared-register storage for real parallelism.

    One [Atomic.t] per register, each a {!Shared_mem.Pad} cell on
    cache lines of its own, so a write to one register never moves
    another's line.  OCaml atomics are sequentially consistent, which
    is strictly stronger than the atomic single-register reads/writes
    the paper assumes, so every protocol correct in the paper's model
    is correct here.  The same protocol code that runs under the
    simulator runs across OS domains through the {!ops} capability. *)

type t

val create : Shared_mem.Layout.t -> t
(** Storage initialised from the layout.  Call after all allocation is
    done and before spawning domains. *)

val ops : ?tally:Shared_mem.Store.tally -> t -> pid:int -> Shared_mem.Store.ops
(** Capability for one worker; safe to use from any domain.  It is
    {!Shared_mem.Store}'s direct arm: [Store.read] and its siblings
    index the registers themselves, with no closure call.  With
    [tally], every register of the layout is registered in it now and
    each access is counted into it with two plain increments.  The
    tally is single-writer: give each domain its own. *)

val get : t -> Shared_mem.Cell.t -> int
(** Direct read (monitoring; itself atomic). *)
