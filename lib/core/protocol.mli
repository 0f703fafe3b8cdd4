(** The long-lived renaming interface.

    A protocol instance renames processes with source names in
    [{0, …, S-1}] (carried by [ops.pid]) to destination names in
    [{0, …, D-1}], assuming at most [k] processes concurrently request
    or hold names.  The correctness condition (§2 of the paper):
    distinct processes never hold the same name concurrently.

    [get_name] returns a {e lease} — the bookkeeping needed to undo the
    acquisition (splitters entered, mutex blocks held, …).  The caller
    must pass the lease to [release_name]; per the paper's
    operation-pair discipline, a process alternates [get_name] and
    [release_name] and never holds two leases at once. *)

module type S = sig
  type t
  (** A protocol instance: its shared registers live in the layout it
      was created from; one value is shared by all processes. *)

  type lease

  val name_space : t -> int
  (** The size [D] of the destination name space. *)

  val get_name : t -> Shared_mem.Store.ops -> lease
  val name_of : t -> lease -> int
  (** The destination name held by the lease, in [\[0, name_space)]. *)

  val release_name : t -> Shared_mem.Store.ops -> lease -> unit

  val reset_footprint : (t -> Shared_mem.Store.ops -> lease -> unit) option
  (** Crash-recovery hook: clear every shared-register trace a {e dead}
      holder of [lease] left behind (its [LAST] claims, mutex presence
      bits, grid presence flags), returning the lease's name to
      service.  [None] when the protocol has no recovery path.

      The caller (a reclaimer: the name server's, or the crash
      matrix's in [lib/campaign]) must pass [ops] with [pid] set to the
      dead process's source name, and must guarantee the holder takes
      no further step: unlike [release_name] this may be executed by a
      {e different} process on the corpse's behalf, so
      it reconstructs ownership from the current register contents
      (e.g. dropping a presence bit while preserving the persistent
      turn bit) rather than trusting lease-local state alone. *)
end

type packed = Packed : (module S with type t = 'a) * 'a -> packed
(** A protocol instance with its module, for heterogeneous pipelines. *)

(** Dynamically-typed protocol values: [Any.t] erases the instance and
    lease types so that stages chosen at run time (by {!Params}) can be
    composed.  [Any] itself satisfies {!S}. *)
module Any : sig
  include S

  val pack : (module S with type t = 'a) -> 'a -> t
  val of_packed : packed -> t

  val reset_available : t -> bool
  (** Whether the packed protocol has a recovery path.  [Any]'s own
      [reset_footprint] is statically [Some] (the packed module decides
      at run time, raising [Invalid_argument] when it has none); check
      this before building a reclaimer over a dynamic value. *)
end

(** [Chain (A) (B)] runs [B] on top of [A]: a process first acquires an
    intermediate name from [A], then uses {e that name} as its source
    name in [B] (§4.4: "a process can then use the acquired name to
    access another long-lived renaming protocol").  [B]'s source name
    space must therefore be at least [A]'s destination name space.
    Release happens innermost-first ([B] then [A]), so the process
    still holds its [A]-name while releasing in [B]. *)
module Chain (A : S) (B : S) : sig
  include S

  val make : A.t -> B.t -> t
  val first : t -> A.t
  val second : t -> B.t
end

val chain_any : Any.t -> Any.t -> Any.t
(** {!Chain} at the dynamic level.  Like the static functor, the
    chain's recovery hook exists only when {e both} stages have one:
    if either stage lacks it, the result answers [false] to
    {!Any.reset_available} instead of raising mid-reclaim. *)

val chain_all : Any.t list -> Any.t
(** Left-nested chain of one or more stages.
    @raise Invalid_argument on the empty list. *)
