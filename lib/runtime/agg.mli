(** Shared result-aggregation state for multi-domain runs.

    One value of {!t} is the cross-domain scoreboard of a run: the
    per-name holder counters and high-water marks behind the on-line
    uniqueness monitor, per-worker cycle counts and the first-violation
    record.  The name server ([lib/server]) scores
    its clients here; every real-domain run, bare protocol runs
    included, is a name-server run.

    The hot arrays (per-name holders and maxima, per-worker cycle
    counters) are {!Shared_mem.Pad}-spaced so contended updates to
    different names do not false-share cache lines.  An acquisition
    or release touches only its own name's cells: the scoreboard keeps
    no run-wide count that every grant would update, so two workers
    holding different names never write a common line.

    All updates are safe from any domain. *)

type t

type result = {
  cycles_done : int array;  (** Per worker; equals the cycle budget on success. *)
  violations : int;
      (** Times a name was observed held by two workers at once, or a
          name fell outside [\[0, name_space)]. *)
  max_concurrent_by_name : (int * int) list;
      (** [(name, high-water mark of simultaneous holders)] for every
          name ever held, ascending by name; any mark above [1] is a
          uniqueness violation. *)
  first_violation : string option;
      (** Human-readable detail of the first violation observed — which
          name was double-held (or out of range) — [None] on a clean
          run. *)
  leaked : int;
      (** Names still held when the run ended — what crashed workers
          took to the grave.  [0] on a fully clean run. *)
  reclaimed : int;
      (** Leases the name server's reclaimer retired on behalf of dead
          clients; [0] when the run has no reclaimer. *)
}

val create : name_space:int -> workers:int -> parked:int -> t
(** [create ~name_space ~workers ~parked] — fresh scoreboard for
    [workers] workers of which [parked] will park holding a name.
    @raise Invalid_argument if [workers > 0] and every worker is
    parked — each would wait on the others forever. *)

val bump_max : int Atomic.t -> int -> unit
(** [bump_max a v] raises [a] to [v] if [v] is larger: a monotone CAS
    loop, allocation-free. *)

val note_violation : t -> string -> unit
(** Count a violation, recording the message if it is the first. *)

val acquired : t -> worker:int -> name:int -> unit
(** Score one acquisition by worker index [worker]: bump the holder
    count and per-name maximum of [name], flagging double-holds and
    out-of-range names as violations. *)

val released : t -> name:int -> unit
(** Score the matching release: drop the holder count.  Call
    {e before} the protocol-level release, mirroring {!acquired} being
    called after the grant. *)

val cycle_done : t -> int -> unit
(** One full acquire/release cycle completed by this worker index. *)

val worker_done : t -> unit
(** A non-parked worker finished all its cycles. *)

val all_normal_done : t -> bool
(** Every non-parked worker has called {!worker_done} — the condition
    parked holders spin on before releasing. *)

val result : ?reclaimed:int -> t -> result
(** Freeze the scoreboard (call after the join).  [leaked] is the sum
    of holder counts still standing; [reclaimed] is the name server's
    reclaim count ([Churn.run] passes it) and defaults to [0]. *)
