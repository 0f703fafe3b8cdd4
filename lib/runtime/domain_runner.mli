(** Running a renaming protocol across real OS domains.

    Spawns one domain per source name, each performing acquire/release
    cycles against an {!Atomic_store}, with an on-line uniqueness
    monitor: a per-name atomic holder counter that must never exceed 1
    (incremented after [get_name], decremented before [release_name]).

    When a registry is supplied, every worker writes its own
    {!Obs.Registry.shard} — per-register-group access counters
    ({!Shared_mem.Store.observed}), [op.get.accesses] /
    [op.release.accesses] histograms, one span per operation (clocked
    by the worker's own access count), and [names.held] gauges whose
    high-water marks are fed from the {e global} holder counters, so
    the merged snapshot after the join carries the same schema a
    simulator run produces through [Sim.Observe].

    Useful bounds: run at most [Domain.recommended_domain_count]
    workers for true parallelism; more still works (domains are
    preemptively scheduled) and the protocols are wait-free, so
    stragglers cannot deadlock the run. *)

(** Real-stall fault injection, the multicore face of {!Sim.Faults}:
    simulated plans freeze a fiber; here a faulty worker burns real
    time on its core (or parks outright) while holding a name, and the
    run asserts the non-faulty workers still finish every cycle — the
    paper's wait-freedom claim under genuine preemption, not just
    simulated adversarial schedules. *)
type fault =
  | Park_holding
      (** Acquire once, then hold the name — spinning, never releasing —
          until every non-parked worker has finished all its cycles;
          release and exit then (so the run always terminates).  The
          worker's [cycles_done] stays at [0]: it never completes a
          full acquire/release cycle until the others are done. *)
  | Stall_holding of { cycle : int; spins : int }
      (** On 0-based cycle [cycle], spin [spins] times ([Domain.cpu_relax])
          while holding the name before releasing it. *)
  | Slow of int
      (** Spin this many times after every acquire and every release —
          a slow-lane worker. *)
  | Crash_holding of { cycle : int }
      (** Complete [cycle] full acquire/release cycles, acquire once
          more, then exit the domain {e without releasing} — process
          death while holding a name.  The name and its register
          footprint leak (see [result.leaked]); reclaiming a dead
          client's lease is the name server's job ([lib/server]). *)

type result = Agg.result = {
  cycles_done : int array;  (** Per worker; equals [cycles] on success. *)
  violations : int;
      (** Times a name was observed held by two workers at once, or a
          name fell outside [\[0, name_space)]. *)
  max_concurrent : int;  (** High-water mark of names held at once. *)
  max_concurrent_by_name : (int * int) list;
      (** [(name, high-water mark of simultaneous holders)] for every
          name ever held, ascending by name; any mark above [1] is a
          uniqueness violation. *)
  first_violation : string option;
      (** Human-readable detail of the first violation observed — which
          name was double-held (or out of range) — [None] on a clean
          run. *)
  leaked : int;
      (** Names still held when the run ended — names crashed workers
          took to the grave.  [0] on a fully clean run. *)
  reclaimed : int;  (** Always [0]: {!run} has no reclaimer. *)
}

val run :
  ?registry:Obs.Registry.t ->
  ?flight:Obs.Flight.t ->
  ?faults:(int * fault) list ->
  (module Renaming.Protocol.S with type t = 'a) ->
  'a ->
  layout:Shared_mem.Layout.t ->
  pids:int array ->
  cycles:int ->
  name_space:int ->
  result
(** [run (module P) inst ~layout ~pids ~cycles ~name_space] spawns
    [Array.length pids] domains.  The instance must have been created
    from [layout] with every pid a legal source name.  [registry], if
    given, gains one shard per worker; snapshot it after [run]
    returns.  [flight], if given, receives the structural flight
    records: each worker writes an unsynchronized private ring
    (capacity [flight]'s capacity divided by the worker count, at
    least 1024), clocked by that worker's own access count, and the
    rings are concatenated into [flight] in worker order after the
    join — so ordering between records of {e different} pids is not
    meaningful, unlike simulator rings.  [faults] maps worker
    {e indices} (positions in [pids], not pids) to faults; at least
    one worker should stay fault-free or [Park_holding] workers would
    wait forever on an empty set.
    @raise Invalid_argument if [pids] is non-empty and {e every} worker
    is [Park_holding] — each would wait on the others forever. *)
