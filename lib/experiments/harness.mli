(** Shared machinery for the experiment suite (see {!Experiments}).

    Measurements are thin views over the [lib/obs] registry: each
    [measure_*] call registers one {!Obs.Registry.shard}, runs the
    seeded schedules with a {!Sim.Observe} monitor armed, and reads the
    per-operation costs back from the recorded spans.  Pass your own
    [?registry] to additionally get the full metrics snapshot
    (per-register-group access counters, [op.*.accesses] histograms,
    [names.held] gauges, the spans themselves) for the same runs;
    otherwise a private registry is created and discarded. *)

type costs = {
  get : int list;  (** Shared accesses per [GetName] execution. *)
  release : int list;  (** Shared accesses per [ReleaseName] execution. *)
}

val measure_protocol :
  ?registry:Obs.Registry.t ->
  (module Renaming.Protocol.S with type t = 'a) ->
  'a ->
  layout:Shared_mem.Layout.t ->
  work:Shared_mem.Cell.t ->
  pids:int array ->
  cycles:int ->
  seeds:int list ->
  name_space:int ->
  costs
(** Run [cycles] acquire/release cycles per process under each seeded
    random schedule, with the uniqueness monitor armed, collecting
    per-operation shared-access costs across all runs.  The layout and
    instance are reused across seeds (long-lived protocols reset
    themselves); raises {!Sim.Model_check.Violation} on any uniqueness
    violation. *)

val imax : int list -> int
val imean : int list -> float

type filter_costs = {
  fc : costs;
  rounds : int list;  (** Figure 4 rounds per acquisition. *)
  checks : int list;  (** Mutex checks per acquisition. *)
  advances : int list list;
      (** Per acquisition, trees advanced in each completed round
          (Lemma 9 instrumentation). *)
}

val measure_filter :
  ?registry:Obs.Registry.t ->
  Renaming.Filter.t ->
  layout:Shared_mem.Layout.t ->
  work:Shared_mem.Cell.t ->
  pids:int array ->
  cycles:int ->
  seeds:int list ->
  filter_costs
(** {!measure_protocol} specialized to FILTER, additionally collecting
    the Theorem 10 instrumentation. *)

val seeds : int -> int list
(** Deterministic seed list: [0xCAFE + i·104729].  The test suite uses
    its own list ([0x5EED + i·7919]); the two are kept apart so that
    neither changes the schedules the other samples. *)
