(** Fault campaigns: adversarial discrimination testing.

    A campaign runs a protocol harness under many (fault plan, random
    schedule) pairs, all derived deterministically from a fixed seed
    matrix ({!default_seeds}).  The point is {e discrimination}: every
    deliberately broken variant in {!Renaming.Mutations} must be killed
    (some pair makes a monitor raise), while every correct protocol
    must survive the whole matrix.  A checker that cannot tell the two
    apart proves nothing; this module is the standing evidence that
    ours can.

    Each {!target} packages a fresh-config builder (the same shape the
    model checker uses) together with the note tags its bodies emit —
    {!Sim.Faults.gen} aims triggers at those tags — and whether the
    harness is expected to survive.  Reproduction is by construction:
    a {!finding} carries the matrix seed, the generated plan, the
    schedule seed and the taken schedule, and
    [renaming-cli faults --target T --plan P --seed S] replays it. *)

type target = {
  name : string;
  correct : bool;  (** Expected to survive the matrix. *)
  nprocs : int;
  tags : string list;  (** Note tags the bodies emit, for plan generation. *)
  max_access : int;  (** Upper bound for generated [At_access] triggers. *)
  sched_per_plan : int;  (** Random schedules tried per generated plan. *)
  builder : Sim.Model_check.builder;
}

val targets : unit -> target list
(** All campaign targets: the correct protocols (splitter, split,
    pf_mutex, ma, filter, pipeline) followed by every mutant
    ([mutant:...]). *)

val find : string -> target option
(** Look a target up by {!target.name}. *)

type finding = {
  seed : int;  (** Matrix seed the plan was generated from. *)
  sched_seed : int;  (** Seed of the violating random schedule. *)
  plan : Sim.Faults.plan;
  message : string;
  schedule : int list;  (** Choices taken, replayable via {!replay}. *)
}

type outcome = {
  target : string;
  correct : bool;
  runs : int;  (** (plan, schedule) pairs executed. *)
  finding : finding option;
      (** First finding — a kill for a mutant (expected), a bug for a
          correct target (campaign failure). *)
}

val default_seeds : int list
(** The fixed 32-seed matrix CI runs. *)

val run_once :
  ?max_steps:int ->
  target ->
  Sim.Faults.plan ->
  sched_seed:int ->
  (string * int list) option
(** One run of the target under the plan and the seeded random
    schedule; [Some (message, schedule)] if a monitor raised or the run
    failed to complete within [max_steps] (default [200_000]) — the
    wait-freedom budget: non-faulty processes of a correct target must
    finish no matter where victims stall. *)

val run_target :
  ?seeds:int list -> ?max_steps:int -> target -> outcome
(** The full matrix against one target.  For each matrix seed, a plan
    is generated ({!Sim.Faults.gen}, seeded from the matrix seed) and
    tried under [target.sched_per_plan] derived schedule seeds.
    Mutants stop at the first kill; correct targets always execute the
    whole matrix. *)

val run_all : ?seeds:int list -> ?max_steps:int -> unit -> outcome list

val ok : outcome list -> bool
(** Every mutant killed and every correct target clean. *)

val shrink :
  ?max_steps:int -> target -> finding -> Sim.Model_check.violation option
(** Delta-debug the finding's schedule under its plan
    ({!Sim.Model_check.minimize}); [None] if the finding does not
    replay (e.g. a wait-freedom timeout rather than a monitor
    violation). *)

val replay :
  ?max_steps:int -> target -> Sim.Faults.plan -> int list ->
  (unit, Sim.Model_check.violation) result
(** Deterministically re-execute a recorded schedule under a plan. *)

val pp_outcome : Format.formatter -> outcome -> unit

(** {1 Crash campaigns}

    Discrimination along the crash axis.  The adversary is
    {!Sim.Faults.gen_crash}: processes dying while holding a name.
    Expectations are {e paired}: each protocol family appears twice,
    bare and as its [<family>+reset] twin.  Both sides run the same
    workers, each of which stores its lease in a per-process slot
    before it emits [Acquired].

    - A {b bare} target must stay safe (no uniqueness violation) but
      {b leak}: every run in which a crash fired must end with a name
      still held — the crashed holder took it to the grave.  A bare
      target that doesn't leak means the plan never bit, so the matrix
      proves nothing.
    - A [+reset] twin adds one reclaimer process (excluded from the
      victim pool) that reads the crashed victims from
      {!Sim.Faults.crashed} and, for each, emits
      [Note ("reclaimed", name)] and runs the protocol's
      {!Renaming.Protocol.S.reset_footprint} on the corpse's lease —
      what the name server's reclaimer does for a dead client.  It
      must end every run with {e zero} names held, with exactly as
      many reclamations as fired crashes, still no violations, and no
      truncation.

    Everything is derived from the same seed matrix as the fault
    campaign, so reports are byte-identical across runs. *)

type crash_config = {
  ccfg : Sim.Model_check.config;
  held_now : unit -> (int * int) list;
      (** Names currently held per the harness's uniqueness monitor. *)
  reclaimed : unit -> int;
      (** Corpses reset so far; always [0] for bare targets. *)
}

type crash_target = {
  c_name : string;
  reset : bool;  (** The [+reset] twin, with its reclaimer. *)
  c_nprocs : int;  (** Workers only; the reclaimer process is extra. *)
  c_max_cycle : int;  (** Upper bound for [On_acquire] crash triggers. *)
  c_sched_per_plan : int;
  c_builder : Sim.Faults.t -> crash_config;
      (** A fresh harness; a [+reset] reclaimer reads its crashed
          victims from the run's fault controller and stops once every
          worker is finished or frozen. *)
}

val crash_targets : unit -> crash_target list
(** The paired matrix: split, level, compact, ma, filter, pipeline —
    each bare and [+reset]. *)

val find_crash : string -> crash_target option

type crash_run = {
  crashed : int;  (** Crash faults that fired during the run. *)
  leaked : (int * int) list;  (** [(name, proc)] still held at the end. *)
  run_reclaimed : int;
  failure : (string * int list) option;
      (** Violation or truncation, with the taken schedule. *)
}

val run_crash_once :
  ?max_steps:int ->
  crash_target ->
  Sim.Faults.plan ->
  sched_seed:int ->
  crash_run

val crash_plan_for : crash_target -> int -> Sim.Faults.plan
(** The crash plan the matrix derives from one seed (same seed-to-plan
    derivation as the fault campaign). *)

type crash_outcome = {
  crash_target_name : string;
  crash_reset : bool;
  crash_runs : int;
  crashes_fired : int;
  leak_runs : int;  (** Runs that ended with at least one name held. *)
  total_reclaimed : int;
  crash_finding : finding option;
}

val run_crash_target :
  ?seeds:int list -> ?max_steps:int -> crash_target -> crash_outcome

val run_all_crash :
  ?seeds:int list -> ?max_steps:int -> unit -> crash_outcome list

val crash_ok : crash_outcome list -> bool
(** Every target met its expectation and every matrix actually fired
    at least one crash. *)

val pp_crash_outcome : Format.formatter -> crash_outcome -> unit

val crash_report_json : seeds:int list -> crash_outcome list -> string
(** One JSON document (["renaming.crash/v1"]); deterministic, so
    byte-identical across runs of the same matrix. *)

val report_json : ?crash:crash_outcome list -> seeds:int list -> outcome list -> string
(** One JSON document (["renaming.faults/v1"]) with one entry per
    target and the overall verdict.  Given [crash], the crash matrix's
    ["renaming.crash/v1"] document is nested as the ["crash"] member
    and the verdict covers both matrices. *)

(** {1 Chaos campaigns}

    Discrimination along the {e service} axis: whole-server fault
    plans against the resilient {!Server}/{!Churn} stack on real
    domains.  Each (matrix seed, fault) pair runs four closed-loop
    Zipf clients against a small sharded server (2 shards × k=4,
    warm capacity 1, reclaimer scans wall-paced at 100 µs) with
    client 1 as the victim,
    and asserts the self-healing contract:

    - zero uniqueness violations, ever;
    - zero leaked or outstanding leases after the settle epilogue,
      with every reclaim landing within {b two lease TTLs} of scans;
    - whole-run availability (granted / issued) at or above {b 0.90}.

    A matrix in which no client was ever declared dead fails
    {!chaos_ok} — it would prove the reclaimer nothing. *)

type chaos_fault =
  | Crash_holding  (** Victim crashes holding the name one request
                       was granted, leaking it with its warm lease. *)
  | Crash_mid_drain  (** Victim crashes at one of its first four
                         retirements, leaving that lease warm or held
                         for the reclaimer. *)
  | Park_drainer  (** Victim parks at one of its first four
                      retirements until every normal client
                      finishes. *)
  | Stall_hot_shard  (** Every client's sources pinned to the same
                         half of the source space; the victim stalls
                         400k spins holding one of them on its shard,
                         which it shares with client 3. *)

val chaos_faults : chaos_fault list
val chaos_fault_name : chaos_fault -> string
val chaos_fault_of_name : string -> chaos_fault option

type chaos_outcome = {
  co_seed : int;
  co_fault : chaos_fault;
  co_violations : int;
  co_leaked : int;
  co_outstanding : int;
  co_reclaimed : int;
  co_reclaim_scans : int;  (** Worst staleness at reclaim, in scans. *)
  co_deaths : int;
  co_availability : float;  (** granted / issued, whole run. *)
  co_settle : int;  (** Epilogue scans to reach zero outstanding. *)
  co_ok : bool;
  co_msg : string;  (** Failed criteria, empty when [co_ok]. *)
}

val chaos_config : Server.config
(** The fixed chaos geometry (exported so the CLI can echo it). *)

val chaos_policy : int -> Policy.t
(** The per-seed retry policy chaos clients run under. *)

val run_chaos_one : ?requests:int -> int -> chaos_fault -> chaos_outcome
(** One (seed, fault) cell of the matrix; [requests] (default 1500)
    per client. *)

val run_chaos :
  ?seeds:int list -> ?requests:int -> unit -> chaos_outcome list
(** The full matrix: every fault under every seed (default
    {!default_seeds} — 32 seeds × 4 faults). *)

val chaos_ok : chaos_outcome list -> bool
(** Every cell [co_ok], and at least one death fired somewhere. *)

val chaos_clean : ?requests:int -> seed:int -> unit -> Churn.report
(** The same geometry and policy with {e no} fault plan — the
    availability/warm-path baseline the chaos bench gates against. *)

val pp_chaos_outcome : Format.formatter -> chaos_outcome -> unit

val chaos_report_json : seeds:int list -> chaos_outcome list -> string
(** One JSON document (["renaming.chaos/v1"]): per-run entries, a
    per-fault summary table, and the headline ["chaos_availability"]
    (the matrix-wide minimum). *)
