(** Client resilience policy: what a caller does when the server says
    {!Server.outcome.Busy} or {!Server.outcome.Shed}.

    The paper's protocols are wait-free per operation, but a {e
    service} front-end adds admission: a claimed source name or a full
    shard turns into a refusal the caller must absorb.  This module
    gives that caller a discipline — bounded retries under seeded
    exponential backoff with jitter, an optional deadline, and
    deadline-aware shedding: when the telemetry window's p99 latency
    already exceeds the deadline, the request is shed {e before} its
    first attempt rather than queueing behind a burn it cannot win.

    Backoff is stateless: spin counts are a pure function of
    [(seed, client, attempt)] (an avalanche-hash jitter), capped at
    [cap_spins] — so runs replay
    identically per seed, which the property tests pin down.

    The module is deliberately independent of [Server]: {!drive} takes
    the attempt as a thunk, so any refusal-shaped API (and any test)
    can run under a policy. *)

type t = {
  seed : int;  (** Jitter seed — distinct seeds, distinct schedules. *)
  retries : int;  (** Retries after the first attempt ([0] = one shot). *)
  base_spins : int;  (** First backoff step; also the jitter range. *)
  cap_spins : int;  (** Backoff ceiling, jitter included. *)
  deadline_ns : int;  (** Give-up budget per request ([0] = none). *)
}

val make :
  ?seed:int ->
  ?retries:int ->
  ?base_spins:int ->
  ?cap_spins:int ->
  ?deadline_ns:int ->
  unit ->
  t
(** Defaults: seed [0x5EED], 8 retries, base 64, cap 8192, no
    deadline.
    @raise Invalid_argument on negative retries/deadline, a
    non-positive base, or [cap_spins < base_spins]. *)

val default : t

val backoff_spins : t -> client:int -> attempt:int -> int
(** Spins to wait before retry [attempt] (0-based): deterministic in
    [(seed, client, attempt)], always in [\[1, cap_spins\]] —
    [min cap (base · 2^attempt + jitter)] with jitter in
    [\[0, base\]].
    @raise Invalid_argument when [attempt < 0]. *)

type 'a outcome =
  | Granted of { value : 'a; retries : int }
      (** Granted after [retries] backed-off re-attempts. *)
  | Deadline_exceeded of { retries : int }
      (** The deadline expired between attempts. *)
  | Shed of { retries : int; early : bool }
      (** Given up: retries exhausted, or ([early]) shed before the
          first attempt because the observed p99 already burned the
          deadline. *)

val drive :
  t ->
  client:int ->
  ?p99_ns:(unit -> int) ->
  attempt:(unit -> ('a, [ `Busy | `Shed ]) result) ->
  unit ->
  'a outcome
(** Run one request under the policy.  [attempt] is called up to
    [1 + retries] times; [`Busy]/[`Shed] refusals back off and retry.
    The deadline is timed on {!Obs.Clock}, read only when one is set;
    [p99_ns] (default: constant 0, never sheds early) supplies the
    live latency estimate for deadline-aware shedding. *)

val of_string : string -> (t, string) result
(** Parse a policy spec: comma-separated [key=value] over keys
    [retries], [base], [cap], [deadline_ns], [deadline_ms], [seed] —
    e.g. ["retries=8,base=64,cap=8192,deadline_ms=5"].  Unspecified
    keys take {!default}s. *)

val to_string : t -> string
