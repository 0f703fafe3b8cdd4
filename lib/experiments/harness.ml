type costs = { get : int list; release : int list }

let seeds n = List.init n (fun i -> 0xCAFE + (i * 104729))

(* Per-operation costs are read back from the span ring rather than
   tallied by ad-hoc counters: the Observe monitor counts every shared
   access a process makes while its span is open, which is exactly the
   GetName (marker → Acquired) or ReleaseName (marker → next marker)
   window.  The [work] read sits outside both windows. *)
let run_seeds ?registry ~layout ~pids ~cycles ~seeds ~name_space body =
  let registry = match registry with Some r -> r | None -> Obs.Registry.create () in
  let span_capacity = 2 * cycles * Array.length pids * List.length seeds in
  let shard = Obs.Registry.shard ~span_capacity registry in
  List.iter
    (fun seed ->
      let obs = Sim.Observe.create shard in
      let u = Sim.Checks.uniqueness ~name_space () in
      let monitor =
        Sim.Checks.combine [ Sim.Checks.uniqueness_monitor u; Sim.Observe.monitor obs ]
      in
      let t = Sim.Sched.create ~monitor layout (Array.map (fun pid -> (pid, body)) pids) in
      let outcome =
        Sim.Sched.run ~max_steps:50_000_000 t (Sim.Sched.random (Sim.Rng.make seed))
      in
      Sim.Observe.finalize obs;
      if outcome.truncated then
        raise (Sim.Model_check.Violation "measurement run exceeded its step budget"))
    seeds;
  let get = ref [] and release = ref [] in
  List.iter
    (fun (s : Obs.Span.t) ->
      match s.name with
      | "get" -> get := s.accesses :: !get
      | "release" -> release := s.accesses :: !release
      | _ -> ())
    (Obs.Registry.shard_spans shard);
  { get = !get; release = !release }

let measure_protocol (type a) ?registry
    (module P : Renaming.Protocol.S with type t = a) (inst : a) ~layout ~work ~pids
    ~cycles ~seeds ~name_space =
  run_seeds ?registry ~layout ~pids ~cycles ~seeds ~name_space
    (Workload.protocol_body ~markers:true (module P) inst ~work ~cycles)

let imax = List.fold_left max 0
let imean l = float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (max 1 (List.length l))

type filter_costs = { fc : costs; rounds : int list; checks : int list; advances : int list list }

let measure_filter ?registry f ~layout ~work ~pids ~cycles ~seeds =
  let module F = Renaming.Filter in
  let rounds = ref [] and checks = ref [] and advances = ref [] in
  let body =
    Workload.protocol_body ~markers:true (module F) f ~work ~cycles ~on_get:(fun lease ->
        rounds := F.rounds lease :: !rounds;
        checks := F.checks lease :: !checks;
        advances := F.advances lease :: !advances)
  in
  let fc =
    run_seeds ?registry ~layout ~pids ~cycles ~seeds ~name_space:(F.name_space f) body
  in
  { fc; rounds = !rounds; checks = !checks; advances = !advances }
