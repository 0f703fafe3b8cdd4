open Shared_mem

type fault =
  | Park_holding
  | Stall_holding of { cycle : int; spins : int }
  | Slow of int
  | Crash_holding of { cycle : int }

type result = Agg.result = {
  cycles_done : int array;
  violations : int;
  max_concurrent : int;
  max_concurrent_by_name : (int * int) list;
  first_violation : string option;
  leaked : int;
  reclaimed : int;
}

(* Per-domain Obs instrumentation: one [Store.tally] arena on [ops]
   (grouped access counts materialize at snapshot), one span per
   operation clocked by the worker's own access count, and the
   op.*.accesses histograms.  Metric handles are resolved once per op
   name, not per call — no string building on the cycle path. *)
let instrument ~registry ~pid raw =
  let shard = Option.map (fun r -> Obs.Registry.shard r) registry in
  let t = Store.tally () in
  let ops =
    match shard with
    | None -> raw
    | Some sh -> Store.observed_into t sh raw
  in
  let clock = ref 0 in
  let handles = ref [] in
  let record sh op annotations =
    let accesses = Store.tally_since t in
    Obs.Registry.record_span sh ~name:op ~pid ~start_step:!clock
      ~end_step:(!clock + accesses) ~accesses ~annotations;
    clock := !clock + accesses;
    let hist, count =
      match List.assoc_opt op !handles with
      | Some h -> h
      | None ->
          let h =
            ( Obs.Registry.histogram sh ("op." ^ op ^ ".accesses"),
              Obs.Registry.counter sh ("op." ^ op ^ ".count") )
          in
          handles := (op, h) :: !handles;
          h
    in
    Obs.Histogram.observe hist accesses;
    Obs.Counter.incr count
  in
  (shard, t, ops, record)

let gauge_acquired shard ~name ~name_space ~held ~conc =
  match shard with
  | Some sh ->
      let g = Obs.Registry.gauge sh "names.held" in
      Obs.Gauge.incr g;
      Obs.Gauge.observe g conc;
      if name >= 0 && name < name_space then begin
        let gn = Obs.Registry.gauge sh ("names.held." ^ string_of_int name) in
        Obs.Gauge.incr gn;
        Obs.Gauge.observe gn held
      end;
      Obs.Registry.inc sh "names.acquired"
  | None -> ()

let gauge_released shard ~name ~name_space =
  match shard with
  | Some sh ->
      Obs.Gauge.decr (Obs.Registry.gauge sh "names.held");
      if name >= 0 && name < name_space then
        Obs.Gauge.decr (Obs.Registry.gauge sh ("names.held." ^ string_of_int name));
      Obs.Registry.inc sh "names.released"
  | None -> ()

let spin n =
  for _ = 1 to n do
    Domain.cpu_relax ()
  done

let run (type a) ?registry ?flight ?(faults = [])
    (module P : Renaming.Protocol.S with type t = a) (inst : a) ~layout ~pids ~cycles
    ~name_space =
  let store = Atomic_store.create layout in
  (* Per-worker rings, merged into [flight] in worker order after the
     join — each ring has a single writer, so recording is unsynchronized. *)
  let worker_rings =
    match flight with
    | None -> [||]
    | Some ring ->
        let per =
          max 1024 (Obs.Flight.capacity ring / max 1 (Array.length pids))
        in
        Array.map (fun _ -> Obs.Flight.create ~capacity:per ()) pids
  in
  (* parked workers hold their name until every non-parked worker has
     finished all its cycles — so parking cannot hang the run, and the
     others' completion IS the wait-freedom assertion *)
  let agg =
    Agg.create ~entry:"Domain_runner.run" ~name_space ~workers:(Array.length pids)
      ~parked:(List.length (List.filter (fun (_, f) -> f = Park_holding) faults))
  in
  let worker i pid () =
    (* Each domain writes its own registry shard; shards merge on
       snapshot, after the join.  The worker's span clock is its own
       access count (real time is preemptive; global step order is not
       observable the way it is under the simulator). *)
    let raw = Atomic_store.ops store ~pid in
    let shard, t, ops, record = instrument ~registry ~pid raw in
    (* The flight clock is the domain's own total access count — the
       tally's never-reset running total (per-operation deltas use
       mark/since on the same arena, so one count feeds both); cross-
       domain ordering is not claimed — see the Flight doc. *)
    let ops, fring =
      if Array.length worker_rings = 0 then (ops, None)
      else begin
        let ring = worker_rings.(i) in
        (* without a registry the ops aren't tallied yet — the flight
           clock still needs the total, so count into the same arena *)
        let ops = if Option.is_none shard then Store.tallying t ops else ops in
        ( Store.probed
            (Obs.Flight.probe ring ~pid ~clock:(fun () -> Store.tally_total t))
            ops,
          Some ring )
      end
    in
    let fly ev =
      match fring with
      | None -> ()
      | Some ring -> Obs.Flight.record ring ~clock:(Store.tally_total t) ~pid ev
    in
    let acquire () =
      Store.tally_mark t;
      let lease = P.get_name inst ops in
      let n = P.name_of inst lease in
      fly (Obs.Flight.Acquired n);
      (match shard with Some sh -> record sh "get" [ ("name", n) ] | None -> ());
      let held, conc = Agg.acquired agg ~worker:i ~name:n in
      gauge_acquired shard ~name:n ~name_space ~held ~conc;
      (lease, n)
    in
    let release (lease, n) =
      Agg.released agg ~name:n;
      gauge_released shard ~name:n ~name_space;
      Store.tally_mark t;
      P.release_name inst ops lease;
      fly (Obs.Flight.Released n);
      match shard with Some sh -> record sh "release" [] | None -> ()
    in
    match List.assoc_opt i faults with
    | Some Park_holding ->
        let held = acquire () in
        while not (Agg.all_normal_done agg) do
          Domain.cpu_relax ()
        done;
        release held
    | Some (Crash_holding { cycle }) ->
        for _ = 1 to cycle do
          let held = acquire () in
          Domain.cpu_relax ();
          release held;
          Agg.cycle_done agg i
        done;
        (* die holding: the domain exits without releasing — the name
           and its register footprint leak ([result.leaked]) *)
        ignore (acquire ());
        Agg.worker_done agg
    | fault ->
        for cy = 0 to cycles - 1 do
          let held = acquire () in
          (match fault with
          | Some (Stall_holding { cycle; spins }) when cy = cycle -> spin spins
          | Some (Slow n) -> spin n
          | _ -> ());
          (* hold the name briefly so overlaps actually occur *)
          Domain.cpu_relax ();
          release held;
          (match fault with Some (Slow n) -> spin n | _ -> ());
          Agg.cycle_done agg i
        done;
        Agg.worker_done agg
  in
  let domains = Array.mapi (fun i pid -> Domain.spawn (worker i pid)) pids in
  Array.iter Domain.join domains;
  (match flight with
  | None -> ()
  | Some ring -> Array.iter (fun r -> Obs.Flight.merge ~into:ring r) worker_rings);
  Agg.result agg
