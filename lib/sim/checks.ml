let violation fmt = Printf.ksprintf (fun s -> raise (Model_check.Violation s)) fmt

let combine monitors =
  Sched.monitor
    ~on_event:(fun t i ev -> List.iter (fun (m : Sched.monitor) -> m.on_event t i ev) monitors)
    ~on_access:(fun t i a -> List.iter (fun (m : Sched.monitor) -> m.on_access t i a) monitors)
    ~on_step:(fun t i -> List.iter (fun (m : Sched.monitor) -> m.on_step t i) monitors)
    ()

type uniqueness = {
  name_space : int option;
  holders : (int, int) Hashtbl.t; (* name -> proc index *)
  distinct : (int, unit) Hashtbl.t;
  mutable max_name : int;
  mutable max_concurrent : int;
}

let uniqueness ?name_space () =
  {
    name_space;
    holders = Hashtbl.create 32;
    distinct = Hashtbl.create 32;
    max_name = -1;
    max_concurrent = 0;
  }

let uniqueness_monitor u =
  Sched.monitor
    ~on_event:(fun _ i ev ->
      match ev with
      | Event.Acquired n -> (
          (match u.name_space with
          | Some d when n < 0 || n >= d -> violation "process #%d acquired name %d outside [0,%d)" i n d
          | Some _ | None -> ());
          match Hashtbl.find_opt u.holders n with
          | Some j -> violation "name %d held concurrently by processes #%d and #%d" n j i
          | None ->
              Hashtbl.add u.holders n i;
              Hashtbl.replace u.distinct n ();
              if n > u.max_name then u.max_name <- n;
              let held = Hashtbl.length u.holders in
              if held > u.max_concurrent then u.max_concurrent <- held)
      | Event.Released n -> (
          match Hashtbl.find_opt u.holders n with
          | Some j when j = i -> Hashtbl.remove u.holders n
          | Some j -> violation "process #%d released name %d held by #%d" i n j
          | None -> violation "process #%d released name %d it does not hold" i n)
      | Event.Note ("reclaimed", n) ->
          (* crash recovery: a reclaimer took name [n] back from a dead
             holder — ownership transfers, so the
             emitter need not be the holder, and an unheld name is fine
             (holder may have died before Acquired was emitted) *)
          Hashtbl.remove u.holders n
      | Event.Note _ -> ())
    ()

let names_used u = Hashtbl.length u.distinct
let max_name u = u.max_name
let max_concurrent u = u.max_concurrent

let held_now u = List.sort compare (Hashtbl.fold (fun n i acc -> (n, i) :: acc) u.holders [])

type gauge = {
  enter : string;
  leave : string;
  current : (int, int) Hashtbl.t;
  max : (int, int) Hashtbl.t;
}

let gauge ~enter ~leave = { enter; leave; current = Hashtbl.create 8; max = Hashtbl.create 8 }

let gauge_monitor g =
  Sched.monitor
    ~on_event:(fun _ _ ev ->
      match ev with
      | Event.Note (tag, key) when String.equal tag g.enter ->
          let c = (Option.value ~default:0 (Hashtbl.find_opt g.current key)) + 1 in
          Hashtbl.replace g.current key c;
          let m = Option.value ~default:0 (Hashtbl.find_opt g.max key) in
          if c > m then Hashtbl.replace g.max key c
      | Event.Note (tag, key) when String.equal tag g.leave ->
          let c = (Option.value ~default:0 (Hashtbl.find_opt g.current key)) - 1 in
          if c < 0 then violation "gauge %s/%s under-run on key %d" g.enter g.leave key;
          Hashtbl.replace g.current key c
      | Event.Note _ | Event.Acquired _ | Event.Released _ -> ())
    ()

let gauge_max g key = Option.value ~default:0 (Hashtbl.find_opt g.max key)
let gauge_current g key = Option.value ~default:0 (Hashtbl.find_opt g.current key)
let gauge_keys g = Hashtbl.fold (fun k _ acc -> k :: acc) g.max []

type occupancy = {
  mutable using : int;
  mutable using_max : int;
  in_set : (int, int) Hashtbl.t;
  occ_set_max : (int, int) Hashtbl.t;
}

let occupancy () =
  { using = 0; using_max = 0; in_set = Hashtbl.create 8; occ_set_max = Hashtbl.create 8 }

let occupancy_users_max o = o.using_max
let occupancy_set_max o d = Option.value ~default:0 (Hashtbl.find_opt o.occ_set_max d)

let occupancy_monitor o =
  let bump_set d delta =
    let c = Option.value ~default:0 (Hashtbl.find_opt o.in_set d) + delta in
    if c < 0 then violation "occupancy under-run on set %d" d;
    Hashtbl.replace o.in_set d c;
    if c > occupancy_set_max o d then Hashtbl.replace o.occ_set_max d c;
    if c >= 2 && c > o.using_max - 1 then
      violation "output set %d holds %d processes with only %d concurrent users" d c o.using_max
  in
  Sched.monitor
    ~on_event:(fun _ _ ev ->
      match ev with
      | Event.Note ("begin", _) ->
          o.using <- o.using + 1;
          if o.using > o.using_max then o.using_max <- o.using
      | Event.Note ("end", _) -> o.using <- o.using - 1
      | Event.Note ("in", d) -> bump_set d 1
      | Event.Note ("out", d) -> bump_set d (-1)
      | Event.Note _ | Event.Acquired _ | Event.Released _ -> ())
    ()

let exclusion () =
  let inside = ref 0 in
  Sched.monitor
    ~on_event:(fun _ _ ev ->
      match ev with
      | Event.Note ("cs", _) ->
          incr inside;
          if !inside > 1 then violation "two processes in the critical section"
      | Event.Note ("cs_exit", _) -> decr inside
      | Event.Note _ | Event.Acquired _ | Event.Released _ -> ())
    ()

let revalidate_intervals items =
  let holders = Hashtbl.create 16 in
  let acquisitions = ref 0 in
  let rec go = function
    | [] -> Ok !acquisitions
    | Trace.Access _ :: rest -> go rest
    | Trace.Emitted { proc; event; _ } :: rest -> (
        match event with
        | Event.Acquired n -> (
            match Hashtbl.find_opt holders n with
            | Some other ->
                Error
                  (Printf.sprintf "trace revalidation: name %d acquired by #%d while #%d holds it"
                     n proc other)
            | None ->
                Hashtbl.add holders n proc;
                incr acquisitions;
                go rest)
        | Event.Released n -> (
            match Hashtbl.find_opt holders n with
            | Some p when p = proc ->
                Hashtbl.remove holders n;
                go rest
            | Some p ->
                Error
                  (Printf.sprintf "trace revalidation: #%d released name %d held by #%d" proc n p)
            | None ->
                Error (Printf.sprintf "trace revalidation: #%d released unheld name %d" proc n))
        | Event.Note ("reclaimed", n) ->
            (* same ownership-transfer semantics as the online monitor *)
            Hashtbl.remove holders n;
            go rest
        | Event.Note _ -> go rest)
  in
  go items
