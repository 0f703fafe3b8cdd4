module Pad = Shared_mem.Pad

type t = {
  name_space : int;
  holders : Pad.t;
  name_max : Pad.t;
  violations : int Atomic.t;
  first_violation : string option Atomic.t;
  cycles_done : Pad.t;
  normal_done : int Atomic.t;
  normal_total : int;
}

type result = {
  cycles_done : int array;
  violations : int;
  max_concurrent_by_name : (int * int) list;
  first_violation : string option;
  leaked : int;
  reclaimed : int;
}

let create ~name_space ~workers ~parked =
  let normal_total = workers - parked in
  if workers > 0 && normal_total = 0 then
    invalid_arg "Agg.create: every worker parks, nothing can make progress";
  {
    name_space;
    holders = Pad.create name_space 0;
    name_max = Pad.create name_space 0;
    violations = Atomic.make 0;
    first_violation = Atomic.make None;
    cycles_done = Pad.create workers 0;
    normal_done = Atomic.make 0;
    normal_total;
  }

let rec bump_max a c =
  let m = Atomic.get a in
  if c > m && not (Atomic.compare_and_set a m c) then bump_max a c

let note_violation (t : t) msg =
  Atomic.incr t.violations;
  let cur = Atomic.get t.first_violation in
  if cur = None then ignore (Atomic.compare_and_set t.first_violation cur (Some msg))

let acquired (t : t) ~worker ~name =
  if name < 0 || name >= t.name_space then
    note_violation t
      (Printf.sprintf "worker %d acquired name %d outside [0,%d)" worker name
         t.name_space)
  else begin
    let held = 1 + Atomic.fetch_and_add (Pad.cells t.holders).(name) 1 in
    bump_max (Pad.cells t.name_max).(name) held;
    if held > 1 then
      note_violation t (Printf.sprintf "name %d held by %d workers at once" name held)
  end

let released (t : t) ~name =
  if name >= 0 && name < t.name_space then
    ignore (Atomic.fetch_and_add (Pad.cells t.holders).(name) (-1))

let cycle_done (t : t) i = Atomic.incr (Pad.cells t.cycles_done).(i)
let worker_done (t : t) = Atomic.incr t.normal_done
let all_normal_done (t : t) = Atomic.get t.normal_done >= t.normal_total

let result ?(reclaimed = 0) (t : t) =
  let max_concurrent_by_name =
    List.init (Pad.length t.name_max) (fun n -> (n, Pad.get t.name_max n))
    |> List.filter (fun (_, m) -> m > 0)
  in
  let leaked = ref 0 in
  for n = 0 to Pad.length t.holders - 1 do
    leaked := !leaked + Pad.get t.holders n
  done;
  {
    cycles_done = Array.init (Pad.length t.cycles_done) (Pad.get t.cycles_done);
    violations = Atomic.get t.violations;
    max_concurrent_by_name;
    first_violation = Atomic.get t.first_violation;
    leaked = !leaked;
    reclaimed;
  }
