open Shared_mem

type t = {
  k : int;
  levels : Cell.t array array; (* bounded levels, caps 2, 4, 8, … < 2k *)
  backstop : Cell.t array; (* k cells; success guaranteed *)
  bases : int array; (* first name of each level; last entry = backstop *)
  total : int;
}

type lease = { name : int; level : int; slot : int; lease_accesses : int }

let create layout ~k =
  if k < 1 then invalid_arg "Level_array.create: k must be >= 1";
  let rec caps acc c = if c < 2 * k then caps (c :: acc) (2 * c) else List.rev acc in
  let caps = Array.of_list (caps [] 2) in
  let levels =
    Array.mapi
      (fun i c -> Layout.alloc_array layout ~name:(Printf.sprintf "LVL[%d]" i) c 0)
      caps
  in
  let bases = Array.make (Array.length caps + 1) 0 in
  Array.iteri (fun i c -> bases.(i + 1) <- bases.(i) + c) caps;
  {
    k;
    levels;
    backstop = Layout.alloc_array layout ~name:"LVLB" k 0;
    bases;
    total = bases.(Array.length caps) + k;
  }

let k t = t.k
let name_space t = t.total
let levels t = Array.length t.levels + 1
let test_and_set (ops : Store.ops) c = Store.rmw ops c (fun _ -> 1) = 0

(* Lowest-slot-first probing with a per-level failure budget of half the
   level's capacity.  Every failure — a set bit skipped, or a lost
   test&set race — is chargeable to a distinct concurrent process, so
   with live contention m a process wins at the first level whose
   budget exceeds 2m: both the name value and the access count are
   functions of m alone, independent of the build capacity [k] (the
   adaptivity the LevelArray paper targets).  The final level has [k]
   cells and is retried without bound; at most [k - 1] other processes
   ever hold a cell there, so a free cell always exists and the retry
   terminates once the interferers settle (same argument as
   [Tas_baseline]). *)
let get_name t (ops : Store.ops) =
  let accesses = ref 0 in
  let rec level i =
    if i >= Array.length t.levels then backstop 0
    else begin
      let arr = t.levels.(i) in
      let cap = Array.length arr in
      let rec slot s budget =
        if s >= cap || budget = 0 then level (i + 1)
        else begin
          incr accesses;
          if Store.read ops arr.(s) <> 0 then slot (s + 1) (budget - 1)
          else begin
            incr accesses;
            if test_and_set ops arr.(s) then
              { name = t.bases.(i) + s; level = i; slot = s; lease_accesses = !accesses }
            else slot (s + 1) (budget - 1)
          end
        end
      in
      slot 0 (cap / 2)
    end
  and backstop j =
    let s = j mod t.k in
    incr accesses;
    if Store.read ops t.backstop.(s) <> 0 then backstop (j + 1)
    else begin
      incr accesses;
      if test_and_set ops t.backstop.(s) then
        {
          name = t.bases.(Array.length t.levels) + s;
          level = Array.length t.levels;
          slot = s;
          lease_accesses = !accesses;
        }
      else backstop (j + 1)
    end
  in
  level 0

let name_of _ lease = lease.name

let cell_of t lease =
  if lease.level < Array.length t.levels then t.levels.(lease.level).(lease.slot)
  else t.backstop.(lease.slot)

let release_name t (ops : Store.ops) lease = Store.write ops (cell_of t lease) 0

(* The whole footprint of a holder is its one set bit. *)
let reset_footprint = Some release_name
let accesses lease = lease.lease_accesses
let level_of lease = lease.level
