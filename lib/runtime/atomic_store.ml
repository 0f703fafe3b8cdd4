open Shared_mem

type t = int Atomic.t array

(* Each register is a padded cell: registers of different shards'
   stores land in the same pool of the major heap, where 2-word
   [Atomic] blocks would share a line four to one. *)
let create layout =
  Array.map (fun v -> Pad.copy_as_padded (Atomic.make v)) (Layout.initial_values layout)

let rec cas_loop cell f =
  let old = Atomic.get cell in
  if Atomic.compare_and_set cell old (f old) then old else cas_loop cell f

(* Counting happens in the closure that touches the register. *)
let ops ?tally t ~pid : Store.ops =
  match tally with
  | None ->
      {
        pid;
        read = (fun c -> Atomic.get t.(Cell.id c));
        write = (fun c v -> Atomic.set t.(Cell.id c) v);
        rmw = (fun c f -> cas_loop t.(Cell.id c) f);
        probe = Obs.Probe.null;
      }
  | Some y ->
      {
        pid;
        read =
          (fun c ->
            let id = Cell.id c in
            Store.tally_count y c id 0;
            Atomic.get t.(id));
        write =
          (fun c v ->
            let id = Cell.id c in
            Store.tally_count y c id 1;
            Atomic.set t.(id) v);
        rmw =
          (fun c f ->
            let id = Cell.id c in
            Store.tally_count y c id 2;
            cas_loop t.(id) f);
        probe = Obs.Probe.null;
      }

let get t c = Atomic.get t.(Cell.id c)
