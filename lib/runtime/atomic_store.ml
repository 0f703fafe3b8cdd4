open Shared_mem

type t = { regs : int Atomic.t array; cells : Cell.t array }

(* Each register is a padded cell: registers of different shards'
   stores land in the same pool of the major heap, where 2-word
   [Atomic] blocks would share a line four to one. *)
let create layout =
  {
    regs = Array.map (fun v -> Pad.copy_as_padded (Atomic.make v)) (Layout.initial_values layout);
    cells = Array.of_list (Layout.cells layout);
  }

let ops ?tally t ~pid = Store.atomic ?tally ~cells:t.cells t.regs ~pid
let get t c = Atomic.get t.regs.(Cell.id c)
