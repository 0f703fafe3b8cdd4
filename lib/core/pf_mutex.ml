open Shared_mem

(* One register per direction holding (present, turn) as 2 bits:
   bit 0 = turn contribution, bit 1 = presence.  The combined turn is
   [t0 lxor t1]; an entering process from direction [dir] writes its
   bit so that the combined turn becomes [dir] — i.e. it defers — and
   direction [dir] is in the critical section iff the opponent is
   absent or the combined turn differs from [dir] (for dir 0: the bits
   differ; for dir 1: they are equal — the paper's predicates).

   Crucially the turn bit survives release (only the presence bit
   drops) and the presence bit is raised before the opponent is read.
   Both points are load-bearing: clearing the turn on release, or
   writing a guessed turn while raising presence, admit interleavings
   (found by the model checker) where both directions pass [check]. *)

let turn_bit v = v land 1
let is_present v = v land 2 <> 0
let present t = 2 lor t
let absent t = t

type t = {
  r : Cell.t array; (* r.(0), r.(1): one register per direction *)
  loc : Obs.Loc.t;
}
type slot = int (* own turn bit *)

let dummy = 0

let default_loc = Obs.Loc.Mutex { stage = 0; tree = 0; level = 0; node = 0 }

let create ?(loc = default_loc) layout =
  { r = Layout.alloc_array layout ~name:"R" 2 (absent 0); loc }

let loc t = t.loc

let enter t (ops : Store.ops) ~dir =
  if not (Obs.Probe.is_null ops.probe) then ops.probe (Obs.Probe.Enter t.loc);
  (* Recover the persisted turn bit (a previous process may have used
     this direction), raise presence without disturbing it, then point
     the combined turn at ourselves — yielding to any opponent. *)
  let t_own = turn_bit (Store.read ops t.r.(dir)) in
  Store.write ops t.r.(dir) (present t_own);
  let opp = Store.read ops t.r.(1 - dir) in
  let t_new = dir lxor turn_bit opp in
  Store.write ops t.r.(dir) (present t_new);
  t_new

let check t (ops : Store.ops) ~dir own =
  let opp = Store.read ops t.r.(1 - dir) in
  let ok = (not (is_present opp)) || own lxor turn_bit opp <> dir in
  if not (Obs.Probe.is_null ops.probe) then ops.probe (Obs.Probe.Check (t.loc, ok));
  ok

let release t (ops : Store.ops) ~dir own =
  Store.write ops t.r.(dir) (absent own);
  if not (Obs.Probe.is_null ops.probe) then ops.probe (Obs.Probe.Release t.loc)

let reset t (ops : Store.ops) ~dir =
  (* Crash recovery: drop the direction's presence bit without the
     corpse's slot.  The current turn bit is recovered by reading the
     register — it must survive the reset exactly as it survives an
     ordinary release (clearing it re-admits the Turn_lost_on_release
     interleavings). *)
  let v = Store.read ops t.r.(dir) in
  Store.write ops t.r.(dir) (absent (turn_bit v));
  if not (Obs.Probe.is_null ops.probe) then ops.probe (Obs.Probe.Release t.loc)
