open Shared_mem

(* ADVICE registers hold -1, 1 or "bottom", encoded as 0. *)
let bottom = 0

type t = {
  last : Cell.t;
  advice1 : Cell.t;
  advice2 : Cell.t;
  loc : Obs.Loc.t;
  (* the probe events, built once so a traced entry allocates nothing;
     [exit_ev.(d + 1)] reports direction [d] *)
  enter_ev : Obs.Probe.event;
  exit_ev : Obs.Probe.event array;
  release_ev : Obs.Probe.event;
}

(* One immediate int: bits 0-1 hold direction+1, bit 2 is set when the
   advice read on entry was -1, bit 3 is [adv2].  The advice is never
   bottom: ADVICE2 starts at 1 and is only ever written with the
   negation of a non-bottom value, so line 3 always reads one. *)
type token = int

let create ?(loc = Obs.Loc.Splitter { stage = 0; node = 0 }) layout =
  {
    last = Layout.alloc layout ~name:"LAST" (-1);
    advice1 = Layout.alloc layout ~name:"ADVICE1" 1;
    advice2 = Layout.alloc layout ~name:"ADVICE2" 1;
    loc;
    enter_ev = Obs.Probe.Enter loc;
    exit_ev = Array.init 3 (fun i -> Obs.Probe.Exit (loc, i - 1));
    release_ev = Obs.Probe.Release loc;
  }

let loc t = t.loc

let enter t (ops : Store.ops) =
  if not (Obs.Probe.is_null ops.probe) then ops.probe t.enter_ev;
  Store.write ops t.last ops.pid;
  (* 1 *)
  let a = Store.read ops t.advice1 in
  (* 2 *)
  let a = if a = bottom then Store.read ops t.advice2 else a in
  (* 3 *)
  Store.write ops t.advice1 (-a);
  (* 4 *)
  let adv2 = Store.read ops t.last = ops.pid in
  (* 5 *)
  if adv2 then Store.write ops t.advice2 (-a);
  (* 6 *)
  let direction = if Store.read ops t.last = ops.pid then a else 0 in
  (* 7 *)
  if not (Obs.Probe.is_null ops.probe) then ops.probe t.exit_ev.(direction + 1);
  (direction + 1) lor (if a < 0 then 4 else 0) lor if adv2 then 8 else 0

let direction tok = (tok land 3) - 1
let advice tok = if tok land 4 <> 0 then -1 else 1
let adv2 tok = tok land 8 <> 0

let release t (ops : Store.ops) tok =
  if Store.read ops t.last = ops.pid then (* 9 *)
    Store.write ops t.advice1 (advice tok) (* 10 *);
  if not (adv2 tok) then Store.write ops t.advice1 bottom (* 11 *);
  if not (Obs.Probe.is_null ops.probe) then ops.probe t.release_ev

let reset t (ops : Store.ops) tok =
  (* Release on the corpse's behalf ([ops.pid] is the dead process's
     source name), additionally clearing a [LAST] claim it still owns —
     leaving a dead pid in [LAST] is safe for entrants (they overwrite
     it) but would keep pointing the interference check at a process
     that can never answer. *)
  if Store.read ops t.last = ops.pid then begin
    Store.write ops t.advice1 (advice tok);
    Store.write ops t.last (-1)
  end;
  if not (adv2 tok) then Store.write ops t.advice1 bottom;
  if not (Obs.Probe.is_null ops.probe) then ops.probe t.release_ev
