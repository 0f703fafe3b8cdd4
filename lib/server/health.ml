type state = Live | Wedged

type t = {
  drain_stale : int;
  gen : int array;  (* per slot: the last scan's pending lease, or -1 *)
  age : int array;  (* per slot: scans since [gen] was first seen *)
  mutable state : state;
}

let create ~drain_stale ~slots =
  if drain_stale < 1 then invalid_arg "Health.create: drain_stale < 1";
  if slots < 1 then invalid_arg "Health.create: slots < 1";
  { drain_stale; gen = Array.make slots (-1); age = Array.make slots 0; state = Live }

let state t = t.state

let to_string = function Live -> "live" | Wedged -> "wedged"

(* A loop, not [Array.iteri]: a closure would allocate on every scan. *)
let observe t snap =
  let wedged = ref false in
  for i = 0 to Array.length snap - 1 do
    let g = snap.(i) in
    if g >= 0 && g = t.gen.(i) then begin
      t.age.(i) <- t.age.(i) + 1;
      if t.age.(i) >= t.drain_stale then wedged := true
    end
    else t.age.(i) <- 0;
    t.gen.(i) <- g
  done;
  if !wedged then Array.fill t.age 0 (Array.length t.age) 0;
  t.state <- (if !wedged then Wedged else Live);
  t.state
