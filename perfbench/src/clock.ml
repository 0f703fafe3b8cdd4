(* clock_gettime(CLOCK_MONOTONIC) through bechamel's noalloc stub:
   an unboxed int64, so a read allocates nothing. *)
let now () = Int64.to_int (Monotonic_clock.now ())
let source = "clock_gettime(CLOCK_MONOTONIC) via bechamel.monotonic_clock"

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Cost of one read: the median over [reps] loops of [n] back-to-back
   reads. *)
let read_cost_ns ?(reps = 5) ?(n = 50_000) () =
  median
    (Array.init reps (fun _ ->
         let t0 = now () in
         let acc = ref 0 in
         for _ = 1 to n do
           acc := !acc lxor now ()
         done;
         let t1 = now () in
         ignore (Sys.opaque_identity !acc);
         float_of_int (t1 - t0) /. float_of_int n))

(* Smallest nonzero step between two consecutive reads. *)
let resolution_ns () =
  let best = ref max_int in
  for _ = 1 to 10_000 do
    let a = now () in
    let b = ref (now ()) in
    while !b = a do
      b := now ()
    done;
    if !b - a < !best then best := !b - a
  done;
  !best
