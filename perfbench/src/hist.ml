(* Log-linear latency histogram: exact below 256 ns, then 128
   sub-buckets per power of two (under 0.8% relative error).  Recording
   is one index computation and one store, with no allocation, so it
   can sit in the timed loop.  Counts live outside the OCaml heap, so
   the benchmark's own histograms do not show in [heap_top_words]. *)

let sub_bits = 7
let sub = 1 lsl sub_bits
let size = (64 - sub_bits) * sub

type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let create () : t =
  let h = Bigarray.Array1.create Bigarray.int Bigarray.c_layout size in
  Bigarray.Array1.fill h 0;
  h

(* Index of the highest set bit of [v > 0]. *)
let msb v =
  let n = ref 0 and v = ref v in
  if !v lsr 32 <> 0 then (v := !v lsr 32; n := !n + 32);
  if !v lsr 16 <> 0 then (v := !v lsr 16; n := !n + 16);
  if !v lsr 8 <> 0 then (v := !v lsr 8; n := !n + 8);
  if !v lsr 4 <> 0 then (v := !v lsr 4; n := !n + 4);
  if !v lsr 2 <> 0 then (v := !v lsr 2; n := !n + 2);
  if !v lsr 1 <> 0 then n := !n + 1;
  !n

let index v =
  if v < 2 * sub then if v < 0 then 0 else v
  else
    let e = msb v - sub_bits in
    (e * sub) + (v lsr e)

(* The smallest value that lands in bucket [i]. *)
let lower i =
  if i < 2 * sub then i
  else
    let e = (i / sub) - 1 in
    (i - (e * sub)) lsl e

let record (h : t) v =
  let i = index v in
  Bigarray.Array1.unsafe_set h i (Bigarray.Array1.unsafe_get h i + 1)

let count (h : t) =
  let n = ref 0 in
  for i = 0 to size - 1 do
    n := !n + h.{i}
  done;
  !n

let merge_into ~(into : t) (h : t) =
  for i = 0 to size - 1 do
    into.{i} <- into.{i} + h.{i}
  done

(* Nearest-rank percentile: the [ceil(q n)]-th smallest sample, reported
   as the lower edge of its bucket.  [0] on an empty histogram. *)
let percentile (h : t) q =
  let n = count h in
  if n = 0 then 0
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
    let acc = ref 0 and i = ref 0 in
    while !acc + h.{!i} < rank do
      acc := !acc + h.{!i};
      incr i
    done;
    lower !i
  end
