(* Input generation, independent of the library's [Workload] so that a
   change there cannot change what the benchmark feeds the server.

   SplitMix64 (Steele, Lea, Flood 2014) on Int64: the same seed gives
   the same stream on every platform and OCaml release. *)

type t = { mutable s : int64 }

let make seed = { s = Int64.of_int seed }

(* One independent stream per (seed, client). *)
let stream ~seed ~id = make ((seed * 0x3C6EF372) + (id * 0x2545F491) + 1)

let next g =
  g.s <- Int64.add g.s 0x9E3779B97F4A7C15L;
  let z = g.s in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Uniform in [0, 1) from the top 53 bits. *)
let float g = Int64.to_float (Int64.shift_right_logical (next g) 11) *. 0x1p-53

(* Uniform in [0, n). *)
let int g n = int_of_float (float g *. float_of_int n)

(* YCSB's Zipfian generator (Gray et al., "Quickly generating
   billion-record synthetic databases", SIGMOD 1994): rank 0 is the
   most popular, P(rank i) proportional to 1 / (i+1)^theta. *)
type zipf = { n : int; zetan : float; alpha : float; eta : float; two : float }

let zeta n theta =
  let s = ref 0. in
  for i = 1 to n do
    s := !s +. (1. /. (float_of_int i ** theta))
  done;
  !s

let zipf ~n ~theta =
  if n < 2 || theta <= 0. || theta >= 1. then invalid_arg "Gen.zipf";
  let zetan = zeta n theta in
  {
    n;
    zetan;
    alpha = 1. /. (1. -. theta);
    eta = (1. -. ((2. /. float_of_int n) ** (1. -. theta))) /. (1. -. (zeta 2 theta /. zetan));
    two = 1. +. (0.5 ** theta);
  }

(* Probability of rank 0, the expected skew. *)
let zipf_p0 z = 1. /. z.zetan

let zipf_draw z g =
  let u = float g in
  let uz = u *. z.zetan in
  if uz < 1. then 0
  else if uz < z.two then 1
  else min (z.n - 1) (int_of_float (float_of_int z.n *. (((z.eta *. u) -. z.eta +. 1.) ** z.alpha)))
