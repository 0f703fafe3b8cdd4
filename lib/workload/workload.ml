type spec = { cycles : int; hold : int -> int; delay : int -> int }

let churn ?(hold = 1) ~cycles () = { cycles; hold = (fun _ -> hold); delay = (fun _ -> 0) }

let staggered ?(hold = 1) ~cycles ~stride ~index () =
  {
    cycles;
    hold = (fun _ -> hold);
    delay = (fun i -> if i = 0 then index * stride else 0);
  }

let bursty ~cycles ~seed =
  (* Hold/delay patterns must be a pure function of the cycle index so
     that model-checker re-executions replay identically; derive both
     from a stateless hash of (seed, i). *)
  let mix i salt =
    let h = ref (seed lxor (i * 0x9E3779B9) lxor salt) in
    h := !h lxor (!h lsr 16);
    h := !h * 0x45D9F3B land max_int;
    h := !h lxor (!h lsr 16);
    !h
  in
  { cycles; hold = (fun i -> mix i 1 mod 8); delay = (fun i -> mix i 2 mod 16) }

let slow_lane ?(lag = 6) ~cycles () =
  { cycles; hold = (fun _ -> lag); delay = (fun _ -> lag) }

let burst ~cycles ~burst_len ~pause =
  if burst_len < 1 then invalid_arg "Workload.burst: burst_len < 1";
  {
    cycles;
    hold = (fun _ -> 1);
    delay = (fun i -> if i > 0 && i mod burst_len = 0 then pause else 0);
  }

(* ----- server churn family (real-domain name-server load) ----- *)

type server_spec = {
  requests : int;
  source : int -> int;
  arrival : int -> float;
  think : int;
}

(* Stateless mix (splitmix-style, 62-bit-safe constants) so every
   derived stream is a pure function of (seed, index) and replays
   identically. *)
let mix64 seed i salt =
  let h = ref (seed lxor (i * 0x9E3779B97F4A7C1) lxor (salt * 0xBF58476D1CE4E5B)) in
  h := (!h lxor (!h lsr 30)) * 0xBF58476D1CE4E5B land max_int;
  h := (!h lxor (!h lsr 27)) * 0x94D049BB133111E land max_int;
  !h lxor (!h lsr 31)

(* Uniform in [0,1) from 52 mixed bits. *)
let uniform seed i salt =
  float_of_int (mix64 seed i salt land 0xF_FFFF_FFFF_FFFF) /. 4503599627370496.0

let zipf ?(theta = 0.99) ?(stream = 0) ~s ~seed () =
  if s < 1 then invalid_arg "Workload.zipf: s < 1";
  if theta <= 0. || theta >= 1. then invalid_arg "Workload.zipf: need 0 < theta < 1";
  (* Gray et al. / YCSB closed-form inverse of the Zipf CDF; zeta is
     the one O(s) precomputation, shared by every request. *)
  let zetan = ref 0. in
  for i = 1 to s do
    zetan := !zetan +. (1. /. Float.pow (float_of_int i) theta)
  done;
  let zetan = !zetan in
  let zeta2 = 1. +. Float.pow 0.5 theta in
  let alpha = 1. /. (1. -. theta) in
  let eta =
    if s = 1 then 0.
    else
      (1. -. Float.pow (2. /. float_of_int s) (1. -. theta))
      /. (1. -. (zeta2 /. zetan))
  in
  (* the draw stream is per caller; the rank -> name scramble below
     depends on [seed] alone, so every stream agrees on which names
     are hot and contends on them *)
  let sseed = mix64 seed stream 0x57E4 in
  fun i ->
    let u = uniform sseed i 0x51AF in
    let uz = u *. zetan in
    let rank =
      if uz < 1. then 0
      else if uz < zeta2 then 1
      else
        min (s - 1)
          (int_of_float (float_of_int s *. Float.pow ((eta *. u) -. eta +. 1.) alpha))
    in
    (* scramble the rank so the hot names are spread across the source
       space instead of clustering at 0..9 (every client still agrees:
       the scramble depends on the seed, not the client) *)
    if s = 1 then 0 else mix64 seed rank 0x2B5D mod s

let open_loop ~rate ~seed =
  if rate <= 0. then fun _ -> 0.
  else begin
    (* arrival(i) = sum of i exponential inter-arrival draws; memoised
       so the cost is O(1) per request asked in order.  The memo is
       client-local state — give every client its own generator. *)
    let cache = ref [| 0.0 |] in
    let filled = ref 1 in
    fun i ->
      if i < 0 then invalid_arg "Workload.open_loop: negative index";
      if i >= Array.length !cache then begin
        let grown = Array.make (max (i + 1) (2 * Array.length !cache)) 0.0 in
        Array.blit !cache 0 grown 0 !filled;
        cache := grown
      end;
      while !filled <= i do
        let k = !filled in
        let u = uniform seed k 0x7E11 in
        (* 1 - u avoids log 0 *)
        !cache.(k) <- !cache.(k - 1) -. (log (1. -. u) /. rate);
        incr filled
      done;
      !cache.(i)
  end

let server_churn ?(theta = 0.99) ?(rate = 0.) ?(think = 0) ~s ~requests ~seed ~client ()
    =
  let cseed = mix64 seed client 0xC11E in
  {
    requests;
    source = zipf ~theta ~stream:client ~s ~seed ();
    arrival = open_loop ~rate ~seed:cseed;
    think;
  }

let pin ~sources spec =
  let n = Array.length sources in
  if n = 0 then invalid_arg "Workload.pin: empty source table";
  { spec with source = (fun i -> sources.(spec.source i mod n)) }

let idle (ops : Shared_mem.Store.ops) ~work n =
  for _ = 1 to n do
    ignore (ops.read work)
  done

let run_cycle (type a l)
    (module P : Renaming.Protocol.S with type t = a and type lease = l) (inst : a) ~work spec
    i (ops : Shared_mem.Store.ops) =
  Sim.Sched.emit (Sim.Event.Note ("cycle", i));
  idle ops ~work (spec.delay i);
  let lease = P.get_name inst ops in
  Sim.Sched.emit (Sim.Event.Acquired (P.name_of inst lease));
  idle ops ~work (spec.hold i);
  Sim.Sched.emit (Sim.Event.Released (P.name_of inst lease));
  P.release_name inst ops lease

let body (type a) (module P : Renaming.Protocol.S with type t = a) (inst : a) ~work spec ops =
  for i = 0 to spec.cycles - 1 do
    run_cycle (module P) inst ~work spec i ops
  done

let rotating_body (type a) (module P : Renaming.Protocol.S with type t = a) (inst : a) ~work
    ~pids spec (ops : Shared_mem.Store.ops) =
  let n = Array.length pids in
  if n = 0 then invalid_arg "Workload.rotating_body: no pids";
  for i = 0 to spec.cycles - 1 do
    run_cycle (module P) inst ~work spec i { ops with pid = pids.(i mod n) }
  done
