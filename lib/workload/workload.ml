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
    ignore (Shared_mem.Store.read ops work)
  done

type costs = { mutable get : int list; mutable release : int list }

let costs () = { get = []; release = [] }

(* One acquire/hold/release cycle.  [Released] is emitted before
   release_name: per the paper, "Inside" ends when the Release
   operation starts.  With [costs], the protocol's own calls run
   through a counter; the [work] reads stay uncounted. *)
let cycle (type a l) ?(markers = false) ?costs ?(on_get = ignore)
    (module P : Renaming.Protocol.S with type t = a and type lease = l) (inst : a) ~work
    ~hold (ops : Shared_mem.Store.ops) =
  let pops, tally =
    match costs with
    | None -> (ops, fun () -> 0)
    | Some _ ->
        let c = Shared_mem.Store.counter () in
        ( Shared_mem.Store.counting c ops,
          fun () ->
            let n = Shared_mem.Store.accesses c in
            Shared_mem.Store.reset c;
            n )
  in
  if markers then Sim.Observe.op_begin "get";
  let lease = P.get_name inst pops in
  Option.iter (fun k -> k.get <- tally () :: k.get) costs;
  on_get lease;
  Sim.Sched.emit (Sim.Event.Acquired (P.name_of inst lease));
  idle ops ~work hold;
  Sim.Sched.emit (Sim.Event.Released (P.name_of inst lease));
  if markers then Sim.Observe.op_begin "release";
  P.release_name inst pops lease;
  Option.iter (fun k -> k.release <- tally () :: k.release) costs

let run_cycle (type a l) ?on_get
    (module P : Renaming.Protocol.S with type t = a and type lease = l) (inst : a) ~work spec
    i ops =
  Sim.Sched.emit (Sim.Event.Note ("cycle", i));
  idle ops ~work (spec.delay i);
  cycle ?on_get (module P) inst ~work ~hold:(spec.hold i) ops

let body (type a l) ?on_get
    (module P : Renaming.Protocol.S with type t = a and type lease = l) (inst : a) ~work spec
    ops =
  for i = 0 to spec.cycles - 1 do
    run_cycle ?on_get (module P) inst ~work spec i ops
  done

let rotating_body (type a) (module P : Renaming.Protocol.S with type t = a) (inst : a) ~work
    ~pids spec (ops : Shared_mem.Store.ops) =
  let n = Array.length pids in
  if n = 0 then invalid_arg "Workload.rotating_body: no pids";
  for i = 0 to spec.cycles - 1 do
    run_cycle (module P) inst ~work spec i (Shared_mem.Store.with_pid ops pids.(i mod n))
  done

(* ----- checking harnesses ----- *)

let protocol_body (type a l) ?markers ?costs ?on_get
    (module P : Renaming.Protocol.S with type t = a and type lease = l) (inst : a) ~work
    ~cycles ops =
  for _ = 1 to cycles do
    cycle ?markers ?costs ?on_get (module P) inst ~work ~hold:1 ops
  done

(* Every configuration allocates its object first, then [work]: cell
   ids feed the model checker's state fingerprint, so the order is part
   of what a harness explores. *)
let config ?(monitors = []) layout procs monitor : Sim.Model_check.config =
  {
    layout;
    procs;
    monitor =
      (match monitors with [] -> monitor | ms -> Sim.Checks.combine (monitor :: ms));
  }

let protocol_config (type a) ?markers ?monitors
    (module P : Renaming.Protocol.S with type t = a) make ~pids ~cycles () =
  let layout = Shared_mem.Layout.create () in
  let inst : a = make layout in
  let work = Shared_mem.Layout.alloc layout ~name:"work" 0 in
  let u = Sim.Checks.uniqueness ~name_space:(P.name_space inst) () in
  config ?monitors layout
    (Array.map
       (fun pid -> (pid, protocol_body ?markers (module P) inst ~work ~cycles))
       pids)
    (Sim.Checks.uniqueness_monitor u)

module type SPLITTER = sig
  type t
  type token

  val enter : t -> Shared_mem.Store.ops -> token
  val direction : token -> int
  val release : t -> Shared_mem.Store.ops -> token -> unit
end

let splitter_body (type a) (module S : SPLITTER with type t = a) (sp : a) ~work ~cycles
    (ops : Shared_mem.Store.ops) =
  for _ = 1 to cycles do
    Sim.Sched.emit (Sim.Event.Note ("begin", 0));
    let tok = S.enter sp ops in
    let d = S.direction tok in
    Sim.Sched.emit (Sim.Event.Note ("in", d));
    idle ops ~work 1;
    Sim.Sched.emit (Sim.Event.Note ("out", d));
    S.release sp ops tok;
    Sim.Sched.emit (Sim.Event.Note ("end", 0))
  done

let splitter_config (type a) ?monitors (module S : SPLITTER with type t = a) make ~pids
    ~cycles () =
  let layout = Shared_mem.Layout.create () in
  let sp : a = make layout in
  let work = Shared_mem.Layout.alloc layout ~name:"work" 0 in
  let o = Sim.Checks.occupancy () in
  config ?monitors layout
    (Array.map (fun pid -> (pid, splitter_body (module S) sp ~work ~cycles)) pids)
    (Sim.Checks.occupancy_monitor o)

module type MUTEX = sig
  type t
  type slot

  val enter : t -> Shared_mem.Store.ops -> dir:int -> slot
  val check : t -> Shared_mem.Store.ops -> dir:int -> slot -> bool
  val release : t -> Shared_mem.Store.ops -> dir:int -> slot -> unit
end

let mutex_config (type a) ?retries ?monitors (module M : MUTEX with type t = a) make
    ~cycles () =
  let layout = Shared_mem.Layout.create () in
  let b : a = make layout in
  let work = Shared_mem.Layout.alloc layout ~name:"work" 0 in
  let body dir (ops : Shared_mem.Store.ops) =
    for _ = 1 to cycles do
      let slot = M.enter b ops ~dir in
      let rec go n =
        if M.check b ops ~dir slot then begin
          Sim.Sched.emit (Sim.Event.Note ("cs", dir));
          idle ops ~work 1;
          Sim.Sched.emit (Sim.Event.Note ("cs_exit", dir))
        end
        else if n > 0 then go (n - 1)
      in
      (* no bound: spin until the check succeeds *)
      go (Option.value retries ~default:max_int);
      M.release b ops ~dir slot
    done
  in
  config ?monitors layout [| (0, body 0); (1, body 1) |] (Sim.Checks.exclusion ())
