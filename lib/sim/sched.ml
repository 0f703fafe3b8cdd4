open Shared_mem

type _ Effect.t +=
  | Sread : Cell.t -> int Effect.t
  | Swrite : (Cell.t * int) -> unit Effect.t
  | Srmw : (Cell.t * (int -> int)) -> int Effect.t
  | Semit : Event.t -> unit Effect.t

type access =
  | Read of Cell.t * int
  | Write of Cell.t * int
  | Update of Cell.t * int * int  (** read-modify-write: old, new *)

type access_kind = ARead | AWrite | ARmw
type access_sig = { proc : int; cell : int; kind : access_kind }

exception Aborted

type t = {
  mem : int array;
  pids : int array;
  state : pending array;
  paused : bool array;
  steps : int array;
  mutable total : int;
  mutable last : int;  (* last stepped index, for round-robin *)
  monitor : monitor;
}

and pending =
  | Pread of Cell.t * (int, unit) Effect.Deep.continuation
  | Pwrite of Cell.t * int * (unit, unit) Effect.Deep.continuation
  | Prmw of Cell.t * (int -> int) * (int, unit) Effect.Deep.continuation
  | Pdone

and monitor = {
  on_event : t -> int -> Event.t -> unit;
  on_access : t -> int -> access -> unit;
  on_step : t -> int -> unit;
}

let no_monitor =
  {
    on_event = (fun _ _ _ -> ());
    on_access = (fun _ _ _ -> ());
    on_step = (fun _ _ -> ());
  }

let monitor ?on_event ?on_access ?on_step () =
  let pick3 default = function Some f -> f | None -> default in
  {
    on_event = pick3 no_monitor.on_event on_event;
    on_access = pick3 no_monitor.on_access on_access;
    on_step = pick3 no_monitor.on_step on_step;
  }

(* probes perform no effect, so they are invisible to schedules and
   partial-order reduction; Flight_rec installs a recorder *)
let ops_for t i =
  Store.make ~pid:t.pids.(i)
    ~read:(fun c -> Effect.perform (Sread c))
    ~write:(fun c v -> Effect.perform (Swrite (c, v)))
    ~rmw:(fun c f -> Effect.perform (Srmw (c, f)))
    ()

let emit ev = Effect.perform (Semit ev)

(* Run [body] under the effect handler for process index [i]: the body
   executes until its first shared access (recorded in [t.state]) or
   until it returns.  [Effect.Deep.continue] on a stored continuation
   re-enters this handler, so every subsequent suspension lands back in
   [t.state.(i)] as well. *)
let spawn t i body =
  let open Effect.Deep in
  match_with body (ops_for t i)
    {
      retc = (fun () -> t.state.(i) <- Pdone);
      exnc =
        (fun e ->
          (* The fiber is gone (the exception unwound it); mark the
             process finished so [abort] does not try to resume a
             one-shot continuation that was already consumed. *)
          t.state.(i) <- Pdone;
          raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Sread c ->
              Some
                (fun (k : (a, unit) continuation) -> t.state.(i) <- Pread (c, k))
          | Swrite (c, v) ->
              Some (fun (k : (a, unit) continuation) -> t.state.(i) <- Pwrite (c, v, k))
          | Srmw (c, f) ->
              Some (fun (k : (a, unit) continuation) -> t.state.(i) <- Prmw (c, f, k))
          | Semit ev ->
              Some
                (fun (k : (a, unit) continuation) ->
                  (* If the monitor raises (e.g. a checker violation),
                     unwind the emitting fiber through [discontinue] so
                     its cleanup handlers run and no suspended
                     continuation is abandoned; [exnc] re-raises. *)
                  match t.monitor.on_event t i ev with
                  | () -> continue k ()
                  | exception e -> discontinue k e)
          | _ -> None);
    }

let abort t =
  (* Unwind every suspended fiber so [Fun.protect]-style finalizers run
     instead of being dropped with the abandoned continuation.  A
     finalizer may perform further shared accesses, re-suspending the
     fiber, so loop with a budget; a fiber still suspended after that
     is abandoned (leaked) rather than looping forever. *)
  let budget = ref (64 * Array.length t.state) in
  let live () = Array.exists (function Pdone -> false | _ -> true) t.state in
  while !budget > 0 && live () do
    Array.iteri
      (fun i st ->
        let kill : type a. (a, unit) Effect.Deep.continuation -> unit =
         fun k ->
          decr budget;
          t.state.(i) <- Pdone;
          try Effect.Deep.discontinue k Aborted with _ -> ()
        in
        match st with
        | Pdone -> ()
        | Pread (_, k) -> kill k
        | Pwrite (_, _, k) -> kill k
        | Prmw (_, _, k) -> kill k)
      t.state
  done

let create ?(monitor = no_monitor) layout procs =
  let n = Array.length procs in
  let t =
    {
      mem = Layout.initial_values layout;
      pids = Array.map fst procs;
      state = Array.make n Pdone;
      paused = Array.make n false;
      steps = Array.make n 0;
      total = 0;
      last = n - 1;
      monitor;
    }
  in
  (* If a body (or a monitor hook fired from one) raises while running
     up to its first suspension, discontinue the already-spawned fibers
     before propagating, so their cleanup code runs. *)
  (try Array.iteri (fun i (_, body) -> spawn t i body) procs
   with e -> abort t; raise e);
  t

let n_procs t = Array.length t.state
let finished t i =
  match t.state.(i) with Pdone -> true | Pread _ | Pwrite _ | Prmw _ -> false
let pause t i = t.paused.(i) <- true
let resume t i = t.paused.(i) <- false
let pid_of t i = t.pids.(i)
let steps_of t i = t.steps.(i)
let total_steps t = t.total
let peek t c = t.mem.(Cell.id c)

let enabled t =
  let n = n_procs t in
  let buf = Array.make n 0 in
  let count = ref 0 in
  for i = 0 to n - 1 do
    if (not (finished t i)) && not t.paused.(i) then begin
      buf.(!count) <- i;
      incr count
    end
  done;
  Array.sub buf 0 !count

let pending_access t i =
  match t.state.(i) with
  | Pdone -> invalid_arg "Sched.pending_access: finished process"
  | Pread (c, _) -> { proc = i; cell = Cell.id c; kind = ARead }
  | Pwrite (c, _, _) -> { proc = i; cell = Cell.id c; kind = AWrite }
  | Prmw (c, _, _) -> { proc = i; cell = Cell.id c; kind = ARmw }

let step t i =
  if t.paused.(i) then invalid_arg "Sched.step: paused process";
  t.last <- i;
  match t.state.(i) with
  | Pdone -> invalid_arg "Sched.step: finished process"
  | Pread (c, k) ->
      let v = t.mem.(Cell.id c) in
      t.steps.(i) <- t.steps.(i) + 1;
      t.total <- t.total + 1;
      t.monitor.on_access t i (Read (c, v));
      Effect.Deep.continue k v;
      t.monitor.on_step t i
  | Pwrite (c, v, k) ->
      t.mem.(Cell.id c) <- v;
      t.steps.(i) <- t.steps.(i) + 1;
      t.total <- t.total + 1;
      t.monitor.on_access t i (Write (c, v));
      Effect.Deep.continue k ();
      t.monitor.on_step t i
  | Prmw (c, f, k) ->
      let old = t.mem.(Cell.id c) in
      t.mem.(Cell.id c) <- f old;
      t.steps.(i) <- t.steps.(i) + 1;
      t.total <- t.total + 1;
      t.monitor.on_access t i (Update (c, old, t.mem.(Cell.id c)));
      Effect.Deep.continue k old;
      t.monitor.on_step t i

type strategy = t -> int array -> int

let round_robin t en =
  (* First enabled index strictly after the last stepped one, cyclically. *)
  let n = Array.length en in
  let rec find j = if j >= n then en.(0) else if en.(j) > t.last then en.(j) else find (j + 1) in
  find 0

let random rng : strategy = fun _ en -> en.(Rng.int rng (Array.length en))

let pick f : strategy =
 fun t en ->
  match f t en with
  | Some i when Array.exists (Int.equal i) en -> i
  | Some _ | None -> en.(0)

type outcome = {
  completed : bool array;
  steps : int array;
  total : int;
  truncated : bool;
}

let run ?(max_steps = 1_000_000) t strat =
  let truncated = ref false in
  let stop = ref false in
  while not !stop do
    let en = enabled t in
    if Array.length en = 0 then stop := true
    else if t.total >= max_steps then begin
      truncated := true;
      stop := true
    end
    else step t (strat t en)
  done;
  {
    completed = Array.init (n_procs t) (finished t);
    steps = Array.copy t.steps;
    total = t.total;
    truncated = !truncated;
  }
