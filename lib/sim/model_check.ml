exception Violation of string

type config = {
  layout : Shared_mem.Layout.t;
  procs : (int * (Shared_mem.Store.ops -> unit)) array;
  monitor : Sched.monitor;
}

type builder = unit -> config
type violation = { message : string; schedule : int list }
type result = { paths : int; complete : bool; violation : violation option }

type options = { por : bool; cache_bound : int; max_steps : int; max_paths : int }

let default_options =
  { por = true; cache_bound = 1_000_000; max_steps = 10_000; max_paths = 2_000_000 }

type stats = {
  states : int;
  cache_hits : int;
  pruned_by_sleep : int;
  pruned_by_cache : int;
  max_depth : int;
  truncated_paths : int;
  elapsed_s : float;
}

type report = { outcome : result; stats : stats }

(* Run [f] on a fresh simulation, discontinuing every suspended fiber
   before an escaping exception propagates (otherwise their cleanup
   handlers would be silently dropped along with the fibers). *)
let with_sim cfg f =
  let t = Sched.create ~monitor:cfg.monitor cfg.layout cfg.procs in
  match f t with
  | r -> r
  | exception e ->
      Sched.abort t;
      raise e

(* Fault-plan support: a fresh controller per (re-)execution, its
   monitor sequenced after the user's.  A parked process is a frozen
   transition — it simply never appears in [Sched.enabled] — and
   because fault triggers are self-conditions (Faults doc), freezing
   commutes with reordering other processes' independent steps, keeping
   park-only plans sound under POR and state caching.  Timed
   stalls/slow-lanes depend on the global clock and are not; [check]
   falls back to unreduced search for those. *)
let seq_monitor a b =
  {
    Sched.on_event =
      (fun t i e ->
        a.Sched.on_event t i e;
        b.Sched.on_event t i e);
    on_access =
      (fun t i x ->
        a.Sched.on_access t i x;
        b.Sched.on_access t i x);
    on_step =
      (fun t i ->
        a.Sched.on_step t i;
        b.Sched.on_step t i);
  }

let mk_controller faults =
  match faults with
  | None | Some [] -> None
  | Some plan -> Some (Faults.controller plan)

let unstick_opt ctrl t =
  match ctrl with Some c -> ignore (Faults.unstick c t) | None -> ()

(* At the end of a faulty run, parked processes are still suspended;
   unwind them so their fibers are not abandoned (the same leak the
   early-exit paths guard against). *)
let settle_opt ctrl t =
  match ctrl with Some _ -> Sched.abort t | None -> ()

(* Signature of an *executed* step: which process, which register, how
   it was accessed, and whether the step's local run emitted events.
   Two executed steps are dependent when they belong to the same
   process, conflict on a register, or both emit — the monitors check
   properties of the event sequence, so emitting steps never commute
   from their point of view even when their memory accesses do. *)
type ssig = { sproc : int; scell : int; skind : int; semits : bool }

let dependent a b =
  a.sproc = b.sproc
  || (a.scell = b.scell && (a.skind > 0 || b.skind > 0))
  || (a.semits && b.semits)

let kind_int = function Sched.ARead -> 0 | Sched.AWrite -> 1 | Sched.ARmw -> 2

(* One node of the persistent DFS spine.  [f_cands] are the
   enabled-array indices still to explore from this state, head first;
   [f_cur] is the signature of the head's step once executed; [f_done]
   the signatures of fully explored steps; [f_sleep] the sleep set on
   entry (every entry is a signature recorded when that step was first
   executed — independence guarantees it replays identically). *)
type frame = {
  f_en : int array;
  mutable f_cands : int list;
  mutable f_cur : ssig option;
  mutable f_done : ssig list;
  f_sleep : ssig list;
}

let dummy_frame = { f_en = [||]; f_cands = []; f_cur = None; f_done = []; f_sleep = [] }

let sleep_mask sleep = List.fold_left (fun m s -> m lor (1 lsl s.sproc)) 0 sleep

let check ?(options = default_options) ?faults builder =
  let options =
    (* timed faults (stall/slow) are clocked by the global step count,
       which does not commute with reordering — drop both reductions *)
    match faults with
    | Some plan when plan <> [] && not (Faults.por_safe plan) ->
        { options with por = false; cache_bound = 0 }
    | _ -> options
  in
  let { por; cache_bound; max_steps; max_paths } = options in
  let t0 = Obs.Clock.now_ns () in
  (* fingerprint -> (sleep mask, remaining budget) of previous visits *)
  let cache : (int, (int * int) list) Hashtbl.t = Hashtbl.create 4096 in
  let states = ref 0
  and cache_hits = ref 0
  and pruned_sleep = ref 0
  and pruned_cache = ref 0
  and max_depth = ref 0
  and truncated = ref 0
  and paths = ref 0 in
  let stk = ref (Array.make 64 dummy_frame) in
  let len = ref 0 in
  let push f =
    if !len = Array.length !stk then begin
      let bigger = Array.make (2 * !len) dummy_frame in
      Array.blit !stk 0 bigger 0 !len;
      stk := bigger
    end;
    !stk.(!len) <- f;
    incr len
  in
  (* The head of the top frame's candidates has been fully explored:
     retire it, advance to the next sibling, popping exhausted frames.
     Returns false when the whole tree is exhausted. *)
  let rec backtrack () =
    if !len = 0 then false
    else begin
      let f = !stk.(!len - 1) in
      (match f.f_cur with
      | Some s -> f.f_done <- s :: f.f_done
      | None -> assert false);
      f.f_cur <- None;
      f.f_cands <- List.tl f.f_cands;
      match f.f_cands with
      | _ :: _ -> true
      | [] ->
          decr len;
          !stk.(!len) <- dummy_frame;
          backtrack ()
    end
  in
  (* Execute the head candidate of [f] and record its signature.  With
     a fault plan, first re-apply any deadlock fast-forward the original
     execution performed at this point (deterministic, so the replayed
     prefix stays aligned). *)
  let exec_head t ctrl f emitted taken =
    unstick_opt ctrl t;
    let j = List.hd f.f_cands in
    let i = f.f_en.(j) in
    let s = Sched.pending_access t i in
    emitted := false;
    taken := j :: !taken;
    Sched.step t i;
    f.f_cur <-
      Some { sproc = i; scell = s.Sched.cell; skind = kind_int s.Sched.kind; semits = !emitted }
  in
  (* Re-execute the stacked prefix, then extend depth-first until a
     terminal: completion, budget truncation, or a pruned state. *)
  let run_one () =
    let cfg = builder () in
    let tracker = State_hash.create cfg.layout ~nprocs:(Array.length cfg.procs) in
    let emitted = ref false in
    let ctrl = mk_controller faults in
    let user =
      match ctrl with
      | Some c -> seq_monitor cfg.monitor (Faults.monitor c)
      | None -> cfg.monitor
    in
    let monitor =
      {
        Sched.on_event =
          (fun t i ev ->
            State_hash.record_event tracker i ev;
            emitted := true;
            user.Sched.on_event t i ev);
        on_access =
          (fun t i a ->
            State_hash.record_access tracker i a;
            user.Sched.on_access t i a);
        on_step = user.Sched.on_step;
      }
    in
    let taken = ref [] in
    try
      with_sim { cfg with monitor } (fun t ->
          for d = 0 to !len - 1 do
            exec_head t ctrl !stk.(d) emitted taken
          done;
          let stop = ref false in
          while not !stop do
            let en = Sched.enabled t in
            let en =
              match ctrl with
              | Some c when Array.length en = 0 && Faults.unstick c t ->
                  Sched.enabled t
              | _ -> en
            in
            if Array.length en = 0 then begin
              settle_opt ctrl t;
              stop := true
            end
            else if Sched.total_steps t >= max_steps then begin
              incr truncated;
              Sched.abort t;
              stop := true
            end
            else begin
              incr states;
              let sleep =
                if (not por) || !len = 0 then []
                else
                  let p = !stk.(!len - 1) in
                  let pc = Option.get p.f_cur in
                  List.filter (fun b -> not (dependent pc b)) (p.f_sleep @ p.f_done)
              in
              let cache_covered =
                cache_bound > 0
                &&
                let key = State_hash.key tracker in
                let mask = sleep_mask sleep in
                let remaining = max_steps - Sched.total_steps t in
                match Hashtbl.find_opt cache key with
                | Some entries ->
                    incr cache_hits;
                    if
                      List.exists
                        (fun (m, r) -> m land mask = m && r >= remaining)
                        entries
                    then begin
                      incr pruned_cache;
                      true
                    end
                    else begin
                      Hashtbl.replace cache key ((mask, remaining) :: entries);
                      false
                    end
                | None ->
                    if Hashtbl.length cache < cache_bound then
                      Hashtbl.add cache key [ (mask, remaining) ];
                    false
              in
              if cache_covered then begin
                Sched.abort t;
                stop := true
              end
              else begin
                let cands = ref [] in
                for j = Array.length en - 1 downto 0 do
                  if List.exists (fun s -> s.sproc = en.(j)) sleep then
                    incr pruned_sleep
                  else cands := j :: !cands
                done;
                match !cands with
                | [] ->
                    (* every enabled step is asleep: covered elsewhere *)
                    Sched.abort t;
                    stop := true
                | cands ->
                    let f =
                      { f_en = en; f_cands = cands; f_cur = None; f_done = []; f_sleep = sleep }
                    in
                    push f;
                    exec_head t ctrl f emitted taken
              end
            end
          done;
          if Sched.total_steps t > !max_depth then max_depth := Sched.total_steps t;
          `Terminal)
    with Violation message -> `Violation { message; schedule = List.rev !taken }
  in
  let finish outcome =
    {
      outcome;
      stats =
        {
          states = !states;
          cache_hits = !cache_hits;
          pruned_by_sleep = !pruned_sleep;
          pruned_by_cache = !pruned_cache;
          max_depth = !max_depth;
          truncated_paths = !truncated;
          elapsed_s = float_of_int (Obs.Clock.now_ns () - t0) /. 1e9;
        };
    }
  in
  let rec drive () =
    match run_one () with
    | `Violation v -> finish { paths = !paths; complete = false; violation = Some v }
    | `Terminal -> (
        incr paths;
        match backtrack () with
        | false -> finish { paths = !paths; complete = true; violation = None }
        | true ->
            if !paths >= max_paths then
              finish { paths = !paths; complete = false; violation = None }
            else drive ())
  in
  drive ()

let report_json ?(label = "modelcheck") r =
  let o = r.outcome and s = r.stats in
  let per_sec =
    if s.elapsed_s > 0. then float_of_int o.paths /. s.elapsed_s else 0.
  in
  Printf.sprintf
    {|{"label":%S,"paths":%d,"complete":%b,"violation":%b,"states":%d,"cache_hits":%d,"pruned_by_sleep":%d,"pruned_by_cache":%d,"max_depth":%d,"truncated_paths":%d,"elapsed_s":%.6f,"paths_per_sec":%.1f}|}
    label o.paths o.complete
    (o.violation <> None)
    s.states s.cache_hits s.pruned_by_sleep s.pruned_by_cache s.max_depth
    s.truncated_paths s.elapsed_s per_sec

let explore ?(max_steps = 10_000) ?(max_paths = 2_000_000) ?faults builder =
  (check ~options:{ por = false; cache_bound = 0; max_steps; max_paths } ?faults builder)
    .outcome

(* Attach a fresh fault controller to a config (shared by the seeded
   sampler and the replayer, so a schedule found by one replays
   identically under the other). *)
let faulty_config ?faults cfg =
  let ctrl = mk_controller faults in
  let cfg =
    match ctrl with
    | Some c -> { cfg with monitor = seq_monitor cfg.monitor (Faults.monitor c) }
    | None -> cfg
  in
  (cfg, ctrl)

let sample ?(max_steps = 100_000) ?faults ~seeds builder =
  (* Draws the same random choices as [Sched.run t (Sched.random rng)]
     (one [Rng.int] per step, same loop order), but records them so a
     violating run comes back with a replayable schedule. *)
  let run_seed seed =
    let cfg, ctrl = faulty_config ?faults (builder ()) in
    let taken = ref [] in
    try
      with_sim cfg (fun t ->
          let rng = Rng.make seed in
          let stop = ref false in
          while not !stop do
            let en = Sched.enabled t in
            let en =
              match ctrl with
              | Some c when Array.length en = 0 && Faults.unstick c t ->
                  Sched.enabled t
              | _ -> en
            in
            if Array.length en = 0 then begin
              settle_opt ctrl t;
              stop := true
            end
            else if Sched.total_steps t >= max_steps then begin
              Sched.abort t;
              stop := true
            end
            else begin
              let c = Rng.int rng (Array.length en) in
              taken := c :: !taken;
              Sched.step t en.(c)
            end
          done);
      None
    with Violation message ->
      Some
        {
          message = Printf.sprintf "[seed %d] %s" seed message;
          schedule = List.rev !taken;
        }
  in
  let rec loop n = function
    | [] -> { paths = n; complete = true; violation = None }
    | seed :: rest -> (
        match run_seed seed with
        | Some v -> { paths = n + 1; complete = false; violation = Some v }
        | None -> loop (n + 1) rest)
  in
  loop 0 seeds

let replay ?(max_steps = 10_000) ?faults builder schedule =
  let cfg, ctrl = faulty_config ?faults (builder ()) in
  let taken = ref [] in
  try
    with_sim cfg (fun t ->
        let prefix = ref schedule in
        let stop = ref false in
        while not !stop do
          let en = Sched.enabled t in
          let en =
            match ctrl with
            | Some c when Array.length en = 0 && Faults.unstick c t ->
                Sched.enabled t
            | _ -> en
          in
          if Array.length en = 0 then begin
            settle_opt ctrl t;
            stop := true
          end
          else if Sched.total_steps t >= max_steps then begin
            Sched.abort t;
            stop := true
          end
          else begin
            let c =
              match !prefix with
              | c :: rest ->
                  prefix := rest;
                  c
              | [] -> 0
            in
            (* mangled schedules (e.g. [minimize] candidates) may carry
               choices past the enabled count; normalise instead of
               crashing so delta-debugging stays total *)
            let c = if c >= 0 && c < Array.length en then c else 0 in
            taken := c :: !taken;
            Sched.step t en.(c)
          end
        done);
    Ok ()
  with Violation message -> Error { message; schedule = List.rev !taken }

let shortest_violation ?(max_steps = 200) ?(max_paths_per_depth = 500_000) ?faults builder =
  let rec deepen d =
    if d > max_steps then None
    else
      let r = explore ~max_steps:d ~max_paths:max_paths_per_depth ?faults builder in
      match r.violation with
      | Some v -> Some v
      | None -> if r.complete then deepen (d + 1) else None
  in
  deepen 1

let minimize ?(max_steps = 100_000) ?faults builder schedule =
  (* Greedy delta-debugging against [replay]: drop chunks (halving the
     chunk size), then lower surviving choices towards 0 — smaller
     indices mean "earlier in the enabled array", normalising the
     witness.  Every candidate is validated by a full deterministic
     replay, so the result is guaranteed to still violate. *)
  let violates sched =
    match replay ~max_steps ?faults builder sched with
    | Error v -> Some v
    | Ok () -> None
  in
  match violates schedule with
  | None -> None
  | Some v0 ->
      let best = ref schedule and best_v = ref v0 in
      (* delete chunks until no deletion of any size helps *)
      let rec delete_pass () =
        let improved = ref false in
        let chunk = ref (max 1 (List.length !best / 2)) in
        while !chunk >= 1 do
          let arr = Array.of_list !best in
          let len = Array.length arr in
          let pos = ref 0 in
          while !pos < len do
            let hi = min len (!pos + !chunk) in
            let cand =
              Array.to_list
                (Array.append (Array.sub arr 0 !pos) (Array.sub arr hi (len - hi)))
            in
            (match violates cand with
            | Some v ->
                best := cand;
                best_v := v;
                improved := true;
                pos := len (* [arr] is stale; retry this size afresh *)
            | None -> pos := hi)
          done;
          chunk := if !chunk = 1 then 0 else !chunk / 2
        done;
        if !improved then delete_pass ()
      in
      delete_pass ();
      let arr = Array.of_list !best in
      Array.iteri
        (fun i c ->
          if c > 0 then begin
            let cand = Array.copy arr in
            cand.(i) <- 0;
            match violates (Array.to_list cand) with
            | Some v ->
                arr.(i) <- 0;
                best := Array.to_list arr;
                best_v := v
            | None -> ()
          end)
        arr;
      Some { !best_v with schedule = !best }
