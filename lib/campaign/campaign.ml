open Shared_mem
module MC = Sim.Model_check
module Mut = Renaming.Mutations

type target = {
  name : string;
  correct : bool;
  nprocs : int;
  tags : string list;
  max_access : int;
  sched_per_plan : int;
  builder : MC.builder;
}

type finding = {
  seed : int;
  sched_seed : int;
  plan : Sim.Faults.plan;
  message : string;
  schedule : int list;
}

type outcome = {
  target : string;
  correct : bool;
  runs : int;
  finding : finding option;
}

(* ----- harness builders ----- *)

(* The mutants go through the very harnesses their correct originals
   run in: [Workload]'s mutex and splitter configurations. *)
let mutant_mutex variant =
  Workload.mutex_config ~retries:6 (module Mut.Mutant_mutex) (fun l ->
      Mut.Mutant_mutex.create l variant)

let mutant_splitter variant =
  Workload.splitter_config (module Mut.Mutant_splitter)
    (fun l -> Mut.Mutant_splitter.create l variant)
    ~pids:[| 1; 2 |]

(* Uniqueness harness over any Protocol.S instance, bodies from the
   workload generators so they emit the [cycle] notes plans can target. *)
let proto_config (type a) (module P : Renaming.Protocol.S with type t = a)
    (make : Layout.t -> a) ~pids ~cycles () : MC.config =
  let layout = Layout.create () in
  let inst = make layout in
  let work = Layout.alloc layout ~name:"work" 0 in
  let spec = Workload.churn ~cycles () in
  let u = Sim.Checks.uniqueness ~name_space:(P.name_space inst) () in
  {
    MC.layout;
    procs =
      Array.map (fun pid -> (pid, Workload.body (module P) inst ~work spec)) pids;
    monitor = Sim.Checks.uniqueness_monitor u;
  }

(* The cost mutant stays unique, so the harness also meters every
   GetName and raises when one exceeds the Moir–Anderson bound — the
   same check the observe CLI applies to its metrics snapshot. *)
let costly_config ~k ~s ~pids ~cycles () : MC.config =
  let module M = Mut.Mutant_costly in
  let layout = Layout.create () in
  let m = M.create layout M.Quadratic_rescan ~k ~s in
  let work = Layout.alloc layout ~name:"work" 0 in
  let bound = (k * (s + 4)) + 1 in
  let u = Sim.Checks.uniqueness ~name_space:(M.name_space m) () in
  let costs = Workload.costs () in
  (* the cost of the GetName that just returned *)
  let note_cost _ = Sim.Sched.emit (Sim.Event.Note ("get_cost", List.hd costs.get)) in
  let cost_monitor =
    Sim.Sched.monitor
      ~on_event:(fun _ _ ev ->
        match ev with
        | Sim.Event.Note ("get_cost", n) when n > bound ->
            raise
              (MC.Violation
                 (Printf.sprintf "GetName took %d accesses > bound %d" n bound))
        | _ -> ())
      ()
  in
  {
    MC.layout;
    procs =
      Array.map
        (fun pid ->
          ( pid,
            Workload.protocol_body ~costs ~on_get:note_cost (module M) m ~work ~cycles ))
        pids;
    monitor = Sim.Checks.combine [ Sim.Checks.uniqueness_monitor u; cost_monitor ];
  }

(* ----- the target list ----- *)

let proto_tags = [ "cycle" ]
let splitter_tags = [ "begin"; "in"; "out"; "end" ]
let mutex_tags = [ "cs"; "cs_exit" ]

let targets () =
  let filter_make layout =
    let k = 2 and s = 8 in
    let (p : Renaming.Params.filter_params) = Renaming.Params.choose ~k ~s in
    Renaming.Filter.create layout
      { k; d = p.d; z = p.z; s; participants = [| 1; 5 |] }
  in
  [
    {
      name = "splitter";
      correct = true;
      nprocs = 3;
      tags = splitter_tags;
      max_access = 16;
      sched_per_plan = 4;
      builder =
        Workload.splitter_config (module Renaming.Splitter) Renaming.Splitter.create
          ~pids:[| 1; 2; 3 |] ~cycles:2;
    };
    {
      name = "split";
      correct = true;
      nprocs = 3;
      tags = proto_tags;
      max_access = 32;
      sched_per_plan = 4;
      builder =
        proto_config
          (module Renaming.Split)
          (fun l -> Renaming.Split.create l ~k:3)
          ~pids:[| 1; 2; 3 |] ~cycles:2;
    };
    {
      name = "pf_mutex";
      correct = true;
      nprocs = 2;
      tags = mutex_tags;
      max_access = 24;
      sched_per_plan = 8;
      builder =
        Workload.mutex_config ~retries:6
          (module Renaming.Pf_mutex)
          Renaming.Pf_mutex.create ~cycles:3;
    };
    {
      name = "ma";
      correct = true;
      nprocs = 2;
      tags = proto_tags;
      max_access = 24;
      sched_per_plan = 4;
      builder =
        proto_config
          (module Renaming.Ma)
          (fun l -> Renaming.Ma.create l ~k:2 ~s:4)
          ~pids:[| 0; 2 |] ~cycles:2;
    };
    {
      name = "filter";
      correct = true;
      nprocs = 2;
      tags = proto_tags;
      max_access = 64;
      sched_per_plan = 4;
      builder =
        proto_config (module Renaming.Filter) filter_make ~pids:[| 1; 5 |] ~cycles:2;
    };
    {
      name = "pipeline";
      correct = true;
      nprocs = 2;
      tags = proto_tags;
      max_access = 64;
      sched_per_plan = 4;
      builder =
        proto_config
          (module Renaming.Pipeline)
          (fun l -> Renaming.Pipeline.create l ~k:2 ~s:16 ~participants:[| 3; 11 |])
          ~pids:[| 3; 11 |] ~cycles:1;
    };
    {
      name = "level";
      correct = true;
      nprocs = 2;
      tags = proto_tags;
      max_access = 24;
      sched_per_plan = 4;
      builder =
        proto_config
          (module Renaming.Level_array)
          (fun l -> Renaming.Level_array.create l ~k:2)
          ~pids:[| 1; 4 |] ~cycles:2;
    };
    {
      name = "compact";
      correct = true;
      nprocs = 3;
      tags = proto_tags;
      max_access = 32;
      sched_per_plan = 4;
      builder =
        proto_config
          (module Renaming.Compact_split)
          (fun l -> Renaming.Compact_split.create l ~k:3)
          ~pids:[| 1; 2; 3 |] ~cycles:2;
    };
    {
      name = "mutant:mutex-read-before-write";
      correct = false;
      nprocs = 2;
      tags = mutex_tags;
      max_access = 12;
      sched_per_plan = 8;
      builder = mutant_mutex Mut.Mutant_mutex.Read_before_write ~cycles:1;
    };
    {
      name = "mutant:mutex-no-yield";
      correct = false;
      nprocs = 2;
      tags = mutex_tags;
      max_access = 12;
      sched_per_plan = 8;
      builder = mutant_mutex Mut.Mutant_mutex.No_yield ~cycles:1;
    };
    {
      name = "mutant:mutex-turn-lost";
      correct = false;
      nprocs = 2;
      tags = mutex_tags;
      max_access = 48;
      sched_per_plan = 192;
      builder = mutant_mutex Mut.Mutant_mutex.Turn_lost_on_release ~cycles:15;
    };
    {
      name = "mutant:splitter-no-interference";
      correct = false;
      nprocs = 2;
      tags = splitter_tags;
      max_access = 12;
      sched_per_plan = 8;
      builder = mutant_splitter Mut.Mutant_splitter.No_interference_check ~cycles:1;
    };
    {
      name = "mutant:splitter-no-advice-flip";
      correct = false;
      nprocs = 2;
      tags = splitter_tags;
      max_access = 16;
      sched_per_plan = 8;
      builder = mutant_splitter Mut.Mutant_splitter.No_advice_flip ~cycles:2;
    };
    {
      name = "mutant:ma-no-recheck";
      correct = false;
      nprocs = 2;
      tags = proto_tags;
      max_access = 16;
      sched_per_plan = 8;
      builder =
        proto_config
          (module Mut.Mutant_ma)
          (fun l -> Mut.Mutant_ma.create l Mut.Mutant_ma.No_recheck ~k:2 ~s:3)
          ~pids:[| 0; 2 |] ~cycles:2;
    };
    {
      name = "mutant:level-torn-claim";
      correct = false;
      nprocs = 2;
      tags = proto_tags;
      max_access = 12;
      sched_per_plan = 8;
      builder =
        proto_config
          (module Mut.Mutant_level)
          (fun l -> Mut.Mutant_level.create l Mut.Mutant_level.Torn_claim ~k:2)
          ~pids:[| 1; 4 |] ~cycles:2;
    };
    {
      name = "mutant:compact-no-interference";
      correct = false;
      nprocs = 2;
      tags = proto_tags;
      max_access = 12;
      sched_per_plan = 8;
      builder =
        proto_config
          (module Mut.Mutant_compact)
          (fun l -> Mut.Mutant_compact.create l ~k:2)
          ~pids:[| 1; 4 |] ~cycles:2;
    };
    {
      name = "mutant:ma-costly";
      correct = false;
      nprocs = 2;
      tags = proto_tags;
      max_access = 16;
      sched_per_plan = 2;
      builder = costly_config ~k:2 ~s:4 ~pids:[| 0; 2 |] ~cycles:1;
    };
  ]

let find name = List.find_opt (fun t -> t.name = name) (targets ())

(* ----- running ----- *)

let default_seeds = List.init 32 (fun i -> 0xFA17 + (i * 104729))

let run_once ?(max_steps = 200_000) tg plan ~sched_seed =
  let cfg = tg.builder () in
  let ctrl = Sim.Faults.controller plan in
  let monitor = Sim.Checks.combine [ cfg.MC.monitor; Sim.Faults.monitor ctrl ] in
  let t = Sim.Sched.create ~monitor cfg.MC.layout cfg.MC.procs in
  let rng = Sim.Rng.make sched_seed in
  let taken = ref [] in
  let strat _ en =
    let c = Sim.Rng.int rng (Array.length en) in
    taken := c :: !taken;
    en.(c)
  in
  let res =
    match Sim.Faults.run ~max_steps ctrl t strat with
    | (outcome : Sim.Sched.outcome) ->
        if outcome.truncated then
          (* non-faulty processes must finish whatever the plan does:
             running out of a generous step budget is a wait-freedom
             failure, not a long run *)
          Some
            ( Printf.sprintf "run did not settle within %d steps (wait-freedom)"
                max_steps,
              List.rev !taken )
        else None
    | exception MC.Violation message -> Some (message, List.rev !taken)
  in
  Sim.Sched.abort t;
  res

(* One plan per matrix seed, [sched_per_plan] schedules per plan; both
   derivations are pure functions of the matrix seed (rng.mli's seed
   contract), so a finding's (seed, plan, sched_seed) triple is a
   complete reproduction recipe. *)
let plan_for tg seed =
  Sim.Faults.gen
    (Sim.Rng.make (seed lxor 0x0F_AC_ED))
    ~nprocs:tg.nprocs ~tags:tg.tags ~max_access:tg.max_access ()

let sched_seed_for seed j = seed + (j * 31)

let run_target ?(seeds = default_seeds) ?max_steps (tg : target) =
  let runs = ref 0 in
  let finding = ref None in
  let stop_early = not tg.correct in
  List.iter
    (fun seed ->
      if not (stop_early && !finding <> None) then begin
        let plan = plan_for tg seed in
        for j = 0 to tg.sched_per_plan - 1 do
          if not (stop_early && !finding <> None) then begin
            incr runs;
            let sched_seed = sched_seed_for seed j in
            match run_once ?max_steps tg plan ~sched_seed with
            | Some (message, schedule) when !finding = None ->
                finding := Some { seed; sched_seed; plan; message; schedule }
            | _ -> ()
          end
        done
      end)
    seeds;
  { target = tg.name; correct = tg.correct; runs = !runs; finding = !finding }

let run_all ?seeds ?max_steps () =
  List.map (run_target ?seeds ?max_steps) (targets ())

let ok outcomes =
  List.for_all
    (fun o -> if o.correct then o.finding = None else o.finding <> None)
    outcomes

let shrink ?max_steps tg (f : finding) =
  MC.minimize ?max_steps ~faults:f.plan tg.builder f.schedule

let replay ?max_steps tg plan schedule = MC.replay ?max_steps ~faults:plan tg.builder schedule

(* ----- reporting ----- *)

let pp_outcome ppf o =
  match (o.correct, o.finding) with
  | true, None -> Fmt.pf ppf "%-32s clean (%d runs)" o.target o.runs
  | false, Some f ->
      Fmt.pf ppf "%-32s killed after %d runs (--plan '%s' --seed %d): %s" o.target
        o.runs
        (Sim.Faults.to_string f.plan)
        f.sched_seed f.message
  | true, Some f ->
      Fmt.pf ppf "%-32s UNEXPECTED VIOLATION (seed %d, sched %d, plan %s): %s"
        o.target f.seed f.sched_seed
        (Sim.Faults.to_string f.plan)
        f.message
  | false, None -> Fmt.pf ppf "%-32s MUTANT SURVIVED %d runs" o.target o.runs

let finding_json f =
  Printf.sprintf
    {|{"seed":%d,"sched_seed":%d,"plan":%S,"message":%S,"schedule":[%s]}|}
    f.seed f.sched_seed
    (Sim.Faults.to_string f.plan)
    f.message
    (String.concat "," (List.map string_of_int f.schedule))

let outcome_json o =
  let expected =
    if o.correct then o.finding = None else o.finding <> None
  in
  Printf.sprintf {|{"target":%S,"correct":%b,"runs":%d,"as_expected":%b,"finding":%s}|}
    o.target o.correct o.runs expected
    (match o.finding with None -> "null" | Some f -> finding_json f)

(* ----- crash campaigns -----

   Discrimination with a different axis than the mutants: the adversary
   is [Faults.gen_crash] — processes dying while holding a name.  A
   correct {e bare} protocol survives in the safety sense but leaks the
   name forever; its [+reset] twin adds one reclaimer process that hands
   every corpse's lease to the protocol's own [reset_footprint] — what
   [Server.retire_slot] does for a dead client — and must finish with
   none held.  A matrix where the bare targets don't leak, or the twins
   do, proves the harness can't tell the difference. *)

type crash_config = {
  ccfg : MC.config;
  held_now : unit -> (int * int) list;
  reclaimed : unit -> int;
}

type crash_target = {
  c_name : string;
  reset : bool;
  c_nprocs : int;  (* worker count; the reclaimer process is extra *)
  c_max_cycle : int;
  c_sched_per_plan : int;
  c_builder : Sim.Faults.t -> crash_config;
}

(* Both sides of a pair run the same workers: [Workload.body], with
   each worker's lease kept in its own slot from [get_name]'s return
   until it emits [Released] — [Acquired] is the event crash plans
   trigger on, so a corpse's lease is always where the reclaimer looks
   for it. *)
let crash_config (type a) (module P : Renaming.Protocol.S with type t = a)
    (make : Layout.t -> a) ~pids ~cycles ~reset ctrl : crash_config =
  let layout = Layout.create () in
  let inst = make layout in
  let work = Layout.alloc layout ~name:"work" 0 in
  let spec = Workload.churn ~cycles () in
  let u = Sim.Checks.uniqueness ~name_space:(P.name_space inst) () in
  let n = Array.length pids in
  let slots = Array.make n None in
  let finished = Array.make n false in
  let worker w ops =
    Workload.body ~on_get:(fun l -> slots.(w) <- Some l) (module P) inst ~work spec ops;
    finished.(w) <- true
  in
  (* workers are process indices [0, n) *)
  let slot_clearer =
    Sim.Sched.monitor
      ~on_event:(fun _ w ev ->
        match ev with Sim.Event.Released _ when w < n -> slots.(w) <- None | _ -> ())
      ()
  in
  let reclaimed = ref 0 in
  let workers = Array.mapi (fun w pid -> (pid, worker w)) pids in
  let procs =
    if not reset then workers
    else begin
      let reset_footprint =
        match P.reset_footprint with
        | Some f -> f
        | None -> invalid_arg "Campaign.crash_config: protocol has no reset_footprint"
      in
      (* every worker is finished or frozen: no crash can fire any more *)
      let settled () =
        let frozen = Sim.Faults.parked ctrl in
        let rec all w = w >= n || ((finished.(w) || List.mem w frozen) && all (w + 1)) in
        all 0
      in
      let corpses () = List.filter (fun w -> slots.(w) <> None) (Sim.Faults.crashed ctrl) in
      let reclaim (ops : Store.ops) w =
        match slots.(w) with
        | None -> ()
        | Some lease ->
            slots.(w) <- None;
            incr reclaimed;
            (* ownership moves before the reset makes the name grantable
               again *)
            Sim.Sched.emit (Sim.Event.Note ("reclaimed", P.name_of inst lease));
            reset_footprint inst { ops with pid = pids.(w) } lease
      in
      (* never a legal source name here, and the reclaimer never acquires *)
      let reclaimer_pid = 1 + Array.fold_left max 0 pids in
      let reclaimer (ops : Store.ops) =
        (* hard budget so a reclamation bug shows up as a leak in the
           verdict instead of hanging the run *)
        let budget = ref 10_000 in
        while (not (settled ()) || corpses () <> []) && !budget > 0 do
          decr budget;
          (* the idle read guarantees one shared access per iteration,
             so the loop always yields to the scheduler *)
          ignore (ops.read work);
          List.iter (reclaim ops) (corpses ())
        done
      in
      Array.append workers [| (reclaimer_pid, reclaimer) |]
    end
  in
  {
    ccfg =
      {
        MC.layout;
        procs;
        monitor = Sim.Checks.combine [ Sim.Checks.uniqueness_monitor u; slot_clearer ];
      };
    held_now = (fun () -> Sim.Checks.held_now u);
    reclaimed = (fun () -> !reclaimed);
  }

let crash_targets () =
  let family (type a) c_name (module P : Renaming.Protocol.S with type t = a) make ~pids =
    let target reset c_name =
      {
        c_name;
        reset;
        c_nprocs = Array.length pids;
        c_max_cycle = 2;
        c_sched_per_plan = 4;
        c_builder = crash_config (module P) make ~pids ~cycles:2 ~reset;
      }
    in
    [ target false c_name; target true (c_name ^ "+reset") ]
  in
  let filter_make layout =
    let k = 2 and s = 8 in
    let (p : Renaming.Params.filter_params) = Renaming.Params.choose ~k ~s in
    Renaming.Filter.create layout
      { k; d = p.d; z = p.z; s; participants = [| 1; 5 |] }
  in
  List.concat
    [
      family "split" (module Renaming.Split) (fun l -> Renaming.Split.create l ~k:3)
        ~pids:[| 1; 2; 3 |];
      family "level"
        (module Renaming.Level_array)
        (fun l -> Renaming.Level_array.create l ~k:2)
        ~pids:[| 1; 4 |];
      family "compact"
        (module Renaming.Compact_split)
        (fun l -> Renaming.Compact_split.create l ~k:3)
        ~pids:[| 1; 2; 3 |];
      family "ma" (module Renaming.Ma) (fun l -> Renaming.Ma.create l ~k:2 ~s:4) ~pids:[| 0; 2 |];
      family "filter" (module Renaming.Filter) filter_make ~pids:[| 1; 5 |];
      family "pipeline"
        (module Renaming.Pipeline)
        (fun l -> Renaming.Pipeline.create l ~k:2 ~s:16 ~participants:[| 3; 11 |])
        ~pids:[| 3; 11 |];
    ]

let find_crash name = List.find_opt (fun t -> t.c_name = name) (crash_targets ())

let crash_plan_for tg seed =
  Sim.Faults.gen_crash
    (Sim.Rng.make (seed lxor 0x0F_AC_ED))
    ~nprocs:tg.c_nprocs ~max_cycle:tg.c_max_cycle ()

type crash_run = {
  crashed : int;  (* crash faults that fired *)
  leaked : (int * int) list;  (* names still held at the end *)
  run_reclaimed : int;
  failure : (string * int list) option;
}

let run_crash_once ?(max_steps = 200_000) (tg : crash_target) plan ~sched_seed =
  let ctrl = Sim.Faults.controller plan in
  let cc = tg.c_builder ctrl in
  let monitor = Sim.Checks.combine [ cc.ccfg.MC.monitor; Sim.Faults.monitor ctrl ] in
  let t = Sim.Sched.create ~monitor cc.ccfg.MC.layout cc.ccfg.MC.procs in
  let rng = Sim.Rng.make sched_seed in
  let taken = ref [] in
  let strat _ en =
    let c = Sim.Rng.int rng (Array.length en) in
    taken := c :: !taken;
    en.(c)
  in
  let failure =
    match Sim.Faults.run ~max_steps ctrl t strat with
    | (outcome : Sim.Sched.outcome) ->
        if outcome.truncated then
          Some
            ( Printf.sprintf "run did not settle within %d steps (wait-freedom)"
                max_steps,
              List.rev !taken )
        else None
    | exception MC.Violation message -> Some (message, List.rev !taken)
  in
  Sim.Sched.abort t;
  {
    crashed = List.length (Sim.Faults.crashed ctrl);
    leaked = cc.held_now ();
    run_reclaimed = cc.reclaimed ();
    failure;
  }

type crash_outcome = {
  crash_target_name : string;
  crash_reset : bool;
  crash_runs : int;
  crashes_fired : int;
  leak_runs : int;
  total_reclaimed : int;
  crash_finding : finding option;
}

let run_crash_target ?(seeds = default_seeds) ?max_steps (tg : crash_target) =
  let runs = ref 0 in
  let crashes_fired = ref 0 in
  let leak_runs = ref 0 in
  let total_reclaimed = ref 0 in
  let finding = ref None in
  List.iter
    (fun seed ->
      let plan = crash_plan_for tg seed in
      for j = 0 to tg.c_sched_per_plan - 1 do
        incr runs;
        let sched_seed = sched_seed_for seed j in
        let r = run_crash_once ?max_steps tg plan ~sched_seed in
        crashes_fired := !crashes_fired + r.crashed;
        if r.leaked <> [] then incr leak_runs;
        total_reclaimed := !total_reclaimed + r.run_reclaimed;
        let note message schedule =
          if !finding = None then
            finding := Some { seed; sched_seed; plan; message; schedule }
        in
        match r.failure with
        | Some (message, schedule) -> note message schedule
        | None ->
            if tg.reset then begin
              if r.leaked <> [] then
                note
                  (Printf.sprintf "%d name(s) still held after the run: reclamation failed"
                     (List.length r.leaked))
                  [];
              (* a direct reset cannot expire a live holder: exactly one
                 reclamation per corpse *)
              if r.run_reclaimed <> r.crashed then
                note
                  (Printf.sprintf "%d crash(es) fired but %d lease(s) reclaimed" r.crashed
                     r.run_reclaimed)
                  []
            end
            else if r.crashed > 0 && r.leaked = [] then
              (* a bare protocol surviving a crash-holding plan without a
                 leak means the plan never actually bit — the matrix
                 proves nothing *)
              note "crash fired under the bare protocol yet no name leaked" []
      done)
    seeds;
  {
    crash_target_name = tg.c_name;
    crash_reset = tg.reset;
    crash_runs = !runs;
    crashes_fired = !crashes_fired;
    leak_runs = !leak_runs;
    total_reclaimed = !total_reclaimed;
    crash_finding = !finding;
  }

let run_all_crash ?seeds ?max_steps () =
  List.map (run_crash_target ?seeds ?max_steps) (crash_targets ())

let crash_ok outcomes =
  List.for_all
    (fun o -> o.crash_finding = None && o.crashes_fired >= 1)
    outcomes

let pp_crash_outcome ppf o =
  match o.crash_finding with
  | None ->
      Fmt.pf ppf "%-24s %s  %d runs, %d crashes, %d leak-runs, %d reclaimed"
        o.crash_target_name
        (if o.crash_reset then "survived " else "leaked   ")
        o.crash_runs o.crashes_fired o.leak_runs o.total_reclaimed
  | Some f ->
      Fmt.pf ppf "%-24s FAILED (seed %d, sched %d, plan %s): %s" o.crash_target_name
        f.seed f.sched_seed
        (Sim.Faults.to_string f.plan)
        f.message

let crash_outcome_json o =
  Printf.sprintf
    {|{"target":%S,"reset":%b,"runs":%d,"crashes":%d,"leak_runs":%d,"reclaimed":%d,"as_expected":%b,"finding":%s}|}
    o.crash_target_name o.crash_reset o.crash_runs o.crashes_fired o.leak_runs
    o.total_reclaimed
    (o.crash_finding = None && o.crashes_fired >= 1)
    (match o.crash_finding with None -> "null" | Some f -> finding_json f)

let crash_report_json ~seeds outcomes =
  Printf.sprintf
    {|{"schema":"renaming.crash/v1","matrix_size":%d,"ok":%b,"targets":[%s]}|}
    (List.length seeds) (crash_ok outcomes)
    (String.concat "," (List.map crash_outcome_json outcomes))

let report_json ?crash ~seeds outcomes =
  Printf.sprintf
    {|{"schema":"renaming.faults/v1","matrix_size":%d,"ok":%b,"targets":[%s]%s}|}
    (List.length seeds)
    (ok outcomes && Option.fold ~none:true ~some:crash_ok crash)
    (String.concat "," (List.map outcome_json outcomes))
    (match crash with
    | None -> ""
    | Some c -> {|,"crash":|} ^ crash_report_json ~seeds c)

(* ----- chaos campaigns: killing the name server -----

   The third discrimination axis: whole-server fault plans against the
   resilient [Server]/[Churn] stack on real domains.  Where the crash
   campaign kills simulated processes around one protocol instance,
   chaos kills {e service} roles — a client holding leases, a client
   retiring one, a hot shard's tenant — and asserts the self-healing
   contract: no uniqueness violation ever, every leaked lease
   reclaimed within two lease TTLs of scans, and the live clients'
   availability above a floor.  Everything derives from the same seed
   matrix as the other campaigns. *)

type chaos_fault =
  | Crash_holding
  | Crash_mid_drain
  | Park_drainer
  | Stall_hot_shard

let chaos_faults =
  [ Crash_holding; Crash_mid_drain; Park_drainer; Stall_hot_shard ]

let chaos_fault_name = function
  | Crash_holding -> "crash-holding"
  | Crash_mid_drain -> "crash-mid-drain"
  | Park_drainer -> "park-drainer"
  | Stall_hot_shard -> "stall-hot-shard"

let chaos_fault_of_name = function
  | "crash-holding" -> Some Crash_holding
  | "crash-mid-drain" -> Some Crash_mid_drain
  | "park-drainer" -> Some Park_drainer
  | "stall-hot-shard" -> Some Stall_hot_shard
  | _ -> None

(* Small geometry so faults bite: 2 shards of k = 4 under 4 clients
   gives real admission pressure, warm capacity 1 means a crashed
   client always leaks its cached lease, and scans are wall-paced at
   100 us so a preempted-but-live client is not instantly mistaken
   for a corpse.  A scan runs at the first 8th tend of any live client
   after those 100 us, so a crashed victim never delays one. *)
let chaos_resilience = { Server.scan_interval_ns = 100_000; lease_ttl = 30; tend_every = 8 }

let chaos_sources = 128

let chaos_config =
  Server.default_config ~shards:2 ~k_per_shard:4 ~warm_capacity:1
    ~resilience:chaos_resilience ~clients:4 ~source_space:chaos_sources ()

let chaos_victim = 1

(* One journey recorder per client domain, so every chaos cell can explain
   its p100: the paper bound for a cold acquire through both shards is
   7(k-1) shared accesses. *)
let chaos_journeys ~seed =
  Array.init chaos_config.Server.clients (fun _ ->
      Obs.Journey.create ~seed
        ~bound:(7 * (chaos_config.Server.k_per_shard - 1))
        ())

type chaos_outcome = {
  co_seed : int;
  co_fault : chaos_fault;
  co_violations : int;
  co_leaked : int;
  co_outstanding : int;
  co_reclaimed : int;
  co_reclaim_scans : int;  (* worst staleness at reclaim, in scans *)
  co_deaths : int;
  co_availability : float;  (* granted / issued over the whole run *)
  co_settle : int;
  co_ok : bool;
  co_msg : string;
}

let chaos_policy seed =
  Policy.make ~seed ~retries:8 ~base_spins:64 ~cap_spins:4096 ()

let run_chaos_one ?(requests = 1500) seed fault =
  let cfg = chaos_config in
  let fault_plan, pinned =
    match fault with
    | Crash_holding -> (Churn.Crash { request = 64 + (seed land 63) }, false)
    | Crash_mid_drain -> (Churn.Crash_in_drain { drain = seed land 3 }, false)
    | Park_drainer -> (Churn.Park_in_drain { drain = seed land 3 }, false)
    | Stall_hot_shard -> (Churn.Stall { request = 32 + (seed land 31); spins = 400_000 }, true)
  in
  (* clients route by their own id, not by source, so the hot shard is
     the one the victim shares with its co-owner; every client drawing
     from the same half of the sources keeps the victim's names in
     demand while it stalls *)
  let hot_sources = Array.init (chaos_sources / 2) Fun.id in
  let spec id =
    let s =
      Workload.server_churn ~theta:0.45 ~s:chaos_sources ~requests ~seed ~client:id ()
    in
    if pinned then Workload.pin ~sources:hot_sources s else s
  in
  let journeys = chaos_journeys ~seed in
  let rep =
    Churn.run ~faults:[ (chaos_victim, fault_plan) ] ~policy:(chaos_policy seed) ~journeys
      ~sampler_interval_ns:0 ~config:cfg ~spec ()
  in
  let r = rep.Churn.result in
  let rs = rep.Churn.resilience in
  let oc = rep.Churn.outcomes in
  let availability =
    if oc.Churn.issued = 0 then 1.0
    else float_of_int oc.Churn.granted /. float_of_int oc.Churn.issued
  in
  let reclaim_bound = 2 * cfg.Server.resilience.Server.lease_ttl in
  let checks =
    [
      (r.Runtime.Agg.violations = 0, "uniqueness violation");
      (r.Runtime.Agg.leaked = 0, "leaked leases after settle");
      (rep.Churn.outstanding = 0, "names still outstanding");
      ( rs.Server.reclaimed = 0 || rs.Server.reclaim_max_scans <= reclaim_bound,
        "reclaim exceeded 2 lease TTLs" );
      (availability >= 0.90, "availability below 0.90");
      ( (match rep.Churn.journeys with
        | Some j -> Obs.Journey.unexplained_tail j = None
        | None -> false),
        "unexplained tail (p100 without a captured journey)" );
    ]
  in
  let failed = List.filter (fun (ok, _) -> not ok) checks in
  {
    co_seed = seed;
    co_fault = fault;
    co_violations = r.Runtime.Agg.violations;
    co_leaked = r.Runtime.Agg.leaked;
    co_outstanding = rep.Churn.outstanding;
    co_reclaimed = rs.Server.reclaimed;
    co_reclaim_scans = rs.Server.reclaim_max_scans;
    co_deaths = rs.Server.deaths;
    co_availability = availability;
    co_settle = rep.Churn.settle_scans;
    co_ok = failed = [];
    co_msg = String.concat "; " (List.map snd failed);
  }

let run_chaos ?(seeds = default_seeds) ?requests () =
  List.concat_map
    (fun seed -> List.map (fun f -> run_chaos_one ?requests seed f) chaos_faults)
    seeds

let chaos_ok outcomes =
  outcomes <> []
  && List.for_all (fun o -> o.co_ok) outcomes
  (* a matrix where no client ever died proves the reclaimer nothing *)
  && List.exists (fun o -> o.co_deaths > 0) outcomes

let chaos_clean ?(requests = 1500) ~seed () =
  let spec id =
    Workload.server_churn ~theta:0.45 ~s:chaos_sources ~requests ~seed ~client:id ()
  in
  Churn.run ~policy:(chaos_policy seed) ~journeys:(chaos_journeys ~seed)
    ~sampler_interval_ns:0 ~config:chaos_config ~spec ()

let pp_chaos_outcome ppf o =
  if o.co_ok then
    Fmt.pf ppf
      "%-16s seed %-8d ok   avail %.3f, %d reclaimed (<=%d scans), %d deaths"
      (chaos_fault_name o.co_fault)
      o.co_seed o.co_availability o.co_reclaimed o.co_reclaim_scans o.co_deaths
  else
    Fmt.pf ppf "%-16s seed %-8d FAILED: %s (avail %.3f, outstanding %d)"
      (chaos_fault_name o.co_fault)
      o.co_seed o.co_msg o.co_availability o.co_outstanding

let chaos_outcome_json o =
  Printf.sprintf
    {|{"fault":%S,"seed":%d,"ok":%b,"violations":%d,"leaked":%d,"outstanding":%d,"reclaimed":%d,"reclaim_scans":%d,"deaths":%d,"availability":%.4f,"settle_scans":%d,"msg":%S}|}
    (chaos_fault_name o.co_fault)
    o.co_seed o.co_ok o.co_violations o.co_leaked o.co_outstanding o.co_reclaimed
    o.co_reclaim_scans o.co_deaths o.co_availability o.co_settle
    o.co_msg

let chaos_fault_summary_json outcomes fault =
  let runs = List.filter (fun o -> o.co_fault = fault) outcomes in
  let fold f init = List.fold_left f init runs in
  Printf.sprintf
    {|{"fault":%S,"runs":%d,"ok":%b,"min_availability":%.4f,"reclaimed":%d,"max_reclaim_scans":%d,"deaths":%d}|}
    (chaos_fault_name fault) (List.length runs)
    (List.for_all (fun o -> o.co_ok) runs)
    (fold (fun m o -> Float.min m o.co_availability) 1.0)
    (fold (fun s o -> s + o.co_reclaimed) 0)
    (fold (fun m o -> max m o.co_reclaim_scans) 0)
    (fold (fun s o -> s + o.co_deaths) 0)

let chaos_report_json ~seeds outcomes =
  let min_avail =
    List.fold_left (fun m o -> Float.min m o.co_availability) 1.0 outcomes
  in
  Printf.sprintf
    {|{"schema":"renaming.chaos/v1","matrix_size":%d,"ok":%b,"chaos_availability":%.4f,"faults":[%s],"runs":[%s]}|}
    (List.length seeds) (chaos_ok outcomes) min_avail
    (String.concat "," (List.map (chaos_fault_summary_json outcomes) chaos_faults))
    (String.concat "," (List.map chaos_outcome_json outcomes))
