(* The closed-loop driver: the benchmark's own client domains calling
   [Server] directly, each waiting for its own reply.  One request is
   [tend], then [acquire], then [release] when the name was granted.
   The only clock reads in the untraced loop are the benchmark's: one
   per request, its completion stamp doubling as the next request's
   issue stamp. *)

type gen = Uniform | Own_pair | Zipf of float

type workload = {
  name : string;
  clients : int;
  source_space : int;
  gen : gen;
  registry : bool;
  why : string;
}

let workloads =
  [
    {
      name = "cold-solo";
      clients = 1;
      source_space = 65536;
      gen = Uniform;
      registry = false;
      why =
        "one client, uniform sources: every request is a cold grant through SPLIT with no \
         cross-core traffic, so protocol, store and allocation changes show here";
    };
    {
      name = "warm-pair";
      clients = 2;
      source_space = 65536;
      gen = Own_pair;
      registry = false;
      why =
        "two clients re-requesting their own two names: warm hits with zero protocol accesses \
         isolate the server's own code and its cross-core traffic";
    };
    {
      name = "zipf-pair-obs";
      clients = 2;
      source_space = 4096;
      gen = Zipf 0.99;
      registry = true;
      why =
        "two clients sharing Zipf-hot names with the metrics registry on: claims collide \
         (Busy), admission drains across clients, and only this workload pays for Obs";
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

let gen_label = function
  | Uniform -> "uniform"
  | Own_pair -> "own-pair"
  | Zipf theta -> Printf.sprintf "zipf(theta=%g)" theta

(* ----- inputs, made before any server exists ----- *)

let stream_len = 1 lsl 16

let sources w ~seed =
  match w.gen with
  | Uniform ->
      Array.init w.clients (fun id ->
          let g = Gen.stream ~seed ~id in
          Array.init stream_len (fun _ -> Gen.int g w.source_space))
  | Own_pair ->
      (* two names per client, distinct across clients, alternated *)
      let g = Gen.stream ~seed ~id:0 in
      let names = Array.make (2 * w.clients) (-1) in
      let n = ref 0 in
      while !n < Array.length names do
        let s = Gen.int g w.source_space in
        if not (Array.mem s names) then begin
          names.(!n) <- s;
          incr n
        end
      done;
      Array.init w.clients (fun id ->
          Array.init stream_len (fun i -> names.((2 * id) + (i land 1))))
  | Zipf theta ->
      let z = Gen.zipf ~n:w.source_space ~theta in
      Array.init w.clients (fun id ->
          let g = Gen.stream ~seed ~id in
          Array.init stream_len (fun _ -> Gen.zipf_draw z g))

(* ----- the server under test ----- *)

(* [Server.default_config] with one change: a client is declared dead
   after 1000 silent scans (1 s) instead of 8 (8 ms).  On a shared host
   a client domain descheduled for 8 ms looks dead, and reclaiming a
   live client can wedge the server: both clients stop making progress
   while admission counts only 13 of 16 slots in use (reproduced on
   every zipf-pair-obs run with lease_ttl = 1 and 0.1 ms scans).  A
   clean run must not depend on that path. *)
let config w =
  Server.default_config
    ~resilience:{ Server.default_resilience with lease_ttl = 1000 }
    ~clients:w.clients ~source_space:w.source_space ()

(* Thm 2: a SPLIT get_name makes at most 7(k-1) shared accesses. *)
let max_cold_accesses (cfg : Server.config) = 7 * (cfg.k_per_shard - 1)

let create ?backend w =
  let registry = if w.registry then Some (Obs.Registry.create ()) else None in
  Server.create ?registry ?backend (config w)

(* ----- per-client results ----- *)

type out = {
  cycles : int array;  (* granted cycles completed in each epoch *)
  hists : Hist.t array;  (* latency of granted requests, per epoch *)
  mutable requests : int;  (* issued inside the window *)
  mutable granted : int;
  mutable warm : int;
  mutable busy : int;
  mutable shed : int;
  mutable bad : int;  (* grants that failed an output check, whole run *)
  mutable first_bad : string;
  mutable words : float;  (* minor words allocated inside the window *)
  mutable minor_gcs : int;  (* minor collections (all domains) inside the window *)
  mutable w_start : int;
  mutable w_stop : int;
  mutable drains : int;
  mutable drained : int;
}

let new_out epochs =
  {
    cycles = Array.make epochs 0;
    hists = Array.init epochs (fun _ -> Hist.create ());
    requests = 0;
    granted = 0;
    warm = 0;
    busy = 0;
    shed = 0;
    bad = 0;
    first_bad = "";
    words = 0.;
    minor_gcs = 0;
    w_start = 0;
    w_stop = 0;
    drains = 0;
    drained = 0;
  }

let note_bad o msg =
  o.bad <- o.bad + 1;
  if o.first_bad = "" then o.first_bad <- msg

let check_grant o ~name_space ~max_acc ~name ~warm ~accesses =
  if name < 0 || name >= name_space then
    note_bad o (Printf.sprintf "name %d outside [0,%d)" name name_space)
  else if warm && accesses <> 0 then
    note_bad o (Printf.sprintf "warm grant of %d made %d accesses" name accesses)
  else if (not warm) && accesses > max_acc then
    note_bad o (Printf.sprintf "cold grant of %d made %d > %d accesses" name accesses max_acc)

let minor_collections () = (Gc.quick_stat ()).minor_collections

(* ----- the untraced loop ----- *)

let closed_loop srv c srcs o ~max_acc ~t_start ~deadline ~epoch_ns =
  let mask = Array.length srcs - 1 in
  let name_space = Server.name_space srv in
  let last_epoch = Array.length o.hists - 1 in
  let i = ref 0 in
  let t_prev = ref (Clock.now ()) in
  let in_window = ref false in
  let words0 = ref 0. and gcs0 = ref 0 in
  while !t_prev < deadline do
    if (not !in_window) && !t_prev >= t_start then begin
      in_window := true;
      o.w_start <- !t_prev;
      gcs0 := minor_collections ();
      words0 := Gc.minor_words ()
    end;
    let src = Array.unsafe_get srcs (!i land mask) in
    incr i;
    Server.tend srv c;
    let outcome =
      match Server.acquire srv c ~src with
      | Server.Granted { name; token; warm; accesses } ->
          check_grant o ~name_space ~max_acc ~name ~warm ~accesses;
          Server.release srv c ~token;
          if warm then 1 else 0
      | Server.Busy -> 2
      | Server.Shed -> 3
    in
    let t = Clock.now () in
    if !in_window && t < deadline then begin
      o.requests <- o.requests + 1;
      match outcome with
      | 0 | 1 ->
          let e = min last_epoch ((t - t_start) / epoch_ns) in
          Hist.record o.hists.(e) (t - !t_prev);
          o.cycles.(e) <- o.cycles.(e) + 1;
          o.granted <- o.granted + 1;
          if outcome = 1 then o.warm <- o.warm + 1
      | 2 -> o.busy <- o.busy + 1
      | _ -> o.shed <- o.shed + 1
    end;
    t_prev := t
  done;
  o.words <- Gc.minor_words () -. !words0;
  o.minor_gcs <- minor_collections () - !gcs0;
  o.w_stop <- deadline

(* ----- the traced loop -----

   Same requests, each call wrapped in a span.  Tracing switches on at
   [t_start] and the window closes for every client as soon as one
   recorder runs out of room ([stop]).  A holder table of the
   benchmark's own checks uniqueness from outside the server. *)

let traced_loop srv c srcs o (tr : Trace.t) holders stop ~id ~clients ~slots ~max_acc ~t_start
    ~deadline =
  let mask = Array.length srcs - 1 in
  let name_space = Server.name_space srv in
  let i = ref 0 in
  let t_prev = ref (Clock.now ()) in
  let in_window = ref false in
  let stats0 = ref (Server.client_stats c) in
  let running = ref true in
  while !running do
    if !t_prev >= deadline || Atomic.get stop then running := false
    else if !in_window && not (Trace.has_room tr ~slots) then begin
      Atomic.set stop true;
      running := false
    end
    else begin
      if (not !in_window) && !t_prev >= t_start then begin
        in_window := true;
        tr.on <- true;
        o.w_start <- !t_prev;
        stats0 := Server.client_stats c
      end;
      let src = Array.unsafe_get srcs (!i land mask) in
      tr.req_id <- (!i * clients) + id;
      incr i;
      let s = Trace.open_span tr in
      Server.tend srv c;
      Trace.close_span tr s Trace.tend 0;
      let s = Trace.open_span tr in
      (match Server.acquire srv c ~src with
      | Server.Granted { name; token; warm; accesses } ->
          Trace.close_span tr s (if warm then Trace.acquire_warm else Trace.acquire_cold) 0;
          check_grant o ~name_space ~max_acc ~name ~warm ~accesses;
          if Atomic.fetch_and_add holders.(name) 1 <> 0 then
            note_bad o (Printf.sprintf "name %d granted while another client holds it" name);
          Atomic.decr holders.(name);
          let s = Trace.open_span tr in
          Server.release srv c ~token;
          Trace.close_span tr s Trace.release 0;
          if !in_window then begin
            o.granted <- o.granted + 1;
            if warm then o.warm <- o.warm + 1
          end
      | Server.Busy ->
          Trace.close_span tr s Trace.acquire_refused 0;
          if !in_window then o.busy <- o.busy + 1
      | Server.Shed ->
          Trace.close_span tr s Trace.acquire_refused 0;
          if !in_window then o.shed <- o.shed + 1);
      if !in_window then o.requests <- o.requests + 1;
      t_prev := Clock.now ()
    end
  done;
  tr.on <- false;
  if !in_window then begin
    o.w_stop <- !t_prev;
    let s1 = Server.client_stats c in
    o.drains <- s1.drains - !stats0.drains;
    o.drained <- s1.drained_releases - !stats0.drained_releases
  end

(* ----- phases ----- *)

let epoch_s = 0.1
let epochs_of seconds = max 1 (int_of_float (Float.round (seconds /. epoch_s)))

(* A client still running this long after the deadline is stuck: the
   run reports what the server looked like and exits rather than hang. *)
let grace_ns = 20_000_000_000

let stuck srv outs =
  Printf.eprintf "stuck: clients still running %d s after the deadline\n" (grace_ns / 1_000_000_000);
  Array.iteri
    (fun id o -> Printf.eprintf "  client %d: %d requests, %d granted\n" id o.requests o.granted)
    outs;
  for sh = 0 to Server.shards srv - 1 do
    let p = Server.probe_shard srv sh in
    Printf.eprintf "  shard %d: admitted %d pending %d warm %d health %s\n" sh p.admitted p.pending
      p.warm
      (Server.Health.to_string (Server.health srv sh))
  done;
  Printf.eprintf "  free slots %d, claims held %d\n%!" (Server.probe_free srv) (Server.probe_claims srv);
  exit 3

(* Clients start together: every domain warms up until [t_start], the
   same stamp for all, then measures until [deadline]. *)
let run_clients w srv ~warmup_s ~seconds body =
  let t_start = Clock.now () + int_of_float (warmup_s *. 1e9) in
  let deadline = t_start + int_of_float (seconds *. 1e9) in
  let outs = Array.init w.clients (fun _ -> new_out (epochs_of seconds)) in
  let finished = Atomic.make 0 in
  let domains =
    Array.init w.clients (fun id ->
        Domain.spawn (fun () ->
            body id outs.(id) ~t_start ~deadline;
            Atomic.incr finished))
  in
  while Atomic.get finished < w.clients do
    if Clock.now () > deadline + grace_ns then stuck srv outs;
    Unix.sleepf 0.01
  done;
  Array.iter Domain.join domains;
  outs

(* Each client's first requests are issued in client order from the
   main domain before any client domain starts, so which slab slots
   (and so which cache lines) each client holds does not depend on a
   start-up race between domains. *)
let prime w srv srcs =
  let cfg = config w in
  Array.iteri
    (fun id s ->
      let c = Server.client srv id in
      for i = 0 to cfg.warm_capacity - 1 do
        match Server.acquire srv c ~src:s.(i) with
        | Server.Granted { token; _ } -> Server.release srv c ~token
        | Server.Busy | Server.Shed -> ()
      done)
    srcs

let untraced_phase w srv srcs ~warmup_s ~seconds =
  let max_acc = max_cold_accesses (config w) in
  prime w srv srcs;
  let epoch_ns = int_of_float (seconds *. 1e9) / epochs_of seconds in
  run_clients w srv ~warmup_s ~seconds (fun id o ~t_start ~deadline ->
      let c = Server.client srv id in
      closed_loop srv c srcs.(id) o ~max_acc ~t_start ~deadline ~epoch_ns;
      Server.flush srv c)

let traced_phase w srv srcs ~recorders ~warmup_s ~seconds =
  let cfg = config w in
  let max_acc = max_cold_accesses cfg in
  let slots = cfg.shards * cfg.k_per_shard in
  let holders = Array.init (Server.name_space srv) (fun _ -> Atomic.make 0) in
  let stop = Atomic.make false in
  prime w srv srcs;
  run_clients w srv ~warmup_s ~seconds (fun id o ~t_start ~deadline ->
      let c = Server.client srv id in
      let tr = recorders.(id) in
      Trace.install tr;
      traced_loop srv c srcs.(id) o tr holders stop ~id ~clients:w.clients ~slots ~max_acc
        ~t_start ~deadline;
      Server.flush srv c)

(* ----- after the join ----- *)

(* The server's documented epilogue: drain what clients left pending,
   then scan + drain at most 2 lease TTLs + 2 times while anything is
   still outstanding.  Returns the scans it took. *)
let settle srv (cfg : Server.config) =
  let c0 = Server.client srv 0 in
  Server.drain_all srv c0;
  let budget = (2 * cfg.resilience.lease_ttl) + 2 in
  let n = ref 0 in
  while Server.outstanding srv > 0 && !n < budget do
    incr n;
    Server.scan srv c0;
    Server.drain_all srv c0
  done;
  !n

(* Every output check; the empty list on a correct run. *)
let failures srv outs =
  let r = Runtime.Agg.result (Server.scoreboard srv) in
  let fs = ref [] in
  let fail s = fs := s :: !fs in
  if r.violations > 0 then
    fail
      (Printf.sprintf "%d uniqueness violations: %s" r.violations
         (Option.value r.first_violation ~default:"?"));
  Array.iteri
    (fun id o ->
      if o.bad > 0 then fail (Printf.sprintf "client %d: %d bad grants, first: %s" id o.bad o.first_bad))
    outs;
  if Server.outstanding srv <> 0 then
    fail (Printf.sprintf "%d names still outstanding after settling" (Server.outstanding srv));
  if r.leaked <> 0 then fail (Printf.sprintf "%d names leaked" r.leaked);
  List.rev !fs

let sum f outs = Array.fold_left (fun a o -> a + f o) 0 outs
