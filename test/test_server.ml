(* The sharded name server: routing, warm-cache legality, batched
   release survival across the join, and fault-campaign pressure. *)

module Agg = Runtime.Agg

let cfg ?(shards = 4) ?(k = 4) ?(warm = 2) ?(batch = 8) ?(clients = 2) ?(s = 1024) ()
    =
  Server.default_config ~shards ~k_per_shard:k ~warm_capacity:warm ~batch ~clients
    ~source_space:s ()
  |> fun c -> { c with Server.shards; k_per_shard = k }

(* --- shard routing --- *)

(* The source-only route every client used before routing was
   client-affine: a single client must still route exactly so. *)
let source_route ~shards src =
  if shards = 1 then 0
  else begin
    let h = ref (src * 0x9E3779B97F4A7C1) in
    h := (!h lxor (!h lsr 30)) * 0xBF58476D1CE4E5B land max_int;
    h := (!h lxor (!h lsr 27)) * 0x94D049BB133111E land max_int;
    (!h lxor (!h lsr 31)) mod shards
  end

let test_routing () =
  List.iter
    (fun (clients, shards) ->
      let geo = Printf.sprintf "%d clients on %d shards" clients shards in
      let c = cfg ~shards ~clients () in
      let a = Server.create c and b = Server.create c in
      let owners = Array.make shards [] in
      for id = 0 to clients - 1 do
        for src = 0 to c.Server.source_space - 1 do
          let sa = Server.shard_of a (Server.client a id) ~src in
          Alcotest.(check int) (geo ^ ": stable") sa
            (Server.shard_of a (Server.client a id) ~src);
          Alcotest.(check int) (geo ^ ": same route on a fresh instance") sa
            (Server.shard_of b (Server.client b id) ~src);
          Alcotest.(check int) (geo ^ ": same route without a server") sa
            (Server.shard_route ~shards ~clients ~client:id ~src);
          Alcotest.(check bool) (geo ^ ": in range") true (sa >= 0 && sa < shards);
          if not (List.mem id owners.(sa)) then owners.(sa) <- id :: owners.(sa)
        done
      done;
      Array.iteri
        (fun sh ids ->
          Alcotest.(check bool) (Printf.sprintf "%s: shard %d owned" geo sh) true (ids <> []);
          if clients <= shards then
            Alcotest.(check int) (Printf.sprintf "%s: shard %d has one owner" geo sh) 1
              (List.length ids))
        owners;
      if clients = 1 then
        for src = 0 to c.Server.source_space - 1 do
          Alcotest.(check int) (geo ^ ": one client routes by source") (source_route ~shards src)
            (Server.shard_of a (Server.client a 0) ~src)
        done)
    [ (1, 1); (1, 4); (2, 4); (3, 4); (4, 4); (2, 5); (3, 2); (4, 2); (5, 3) ]

(* --- single-client service basics (sequential, deterministic) --- *)

let test_warm_hit () =
  let t = Server.create (cfg ~clients:1 ()) in
  let c = Server.client t 0 in
  (match Server.acquire t c ~src:7 with
  | Server.Granted g ->
      Alcotest.(check bool) "first grant is cold" false g.warm;
      Alcotest.(check bool) "cold grant costs accesses" true (g.accesses > 0);
      Server.release t c ~token:g.token
  | _ -> Alcotest.fail "first acquire not granted");
  (match Server.acquire t c ~src:7 with
  | Server.Granted g ->
      Alcotest.(check bool) "re-acquire is warm" true g.warm;
      Alcotest.(check int) "warm grant is free" 0 g.accesses;
      Server.release t c ~token:g.token
  | _ -> Alcotest.fail "re-acquire not granted");
  Server.flush t c;
  Alcotest.(check int) "all names returned" 0 (Server.outstanding t);
  let r = Agg.result (Server.scoreboard t) in
  Alcotest.(check int) "no violations" 0 r.Agg.violations

let test_busy_and_shed () =
  let t = Server.create (cfg ~shards:1 ~k:1 ~clients:2 ()) in
  let c0 = Server.client t 0 and c1 = Server.client t 1 in
  let g0 =
    match Server.acquire t c0 ~src:3 with
    | Server.Granted { token; _ } -> token
    | _ -> Alcotest.fail "c0 not granted"
  in
  (match Server.acquire t c1 ~src:3 with
  | Server.Busy -> ()
  | _ -> Alcotest.fail "claimed source must be Busy");
  (match Server.acquire t c0 ~src:4 with
  | Server.Shed -> ()
  | _ -> Alcotest.fail "full shard must Shed");
  Server.release t c0 ~token:g0;
  (* src 3 is warm in c0's cache: still claimed *)
  (match Server.acquire t c1 ~src:3 with
  | Server.Busy -> ()
  | _ -> Alcotest.fail "warm-cached source must stay Busy");
  Server.flush t c0;
  (match Server.acquire t c1 ~src:3 with
  | Server.Granted g -> Server.release t c1 ~token:g.token
  | _ -> Alcotest.fail "flushed source must be grantable");
  Server.flush t c1;
  Alcotest.(check int) "drained" 0 (Server.outstanding t)

let test_batch_drain () =
  let t = Server.create (cfg ~shards:1 ~k:4 ~warm:0 ~batch:3 ~clients:1 ()) in
  let c = Server.client t 0 in
  let grant src =
    match Server.acquire t c ~src with
    | Server.Granted g -> g.token
    | _ -> Alcotest.fail "not granted"
  in
  let t1 = grant 1 and t2 = grant 2 and t3 = grant 3 in
  Server.release t c ~token:t1;
  Server.release t c ~token:t2;
  Alcotest.(check int) "two releases still pending" 3 (Server.outstanding t);
  Server.release t c ~token:t3;
  (* the third release trips the batch and drains all three *)
  Alcotest.(check int) "batch drained" 0 (Server.outstanding t);
  let stats = Server.client_stats c in
  Alcotest.(check int) "one drain" 1 stats.Server.drains;
  Alcotest.(check int) "three releases executed" 3 stats.Server.drained_releases

let test_double_release_rejected () =
  let t = Server.create (cfg ~clients:1 ()) in
  let c = Server.client t 0 in
  match Server.acquire t c ~src:5 with
  | Server.Granted g ->
      Server.release t c ~token:g.token;
      Alcotest.check_raises "double release"
        (Invalid_argument "Server.release: not a token this client holds")
        (fun () -> Server.release t c ~token:g.token)
  | _ -> Alcotest.fail "not granted"

(* A released lease the server still holds pending is its owner's to
   take back: the same name and token, warm, at 0 accesses, with no
   protocol cycle and no change in what the server holds.  Any other
   client is still Busy on its source. *)
let test_pending_regrant () =
  let t = Server.create (cfg ~shards:1 ~k:4 ~warm:0 ~batch:8 ~clients:2 ()) in
  let c0 = Server.client t 0 and c1 = Server.client t 1 in
  let src = 11 in
  let name, token =
    match Server.acquire t c0 ~src with
    | Server.Granted g -> (g.name, g.token)
    | _ -> Alcotest.fail "first acquire not granted"
  in
  Server.release t c0 ~token;
  let held = Server.outstanding t in
  (match Server.acquire t c1 ~src with
  | Server.Busy -> ()
  | _ -> Alcotest.fail "another client's pending lease must be Busy");
  (match Server.acquire t c0 ~src with
  | Server.Granted g ->
      Alcotest.(check bool) "re-grant is warm" true g.warm;
      Alcotest.(check int) "re-grant is free" 0 g.accesses;
      Alcotest.(check int) "same name" name g.name;
      Alcotest.(check int) "same token" token g.token;
      Alcotest.(check int) "nothing more held" held (Server.outstanding t);
      (match Server.acquire t c1 ~src with
      | Server.Busy -> ()
      | _ -> Alcotest.fail "another client must stay Busy");
      Server.release t c0 ~token:g.token
  | _ -> Alcotest.fail "own pending lease not re-granted");
  Server.flush t c0;
  let stats = Server.client_stats c0 in
  Alcotest.(check int) "counted as a warm hit" 1 stats.Server.warm_hits;
  Alcotest.(check int) "all names returned" 0 (Server.outstanding t);
  let r = Agg.result (Server.scoreboard t) in
  Alcotest.(check int) "no violations" 0 r.Agg.violations;
  Alcotest.(check int) "nothing leaked" 0 r.Agg.leaked

(* Every census is a count of the shard's fences.  Step by step, the
   probes must match a hand count of the fence states: held, warm
   (in the owner's cache) and pending (awaiting a drain) are all
   admitted; only FREE fences are free. *)
let test_probe_census () =
  let t = Server.create (cfg ~shards:1 ~k:4 ~warm:1 ~batch:8 ~clients:1 ()) in
  let c = Server.client t 0 in
  let expect step ~held ~warm ~pending =
    let p = Server.probe_shard t 0 in
    let admitted = held + warm + pending in
    Alcotest.(check int) (step ^ ": admitted") admitted p.Server.admitted;
    Alcotest.(check int) (step ^ ": pending") pending p.Server.pending;
    Alcotest.(check int) (step ^ ": warm") warm p.Server.warm;
    Alcotest.(check int) (step ^ ": outstanding") admitted (Server.outstanding t);
    Alcotest.(check int) (step ^ ": free") (4 - admitted) (Server.probe_free t);
    List.iter
      (fun (src : Obs.Sampler.source) ->
        let want =
          match src.name with
          | "shard0.admitted" -> Some admitted
          | "shard0.pending" -> Some pending
          | "shard0.warm" -> Some warm
          | "slab.free" -> Some (4 - admitted)
          | _ -> None
        in
        Option.iter (fun w -> Alcotest.(check int) (step ^ ": " ^ src.name) w (src.read ()))
          want)
      (Server.sampler_sources t)
  in
  let grant src =
    match Server.acquire t c ~src with
    | Server.Granted g -> g.token
    | _ -> Alcotest.fail "not granted"
  in
  expect "empty" ~held:0 ~warm:0 ~pending:0;
  let a = grant 1 in
  let b = grant 2 in
  let d = grant 3 in
  expect "three granted" ~held:3 ~warm:0 ~pending:0;
  Server.release t c ~token:a;
  expect "one warm" ~held:2 ~warm:1 ~pending:0;
  (* the cache holds one: caching b evicts a to pending *)
  Server.release t c ~token:b;
  expect "one pended" ~held:1 ~warm:1 ~pending:1;
  (* a is re-granted from its slot, b from the cache *)
  let a = grant 1 in
  expect "pending re-granted" ~held:2 ~warm:1 ~pending:0;
  let b = grant 2 in
  expect "warm re-granted" ~held:3 ~warm:0 ~pending:0;
  List.iter (fun token -> Server.release t c ~token) [ a; b; d ];
  expect "all released" ~held:0 ~warm:1 ~pending:2;
  Server.flush t c;
  expect "flushed" ~held:0 ~warm:0 ~pending:0

(* A warm cycle allocates nothing: the grant is built once per slot at
   cold grant, and release, tend, the warm-cache lookup and the
   re-grant of a pending lease are allocation-free.  Two inputs: warm
   hits from the cache (default config), and re-grants of pending
   leases (warm cache off, batch above k, so releases stay pending).
   The budget of 0.01 words per cycle leaves room only for the
   measurement itself. *)
let test_warm_path_allocation_free () =
  let cycles_on label config =
    let t = Server.create config in
    let c = Server.client t 0 in
    List.iter
      (fun src ->
        match Server.acquire t c ~src with
        | Server.Granted g -> Server.release t c ~token:g.token
        | _ -> Alcotest.fail "priming acquire not granted")
      [ 1; 2 ];
    let cycles = 10_000 in
    let warm = ref 0 in
    let w0 = Gc.minor_words () in
    for i = 0 to cycles - 1 do
      Server.tend t c;
      match Server.acquire t c ~src:(1 + (i land 1)) with
      | Server.Granted g ->
          if g.warm && g.accesses = 0 then incr warm;
          Server.release t c ~token:g.token
      | Server.Busy | Server.Shed -> ()
    done;
    let words = Gc.minor_words () -. w0 in
    Alcotest.(check int) (label ^ ": every grant warm at 0 accesses") cycles !warm;
    if words /. float_of_int cycles >= 0.01 then
      Alcotest.failf "%s: warm cycle allocates %.3f minor words" label
        (words /. float_of_int cycles);
    Server.flush t c;
    Alcotest.(check int) (label ^ ": all names returned") 0 (Server.outstanding t)
  in
  cycles_on "warm cache" (Server.default_config ~clients:1 ~source_space:64 ());
  cycles_on "pending re-grant" (cfg ~shards:1 ~k:4 ~warm:0 ~batch:8 ~clients:1 ~s:64 ())

(* A cold cycle allocates only its outcome values: the [Any] lease box
   (4 words), the slot's [Some lease] (2) and two [Granted] records (5
   each: the one returned and the warm one kept for the slot).  The
   protocol lease is an int, the per-request ops are re-bound rather
   than copied, and the registry handles are resolved once — all with
   the registry on. *)
let test_cold_path_allocation () =
  let registry = Obs.Registry.create () in
  let t =
    Server.create ~registry
      (Server.default_config ~warm_capacity:0 ~clients:1 ~source_space:4096 ())
  in
  let c = Server.client t 0 in
  let cycle i =
    match Server.acquire t c ~src:(i land 4095) with
    | Server.Granted g ->
        if g.warm then Alcotest.fail "warm grant with the warm cache off";
        Server.release t c ~token:g.token
    | Server.Busy | Server.Shed -> Alcotest.fail "solo cold acquire refused"
  in
  for i = 0 to 4095 do
    cycle i
  done;
  let cycles = 20_000 in
  let w0 = Gc.minor_words () in
  for i = 0 to cycles - 1 do
    cycle i
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int cycles in
  if words > 16. then Alcotest.failf "cold cycle allocates %.2f minor words" words;
  Server.flush t c;
  Alcotest.(check int) "all names returned" 0 (Server.outstanding t)

(* Whether a token is held is read off the slot's owner and fence:
   another client's token is rejected, and a reclaimed client's late
   release is fenced, not rejected. *)
let test_release_fencing () =
  let config = cfg ~shards:2 ~k:4 ~warm:2 ~clients:2 ~s:64 () in
  let t = Server.create config in
  let c0 = Server.client t 0 and c1 = Server.client t 1 in
  let token =
    match Server.acquire t c1 ~src:5 with
    | Server.Granted g -> g.token
    | _ -> Alcotest.fail "c1 not granted"
  in
  Alcotest.check_raises "another client's token"
    (Invalid_argument "Server.release: not a token this client holds")
    (fun () -> Server.release t c0 ~token);
  (* client 1 goes silent past the lease TTL and is reclaimed *)
  let ttl = config.Server.resilience.Server.lease_ttl in
  for _ = 1 to ttl + 2 do
    Server.scan t c0
  done;
  let rs = Server.resilience_stats t in
  Alcotest.(check int) "one death declared" 1 rs.Server.deaths;
  Alcotest.(check int) "held lease reclaimed" 1 rs.Server.reclaimed;
  Alcotest.(check int) "nothing outstanding" 0 (Server.outstanding t);
  let fenced = (Server.client_stats c1).Server.fenced in
  Server.release t c1 ~token;
  Alcotest.(check int) "late release fenced" (fenced + 1)
    (Server.client_stats c1).Server.fenced;
  Alcotest.(check int) "fenced release retires nothing" 0 (Server.outstanding t);
  (match Server.acquire t c1 ~src:5 with
  | Server.Granted g ->
      Alcotest.(check bool) "re-granted cold" false g.warm;
      Server.release t c1 ~token:g.token
  | _ -> Alcotest.fail "a reclaimed source must be grantable");
  Server.flush t c1;
  (* A re-sync in another call fences the tokens out at that moment
     just the same: here c1 re-syncs in an acquire, on another shard,
     before it releases the reclaimed token. *)
  let grant src =
    match Server.acquire t c1 ~src with
    | Server.Granted g -> g.token
    | _ -> Alcotest.fail "c1 not granted"
  in
  let old = grant 7 in
  Server.tend t c1;
  for _ = 1 to ttl + 2 do
    Server.scan t c0
  done;
  Alcotest.(check int) "second death declared" 2 (Server.resilience_stats t).Server.deaths;
  let fresh = grant 8 in
  Alcotest.(check int) "the fresh grant reuses the reclaimed slot"
    (Server.token_slot ~token:old) (Server.token_slot ~token:fresh);
  let fenced = (Server.client_stats c1).Server.fenced in
  Server.release t c1 ~token:old;
  Alcotest.(check int) "late release after a re-sync fenced" (fenced + 1)
    (Server.client_stats c1).Server.fenced;
  Server.release t c1 ~token:fresh;
  Alcotest.check_raises "releasing it again is a misuse"
    (Invalid_argument "Server.release: not a token this client holds")
    (fun () -> Server.release t c1 ~token:old);
  Server.flush t c1;
  let rs = Server.resilience_stats t in
  let r = Agg.result ~reclaimed:rs.Server.reclaimed (Server.scoreboard t) in
  Alcotest.(check int) "no violations" 0 r.Agg.violations;
  Alcotest.(check int) "no leaks" 0 r.Agg.leaked

(* --- warm-cache uniqueness with a concurrent stealer --- *)

(* Both clients on one shard, in rounds that start behind a gate:
   each round both ask for the hot name 64 times, and whichever gets
   it first keeps it warm for the rest of the round while the other is
   refused; both flush at the round's end, handing the name back.  The
   stealer plays rounds (at least 32, at most 5,000) until it has been
   both refused and granted the name, so the two really raced.  Rounds
   keep the name changing hands even when the host runs both domains on
   one core, where a holder is descheduled still holding the name. *)
let test_warm_vs_stealer () =
  let config = cfg ~shards:1 ~k:3 ~warm:2 ~batch:4 ~clients:2 ~s:64 () in
  let t = Server.create config in
  let hot = 11 in
  let arrived = Atomic.make 0 and stop = Atomic.make false in
  (* the gate of round [r]: both clients have arrived at it *)
  let gate r =
    Atomic.incr arrived;
    while Atomic.get arrived < 2 * r do
      Domain.cpu_relax ()
    done
  in
  let rounds id ~on_cycle ~after_round =
    Domain.spawn (fun () ->
        let c = Server.client t id in
        let r = ref 1 in
        while
          gate !r;
          not (Atomic.get stop)
        do
          for _ = 1 to 64 do
            on_cycle
              (match Server.acquire t c ~src:hot with
              | Server.Granted g ->
                  Server.release t c ~token:g.token;
                  true
              | Server.Busy | Server.Shed ->
                  Domain.cpu_relax ();
                  false)
          done;
          Server.flush t c;
          after_round !r;
          incr r
        done)
  in
  let owner = rounds 0 ~on_cycle:ignore ~after_round:ignore in
  let stolen = ref 0 and refused = ref 0 in
  let stealer =
    rounds 1
      ~on_cycle:(fun granted -> if granted then incr stolen else incr refused)
      ~after_round:(fun r ->
        if r >= 5_000 || (r >= 32 && !stolen > 0 && !refused > 0) then
          Atomic.set stop true)
  in
  Domain.join owner;
  Domain.join stealer;
  Server.drain_all t (Server.client t 0);
  let r = Agg.result (Server.scoreboard t) in
  Alcotest.(check int) "uniqueness holds under warm hits + stealing" 0
    r.Agg.violations;
  Alcotest.(check int) "nothing leaked" 0 r.Agg.leaked;
  Alcotest.(check int) "nothing outstanding" 0 (Server.outstanding t);
  let owner_stats = Server.client_stats (Server.client t 0) in
  Alcotest.(check bool) "owner got warm hits" true (owner_stats.Server.warm_hits > 0);
  Alcotest.(check bool) "the stealer was refused" true (!refused > 0);
  Alcotest.(check bool) "the stealer was granted" true (!stolen > 0)

(* --- batched releases survive the join --- *)

let test_join_drain () =
  (* batch far above anything the run trips: releases pile up pending
     and must all be retired by the post-join drain *)
  let config = cfg ~shards:2 ~k:4 ~warm:1 ~batch:1_000_000 ~clients:3 ~s:256 () in
  let report =
    Churn.run ~config
      ~spec:(fun client ->
        Workload.server_churn ~s:256 ~requests:500 ~seed:42 ~client ())
      ()
  in
  Alcotest.(check int) "no violations" 0 report.Churn.result.Agg.violations;
  Alcotest.(check int) "no leaks after drain" 0 report.Churn.outstanding;
  Alcotest.(check int) "scoreboard agrees" 0 report.Churn.result.Agg.leaked;
  Alcotest.(check bool) "cycles completed" true (report.Churn.cycles > 0);
  (* warm hits re-grant a lease the server still holds, so protocol
     releases must match *cold* grants exactly *)
  Alcotest.(check int) "every cold grant eventually released"
    (report.Churn.acquires - report.Churn.warm_hits)
    report.Churn.drained_releases

(* --- a fault campaign aimed at one shard --- *)

let test_fault_campaign_one_shard () =
  let s = 32 in
  (* all four clients, victims and survivors, share the one shard.  The
     two victims can hold all three of its slots, and a survivor's
     requests go nowhere else until the reclaimer frees them, so
     requests arrive at 10k/s per client: a run then lasts 30 ms, past
     the reclaimer's 8 scans at 1 ms.  Scans are paced at 1 ms only if
     the seat holder checks its seat on every tend: at the default of
     every 32 tends (16 requests, 1.6 ms) a seat stolen from the
     crashed victim and 9 scans could land after a survivor's last
     request. *)
  let config = cfg ~shards:1 ~k:3 ~warm:1 ~batch:4 ~clients:4 ~s () in
  let config =
    {
      config with
      Server.resilience = { config.Server.resilience with Server.tend_every = 1 };
    }
  in
  let probe = Server.create config in
  for id = 0 to config.Server.clients - 1 do
    for src = 0 to s - 1 do
      Alcotest.(check int) "every client routes to shard 0" 0
        (Server.shard_of probe (Server.client probe id) ~src)
    done
  done;
  let plan = Result.get_ok (Sim.Faults.of_string "crash@p1:acc40,park@p3:acc1") in
  let faults = Churn.of_plan plan in
  let report =
    Churn.run ~config ~faults
      ~spec:(fun client ->
        {
          Workload.requests = 300;
          source = Workload.zipf ~s ~seed:7 ~stream:client ();
          arrival = (fun i -> float_of_int i *. 1e-4);
          think = 0;
        })
      ()
  in
  Alcotest.(check int) "uniqueness survives the campaign" 0
    report.Churn.result.Agg.violations;
  (* the healthy clients (0 and 2) finished their requests *)
  Alcotest.(check bool) "healthy clients progressed" true
    (report.Churn.result.Agg.cycles_done.(0) > 0
    && report.Churn.result.Agg.cycles_done.(2) > 0);
  (* the crashed client's warm lease leaks, and is *visible* as a leak *)
  Alcotest.(check int) "leak accounting agrees" report.Churn.result.Agg.leaked
    report.Churn.outstanding

(* --- crash-tolerant reclamation --- *)

let test_reclaim_crashed_client () =
  let config = cfg ~shards:2 ~k:4 ~warm:2 ~clients:2 ~s:64 () in
  let t = Server.create config in
  let c0 = Server.client t 0 and c1 = Server.client t 1 in
  (* client 1 holds one lease, caches another warm, then crashes *)
  (match Server.acquire t c1 ~src:5 with
  | Server.Granted _ -> ()
  | _ -> Alcotest.fail "c1 not granted");
  (match Server.acquire t c1 ~src:9 with
  | Server.Granted g -> Server.release t c1 ~token:g.token
  | _ -> Alcotest.fail "c1 not granted a warm lease");
  Alcotest.(check bool) "leases outstanding" true (Server.outstanding t > 0);
  (match Server.acquire t c0 ~src:5 with
  | Server.Busy -> ()
  | _ -> Alcotest.fail "a corpse's held source is still Busy");
  let ttl = config.Server.resilience.Server.lease_ttl in
  for _ = 1 to ttl + 2 do
    Server.scan t c0
  done;
  let rs = Server.resilience_stats t in
  Alcotest.(check int) "one death declared" 1 rs.Server.deaths;
  Alcotest.(check int) "held + warm leases reclaimed" 2 rs.Server.reclaimed;
  Alcotest.(check int) "nothing outstanding after reclaim" 0 (Server.outstanding t);
  Alcotest.(check bool) "reclaim bounded by the lease TTL" true
    (rs.Server.reclaim_max_scans <= 2 * ttl);
  (* the reclaimed sources serve again, on the shard they route to *)
  (match Server.acquire t c0 ~src:5 with
  | Server.Granted g -> Server.release t c0 ~token:g.token
  | _ -> Alcotest.fail "a reclaimed source must be grantable");
  Server.flush t c0;
  let r = Agg.result ~reclaimed:rs.Server.reclaimed (Server.scoreboard t) in
  Alcotest.(check int) "no violations" 0 r.Agg.violations;
  Alcotest.(check int) "leaks reconciled by reclaim" 0 r.Agg.leaked

(* All of a stress test's domains start together, so the races it
   names really overlap. *)
let start_gate n =
  let ready = Atomic.make 0 in
  fun () ->
    Atomic.incr ready;
    while Atomic.get ready < n do
      Domain.cpu_relax ()
    done

(* After a stress run's join: scan and drain until nothing is
   outstanding. *)
let settle t =
  let c0 = Server.client t 0 in
  let settle = ref 0 in
  while Server.outstanding t > 0 && !settle < 64 do
    incr settle;
    Server.scan t c0;
    Server.drain_all t c0
  done

let sum_stats t ids f =
  List.fold_left (fun a id -> a + f (Server.client_stats (Server.client t id))) 0 ids

let test_drain_reclaim_race () =
  (* regression: pending slots drained by a live drainer while the
     reclaimer drains the same shard must retire each exactly once.  A
     double retirement frees a slot twice or double-releases on the
     scoreboard — both visible below.  The scanner also races liveness
     itself: the churners tend, but on an oversubscribed host they
     still get declared dead under the short TTL, so the false-expiry
     path (epoch fence + re-sync) is exercised too. *)
  let config = cfg ~shards:1 ~k:4 ~warm:1 ~batch:2 ~clients:3 ~s:32 () in
  let t = Server.create config in
  let gate = start_gate 3 in
  let churn id cycles =
    Domain.spawn (fun () ->
        let c = Server.client t id in
        gate ();
        let seed = ref (id + 1) in
        for _ = 1 to cycles do
          seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
          (match Server.acquire t c ~src:(!seed mod 32) with
          | Server.Granted g -> Server.release t c ~token:g.token
          | Server.Busy | Server.Shed -> ());
          Server.tend t c
        done;
        Server.flush t c)
  in
  let d0 = churn 0 20_000 and d1 = churn 1 20_000 in
  let scanner =
    Domain.spawn (fun () ->
        let c = Server.client t 2 in
        gate ();
        for _ = 1 to 400 do
          Server.scan t c;
          Server.drain_all t c
        done)
  in
  Domain.join d0;
  Domain.join d1;
  Domain.join scanner;
  (* witnesses, read before the settle adds drains of its own: Busy
     needs both churners live at once, and a scanner drain retires
     leases it never held *)
  let busy = sum_stats t [ 0; 1 ] (fun s -> s.Server.busy) in
  let cross = (Server.client_stats (Server.client t 2)).Server.drained_releases in
  settle t;
  let rs = Server.resilience_stats t in
  let r = Agg.result ~reclaimed:rs.Server.reclaimed (Server.scoreboard t) in
  Alcotest.(check int) "no violations under drain/reclaim races" 0 r.Agg.violations;
  Alcotest.(check int) "every slot retired exactly once" 0 (Server.outstanding t);
  Alcotest.(check int) "scoreboard agrees" 0 r.Agg.leaked;
  Alcotest.(check bool) "the churners overlapped (Busy) or the scanner drained theirs"
    true (busy > 0 || cross > 0)

(* Admission is taking a FREE fence of the shard's range.  Two
   churners on one shard of k = 2 each hold two names at a time and
   cache one warm, so the range is often full: a grant then flushes
   its own warm leases, drains and retries, and sheds while the other
   churner holds both slots.  Batch 2 <= k, so releases also trip the
   fence-counted drain.  A scanner runs the reclaimer and [drain_all]
   beside them. *)
let test_admission_contention () =
  let config = cfg ~shards:1 ~k:2 ~warm:1 ~batch:2 ~clients:3 ~s:32 () in
  let t = Server.create config in
  let gate = start_gate 3 in
  let churn id cycles =
    Domain.spawn (fun () ->
        let c = Server.client t id in
        gate ();
        let seed = ref (id + 1) in
        let grant src =
          match Server.acquire t c ~src with
          | Server.Granted g -> g.token
          | Server.Busy | Server.Shed -> -1
        in
        let release token = if token >= 0 then Server.release t c ~token in
        for _ = 1 to cycles do
          seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
          let src = (!seed lsr 8) land 31 in
          let a = grant src in
          let b = grant ((src + 1) land 31) in
          release a;
          release b;
          Server.tend t c
        done;
        Server.flush t c)
  in
  let d0 = churn 0 10_000 and d1 = churn 1 10_000 in
  let scanner =
    Domain.spawn (fun () ->
        let c = Server.client t 2 in
        gate ();
        for _ = 1 to 400 do
          Server.scan t c;
          Server.drain_all t c
        done)
  in
  Domain.join d0;
  Domain.join d1;
  Domain.join scanner;
  let shed = sum_stats t [ 0; 1 ] (fun s -> s.Server.shed) in
  let drains = sum_stats t [ 0; 1; 2 ] (fun s -> s.Server.drains) in
  settle t;
  let rs = Server.resilience_stats t in
  let r = Agg.result ~reclaimed:rs.Server.reclaimed (Server.scoreboard t) in
  Alcotest.(check int) "no violations under admission races" 0 r.Agg.violations;
  Alcotest.(check int) "nothing outstanding after flush" 0 (Server.outstanding t);
  Alcotest.(check int) "scoreboard agrees" 0 r.Agg.leaked;
  Alcotest.(check int) "every slot free" 2 (Server.probe_free t);
  Alcotest.(check bool) "a full range shed a grant" true (shed > 0);
  Alcotest.(check bool) "releases were drained" true (drains > 0)

(* Owners re-granting their pending leases race drains by the other
   churner (batch 4 trips once all four slots are pending) and by a
   scanner running the reclaimer and [drain_all].  Each pending lease
   must go exactly one way: re-granted, drained or reclaimed.  With the
   warm cache off, every warm hit is a re-grant, so [warm_hits > 0]
   shows the path ran under the race. *)
let test_regrant_drain_race () =
  let config = cfg ~shards:1 ~k:4 ~warm:0 ~batch:4 ~clients:3 ~s:32 () in
  let t = Server.create config in
  let gate = start_gate 3 in
  let churn id cycles =
    Domain.spawn (fun () ->
        let c = Server.client t id in
        gate ();
        let seed = ref (id + 1) in
        for _ = 1 to cycles do
          seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
          (match Server.acquire t c ~src:((!seed lsr 8) land 7) with
          | Server.Granted g -> Server.release t c ~token:g.token
          | Server.Busy | Server.Shed -> ());
          Server.tend t c
        done;
        Server.flush t c)
  in
  let d0 = churn 0 20_000 and d1 = churn 1 20_000 in
  let scanner =
    Domain.spawn (fun () ->
        let c = Server.client t 2 in
        gate ();
        for _ = 1 to 400 do
          Server.scan t c;
          Server.drain_all t c
        done)
  in
  Domain.join d0;
  Domain.join d1;
  Domain.join scanner;
  settle t;
  let rs = Server.resilience_stats t in
  let r = Agg.result ~reclaimed:rs.Server.reclaimed (Server.scoreboard t) in
  Alcotest.(check int) "no violations under re-grant/drain races" 0 r.Agg.violations;
  Alcotest.(check int) "every slot retired exactly once" 0 (Server.outstanding t);
  Alcotest.(check int) "scoreboard agrees" 0 r.Agg.leaked;
  let sum = sum_stats t [ 0; 1; 2 ] in
  let acquires = sum (fun s -> s.Server.acquires)
  and warm_hits = sum (fun s -> s.Server.warm_hits)
  and drained = sum (fun s -> s.Server.drained_releases) in
  (* as in "releases survive the join": a re-grant retires nothing, so
     protocol releases match cold grants; a churner the scanner falsely
     declares dead on a busy host has its leases retired by reclaim *)
  Alcotest.(check int) "every cold grant retired once" (acquires - warm_hits)
    (drained + rs.Server.reclaimed);
  Alcotest.(check bool) "pending leases were re-granted" true (warm_hits > 0)

(* --- wedged drains, judged by lease identity --- *)

(* One client on one shard, driven only by [Server.scan]: no domain, no
   tend, so the scanner never judges its own heartbeat.  At batch 8 > k
   a released lease stays PENDING until some drain retires it. *)
let test_wedged_drain_identity () =
  let stale = Server.default_resilience.Server.drain_stale in
  let heals t = (Server.resilience_stats t).Server.drain_heals in
  let grant t c src =
    match Server.acquire t c ~src with
    | Server.Granted g -> g.token
    | _ -> Alcotest.fail "not granted"
  in
  (* one lease parked PENDING is healed once, [drain_stale] scans after
     the scan that first saw it *)
  let t = Server.create (cfg ~shards:1 ~k:1 ~warm:0 ~batch:8 ~clients:1 ~s:8 ()) in
  let c = Server.client t 0 in
  Server.release t c ~token:(grant t c 3);
  for _ = 0 to stale - 1 do
    Server.scan t c
  done;
  Alcotest.(check int) "not healed before drain_stale scans" 0 (heals t);
  Alcotest.(check int) "still pending" 1 (Server.outstanding t);
  Server.scan t c;
  Alcotest.(check int) "healed" 1 (heals t);
  Alcotest.(check bool) "the healing scan judged the shard wedged" true
    (Server.health t 0 = Server.Health.Wedged);
  Alcotest.(check int) "the heal drained it" 0 (Server.outstanding t);
  for _ = 1 to 3 * stale do
    Server.scan t c
  done;
  Alcotest.(check int) "healed exactly once" 1 (heals t);
  Alcotest.(check bool) "live again" true (Server.health t 0 = Server.Health.Live);
  (* the seat scans every millisecond, so a scan allocates nothing *)
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    Server.scan t c
  done;
  let words = Gc.minor_words () -. w0 in
  if words >= 10. then Alcotest.failf "a scan allocates %.1f minor words" words;
  (* the shard's one slot always holds one PENDING lease at a scan, but
     a new one each time: each acquire of the other source finds the
     range full, drains the old lease and grants a new one.  The
     pending count reads 1 at every scan; the lease never repeats. *)
  let t = Server.create (cfg ~shards:1 ~k:1 ~warm:0 ~batch:8 ~clients:1 ~s:8 ()) in
  let c = Server.client t 0 in
  for r = 1 to 4 * stale do
    Server.release t c ~token:(grant t c (r land 1));
    Alcotest.(check int) "one lease pending" 1 (Server.outstanding t);
    Server.scan t c
  done;
  Alcotest.(check int) "a replaced lease is never healed" 0 (heals t);
  Alcotest.(check int) "each acquire drained the last lease" (4 * stale - 1)
    (Server.client_stats c).Server.drained_releases;
  Server.flush t c;
  let r = Agg.result (Server.scoreboard t) in
  Alcotest.(check int) "no violations" 0 r.Agg.violations;
  Alcotest.(check int) "nothing leaked" 0 r.Agg.leaked

(* --- bare protocol runs: the one-shard, cold-only server --- *)

(* The victim dies holding the name of its third request; the settle
   epilogue's reclaimer must bring that one name back. *)
let test_bare_crash_reclaimed () =
  let report =
    Churn.run_bare
      ~faults:[ (1, Churn.Crash { request = 2 }) ]
      ~k:3 ~s:8 ~pids:[| 1; 2; 3 |] ~cycles:50 ()
  in
  let r = report.Churn.result in
  Alcotest.(check int) "no violations" 0 r.Agg.violations;
  Alcotest.(check int) "victim completed 2 cycles" 2 r.Agg.cycles_done.(1);
  Alcotest.(check int) "client 0 finished" 50 r.Agg.cycles_done.(0);
  Alcotest.(check int) "client 2 finished" 50 r.Agg.cycles_done.(2);
  Alcotest.(check int) "the held name reclaimed" 1 r.Agg.reclaimed;
  Alcotest.(check int) "nothing leaked" 0 r.Agg.leaked;
  Alcotest.(check int) "nothing outstanding" 0 report.Churn.outstanding

(* Server rings record every cold grant as an acquisition, so the
   structural analysis of a churn run checks real work, and every
   protocol release is recorded under the client that owns the lease,
   whichever client retires it, so each client's grants and releases
   pair up. *)
let check_ring label ring ~clients ~cold =
  Alcotest.(check int) (label ^ ": nothing dropped") 0 (Obs.Flight.dropped ring);
  Alcotest.(check bool) (label ^ ": cold grants happened") true (cold > 0);
  let items = Obs.Flight.items ring in
  let a = Obs.Analyze.analyze items in
  Alcotest.(check int) (label ^ ": one acquisition per cold grant") cold
    (List.length a.Obs.Analyze.acquisitions);
  Alcotest.(check (list string)) (label ^ ": structural bounds hold") []
    (Obs.Analyze.check a);
  let count pid ev =
    List.length (List.filter (fun (r : Obs.Flight.record) -> r.pid = pid && ev r.event) items)
  in
  for pid = 0 to clients - 1 do
    Alcotest.(check int)
      (Printf.sprintf "%s: client %d's grants all released under it" label pid)
      (count pid (function Obs.Flight.Acquired _ -> true | _ -> false))
      (count pid (function Obs.Flight.Released _ -> true | _ -> false))
  done

(* Warm caching off and batch 1: each release is retired by its own
   client. *)
let test_flight_ring_analyzable () =
  let ring = Obs.Flight.create () in
  let config = cfg ~shards:2 ~k:3 ~warm:0 ~batch:1 ~clients:3 ~s:64 () in
  let report =
    Churn.run ~flight:ring ~sampler_interval_ns:0 ~config
      ~spec:(fun client -> Workload.server_churn ~s:64 ~requests:100 ~seed:5 ~client ())
      ()
  in
  check_ring "own retirement" ring ~clients:3
    ~cold:(report.Churn.acquires - report.Churn.warm_hits);
  (* The defaults (warm 2, batch 8) with two clients on one shard, in
     turn: client 0's releases go warm, then pending as its cache
     evicts them, and client 1's drains retire them.  Client 1 keeps
     one name of its own, so the shard of k = 4 never fills and client
     0 never drains for admission. *)
  let ring = Obs.Flight.create () in
  let t = Server.create ~flight:ring (cfg ~shards:1 ~clients:2 ~s:64 ()) in
  let c0 = Server.client t 0 and c1 = Server.client t 1 in
  let cycle c src =
    match Server.acquire t c ~src with
    | Server.Granted g -> Server.release t c ~token:g.token
    | _ -> Alcotest.fail "scripted acquire refused"
  in
  for i = 0 to 19 do
    cycle c0 (i mod 8);
    Server.drain_all t c1;
    cycle c1 32
  done;
  Alcotest.(check int) "client 0 drained nothing" 0
    (Server.client_stats c0).Server.drained_releases;
  Alcotest.(check bool) "client 1 drained client 0's releases" true
    ((Server.client_stats c1).Server.drained_releases > 0);
  Server.flush t c0;
  Server.flush t c1;
  Alcotest.(check int) "all names returned" 0 (Server.outstanding t);
  Server.merge_flight t;
  let cold =
    sum_stats t [ 0; 1 ] (fun s -> s.Server.acquires - s.Server.warm_hits)
  in
  check_ring "cross-client drains" ring ~clients:2 ~cold

let () =
  Alcotest.run "server"
    [
      ( "routing",
        [ Alcotest.test_case "client-affine, stable, every shard owned" `Quick test_routing ] );
      ( "service",
        [
          Alcotest.test_case "warm hit is free" `Quick test_warm_hit;
          Alcotest.test_case "busy and shed" `Quick test_busy_and_shed;
          Alcotest.test_case "batched drain" `Quick test_batch_drain;
          Alcotest.test_case "double release rejected" `Quick test_double_release_rejected;
          Alcotest.test_case "own pending lease re-granted" `Quick test_pending_regrant;
          Alcotest.test_case "probes count fences" `Quick test_probe_census;
          Alcotest.test_case "warm path allocates nothing" `Quick
            test_warm_path_allocation_free;
          Alcotest.test_case "cold path allocates <= 16 words per cycle" `Quick
            test_cold_path_allocation;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "warm cache vs stealer" `Quick test_warm_vs_stealer;
          Alcotest.test_case "releases survive the join" `Quick test_join_drain;
          Alcotest.test_case "fault campaign on one shard" `Quick
            test_fault_campaign_one_shard;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "crashed client reclaimed" `Quick
            test_reclaim_crashed_client;
          Alcotest.test_case "release fenced after reclaim" `Quick test_release_fencing;
          Alcotest.test_case "drain vs reclaim exactly-once" `Quick
            test_drain_reclaim_race;
          Alcotest.test_case "re-grant vs drain vs reclaim" `Quick
            test_regrant_drain_race;
          Alcotest.test_case "admission under contention" `Quick
            test_admission_contention;
          Alcotest.test_case "wedged drain judged by lease identity" `Quick
            test_wedged_drain_identity;
        ] );
      ( "bare",
        [
          Alcotest.test_case "crash holding is reclaimed" `Quick test_bare_crash_reclaimed;
          Alcotest.test_case "flight ring analyzable" `Quick test_flight_ring_analyzable;
        ] );
    ]
