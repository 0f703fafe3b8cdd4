(* The sharded name server: routing, warm-cache legality, release
   survival across the join, and fault-campaign pressure. *)

module Agg = Runtime.Agg

let cfg ?(shards = 4) ?(k = 4) ?(warm = 2) ?(clients = 2) ?(s = 1024) () =
  Server.default_config ~shards ~k_per_shard:k ~warm_capacity:warm ~clients ~source_space:s ()
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

(* Every census is a count of the shard's fences.  Step by step, the
   probes must match a hand count of the fence states: held and warm
   (in the owner's cache) are admitted; only FREE fences are free, and
   a lease evicted from the cache is FREE again at once. *)
let test_probe_census () =
  let t = Server.create (cfg ~shards:1 ~k:4 ~warm:1 ~clients:1 ()) in
  let c = Server.client t 0 in
  let expect step ~held ~warm =
    let p = Server.probe_shard t 0 in
    let admitted = held + warm in
    Alcotest.(check int) (step ^ ": admitted") admitted p.Server.admitted;
    Alcotest.(check int) (step ^ ": warm") warm p.Server.warm;
    Alcotest.(check int) (step ^ ": outstanding") admitted (Server.outstanding t);
    Alcotest.(check int) (step ^ ": free") (4 - admitted) (Server.probe_free t);
    List.iter
      (fun (src : Obs.Sampler.source) ->
        let want =
          match src.name with
          | "shard0.admitted" -> Some admitted
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
  expect "empty" ~held:0 ~warm:0;
  let a = grant 1 in
  let b = grant 2 in
  let d = grant 3 in
  expect "three granted" ~held:3 ~warm:0;
  Server.release t c ~token:a;
  expect "one warm" ~held:2 ~warm:1;
  (* the cache holds one: caching b evicts a, which retires *)
  Server.release t c ~token:b;
  expect "one evicted" ~held:1 ~warm:1;
  (* a is granted afresh, b from the cache *)
  let a = grant 1 in
  expect "evicted granted cold" ~held:2 ~warm:1;
  let b = grant 2 in
  expect "warm re-granted" ~held:3 ~warm:0;
  List.iter (fun token -> Server.release t c ~token) [ a; b; d ];
  expect "all released" ~held:0 ~warm:1;
  Server.flush t c;
  expect "flushed" ~held:0 ~warm:0;
  Alcotest.(check (list string)) "no parked-lease series" []
    (List.filter_map
       (fun (src : Obs.Sampler.source) ->
         if Filename.check_suffix src.name ".pending" then Some src.name else None)
       (Server.sampler_sources t))

(* A warm cycle allocates nothing: the grant is built once per slot at
   cold grant, and release, tend and the warm-cache lookup are
   allocation-free.  The budget of 0.01 words per cycle leaves room
   only for the measurement itself. *)
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
  cycles_on "warm cache" (Server.default_config ~clients:1 ~source_space:64 ())

(* A cold cycle allocates nothing.  The int SPLIT lease is kept
   unboxed in the shard's lease table, the slot's warm grant and the
   reply returned both come from its reply cache, the per-request ops
   are re-bound rather than copied, and the registry handles are
   resolved once — all with the registry on.  The budget is the warm
   cycle's. *)
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
  if words >= 0.01 then Alcotest.failf "cold cycle allocates %.4f minor words" words;
  Server.flush t c;
  Alcotest.(check int) "all names returned" 0 (Server.outstanding t)

(* SPLIT whose [get_name] counts its own register accesses, as
   perfbench's traced backend does, and keeps the name it took.  Each
   caller's ops get a counting wrapper of their own, built once, so a
   counted grant allocates nothing.  An armed [hook] runs once, just
   before the [hook_at]-th access of the next [get_name]: another
   client's request then lands between two of its steps, as on a host
   that deschedules a client mid-protocol. *)
module Counted = struct
  module S = Renaming.Split
  module Store = Shared_mem.Store

  type t = {
    split : S.t;
    mutable wrapped : (Store.ops * (Store.ops * Store.counter)) list;
    mutable hook : unit -> unit;
    mutable hook_at : int;
    mutable accesses : int;  (* the last [get_name]'s *)
    mutable name : int;  (* the name the last [get_name] took *)
  }

  type lease = S.lease

  let name_space t = S.name_space t.split
  let name_of t l = S.name_of t.split l

  let tick t =
    if t.hook_at > 0 then begin
      t.hook_at <- t.hook_at - 1;
      if t.hook_at = 0 then begin
        let h = t.hook in
        t.hook <- ignore;
        h ()
      end
    end

  let wrap t ops =
    let counter = Store.counter () in
    let w = Store.counting counter ops in
    ( Store.make ~pid:w.pid ~probe:w.probe
        ~read:(fun cell ->
          tick t;
          Store.read w cell)
        ~write:(fun cell v ->
          tick t;
          Store.write w cell v)
        ~rmw:w.rmw
        (),
      counter )

  let rec wrapper t ops = function
    | (o, w) :: _ when o == ops -> w
    | _ :: rest -> wrapper t ops rest
    | [] ->
        let w = wrap t ops in
        t.wrapped <- (ops, w) :: t.wrapped;
        w

  let get_name t (ops : Store.ops) =
    let w, counter = wrapper t ops t.wrapped in
    Store.set_pid w ops.pid;
    Store.reset counter;
    let l = S.get_name t.split w in
    t.accesses <- Store.accesses counter;
    t.name <- S.name_of t.split l;
    l

  let release_name t ops l = S.release_name t.split ops l
  let reset_footprint = Option.map (fun f t ops l -> f t.split ops l) S.reset_footprint
end

(* A cold reply may be a cached value, and must still be exactly the
   grant's.  Two clients on one shard, with the warm cache off, hold up
   to k − 1 names between them, taken and given back in a seeded order;
   half the grants have the other client's next request land in the
   middle of their protocol run, so SPLIT's names and access counts
   vary from grant to grant.  After warm-up every reply must equal a
   freshly built [Granted] of the name the protocol took (the scoreboard
   records the same) and the accesses the counting backend saw, and the
   cold cycle must allocate (almost) nothing.  Then client 1 is declared
   dead and re-syncs: its replies must carry its new epoch's tokens,
   which it can release. *)
let test_cold_replies () =
  let counted = ref None in
  let backend layout ~stage ~k =
    let b =
      {
        Counted.split = Renaming.Split.create ~stage layout ~k;
        wrapped = [];
        hook = ignore;
        hook_at = 0;
        accesses = -1;
        name = -1;
      }
    in
    counted := Some b;
    Renaming.Protocol.Any.pack (module Counted) b
  in
  let k = 4 in
  let t = Server.create ~backend (cfg ~shards:1 ~k ~warm:0 ~clients:2 ~s:64 ()) in
  let b = Option.get !counted in
  let clients = [| Server.client t 0; Server.client t 1 |] in
  let held = Array.make_matrix 2 k (-1) and held_n = Array.make 2 0 in
  (* per client and slot, the token of its grants in the current epoch *)
  let tokens = Array.make_matrix 2 k (-1) in
  let taken = Array.make (Server.name_space t) false in
  let names = Array.make (Server.name_space t) false in
  let accesses = Array.make 256 false in
  let seed = ref 7 in
  let bad = ref 0 and grants = ref 0 and fresh = ref false and other = ref 0 in
  let next () =
    seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
    !seed lsr 8
  in
  (* [busy] is 1 inside a hook, where the other client's grant is under
     way: counting it, the shard's k slots always admit this one *)
  let rec step ~busy id =
    let r = next () in
    let c = clients.(id) in
    if busy + held_n.(0) + held_n.(1) < k - 1 && (held_n.(id) = 0 || r land 1 = 0) then begin
      if busy = 0 && r land 2 = 0 then begin
        other := 1 - id;
        b.hook_at <- 1 + ((r lsr 2) land 15);
        b.hook <- interrupt
      end;
      match Server.acquire t c ~src:((32 * id) + ((r lsr 6) land 31)) with
      | Server.Granted g as reply ->
          b.hook_at <- 0;
          incr grants;
          let slot = Server.token_slot ~token:g.token in
          if g.warm || g.name <> b.name || g.accesses <> b.accesses || slot >= k then incr bad
          else begin
            if tokens.(id).(slot) < 0 then tokens.(id).(slot) <- g.token
            else if tokens.(id).(slot) <> g.token then incr bad;
            taken.(g.name) <- true;
            if !fresh then begin
              names.(g.name) <- true;
              accesses.(min 255 g.accesses) <- true;
              if
                reply
                <> Server.Granted
                     { name = b.name; token = g.token; warm = false; accesses = b.accesses }
              then incr bad
            end
          end;
          held.(id).(held_n.(id)) <- g.token;
          held_n.(id) <- held_n.(id) + 1
      | Server.Busy -> b.hook_at <- 0 (* the client holds that source already *)
      | Server.Shed -> incr bad
    end
    else if held_n.(id) > 0 then begin
      let j = (r lsr 2) mod held_n.(id) in
      let token = held.(id).(j) in
      held_n.(id) <- held_n.(id) - 1;
      held.(id).(j) <- held.(id).(held_n.(id));
      Server.release t c ~token
    end
  and interrupt () = step ~busy:1 !other in
  let steps n =
    for _ = 1 to n do
      step ~busy:0 (next () land 1)
    done
  in
  let count a = Array.fold_left (fun n x -> if x then n + 1 else n) 0 a in
  steps 20_000;
  let g0 = !grants and w0 = Gc.minor_words () in
  steps 20_000;
  let words = (Gc.minor_words () -. w0) /. float_of_int (!grants - g0) in
  fresh := true;
  steps 5_000;
  Alcotest.(check int) "every reply is its grant" 0 !bad;
  Alcotest.(check bool) "names vary" true (count names > 1);
  Alcotest.(check bool) "access counts vary" true (count accesses > 1);
  if words >= 0.05 then Alcotest.failf "cold cycle allocates %.4f minor words" words;
  (* force client 1's re-sync: it never tends, so client 0's scans
     declare it dead and reclaim what it holds *)
  let scans = ref 0 in
  while (Server.resilience_stats t).Server.deaths = 0 && !scans < 64 do
    Server.scan t clients.(0);
    incr scans
  done;
  Alcotest.(check int) "client 1 declared dead" 1 (Server.resilience_stats t).Server.deaths;
  for j = 0 to held_n.(1) - 1 do
    Server.release t clients.(1) ~token:held.(1).(j)
  done;
  held_n.(1) <- 0;
  let old = Array.copy tokens.(1) in
  Array.fill tokens.(1) 0 k (-1);
  let fenced = (Server.client_stats clients.(1)).Server.fenced in
  steps 5_000;
  Alcotest.(check int) "every reply after the re-sync is its grant" 0 !bad;
  Alcotest.(check int) "no release fenced after the re-sync" fenced
    (Server.client_stats clients.(1)).Server.fenced;
  Array.iteri
    (fun slot tok ->
      if old.(slot) >= 0 && tok >= 0 then
        Alcotest.(check bool)
          (Printf.sprintf "slot %d: a token of the new epoch" slot)
          true (tok <> old.(slot)))
    tokens.(1);
  Alcotest.(check bool) "client 1 granted again" true
    (Array.exists (fun x -> x >= 0) tokens.(1));
  Array.iteri
    (fun id c ->
      for j = 0 to held_n.(id) - 1 do
        Server.release t c ~token:held.(id).(j)
      done)
    clients;
  Alcotest.(check int) "all names returned" 0 (Server.outstanding t);
  let rs = Server.resilience_stats t in
  let res = Agg.result ~reclaimed:rs.Server.reclaimed (Server.scoreboard t) in
  Alcotest.(check int) "no violations" 0 res.Agg.violations;
  Alcotest.(check int) "no leaks" 0 res.Agg.leaked;
  Alcotest.(check (list int)) "the scoreboard holds the names the protocol took"
    (List.filter (fun n -> taken.(n)) (List.init (Array.length taken) Fun.id))
    (List.map fst res.Agg.max_concurrent_by_name)

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

(* --- epoch tokens: a lease that changes epoch without a cold grant --- *)

(* SPLIT whose [get_name] runs a hook once, after the protocol's own
   steps: a scan that runs while a grant is under way, when its slot
   is neither HELD nor WARM, so the scan's reclaim cannot catch it. *)
module Hooked = struct
  type t = { split : Renaming.Split.t; mutable hook : unit -> unit }
  type lease = Renaming.Split.lease

  let name_space t = Renaming.Split.name_space t.split

  let get_name t ops =
    let l = Renaming.Split.get_name t.split ops in
    let h = t.hook in
    t.hook <- ignore;
    h ();
    l

  let name_of t l = Renaming.Split.name_of t.split l
  let release_name t ops l = Renaming.Split.release_name t.split ops l

  let reset_footprint =
    Option.map (fun f t ops l -> f t.split ops l) Renaming.Split.reset_footprint
end

(* One shard of [Hooked], clients 0 and 1.  Client 1's grant of [src]
   runs [lease_ttl + 2] scans of client 0 inside the protocol: client 1
   is declared dead and its epoch bumped, but nothing is reclaimed, so
   it holds the lease across the re-sync that follows. *)
let held_across_resync src =
  let hooked = ref None in
  let backend layout ~stage ~k =
    let h = { Hooked.split = Renaming.Split.create ~stage layout ~k; hook = ignore } in
    hooked := Some h;
    Renaming.Protocol.Any.pack (module Hooked) h
  in
  let config = cfg ~shards:1 ~k:4 ~warm:2 ~clients:2 ~s:64 () in
  let config =
    { config with Server.resilience = { config.Server.resilience with Server.tend_every = 1 } }
  in
  let t = Server.create ~backend config in
  let c0 = Server.client t 0 and c1 = Server.client t 1 in
  let ttl = config.Server.resilience.Server.lease_ttl in
  (Option.get !hooked).Hooked.hook <-
    (fun () ->
      for _ = 1 to ttl + 2 do
        Server.scan t c0
      done);
  let token =
    match Server.acquire t c1 ~src with
    | Server.Granted g -> g.token
    | _ -> Alcotest.fail "not granted"
  in
  let rs = Server.resilience_stats t in
  Alcotest.(check int) "declared dead during its grant" 1 rs.Server.deaths;
  Alcotest.(check int) "the grant under way was not reclaimed" 0 rs.Server.reclaimed;
  (t, c1, token)

let expect_clean t =
  Server.flush t (Server.client t 1);
  Alcotest.(check int) "all names returned" 0 (Server.outstanding t);
  let rs = Server.resilience_stats t in
  let r = Agg.result ~reclaimed:rs.Server.reclaimed (Server.scoreboard t) in
  Alcotest.(check int) "no violations" 0 r.Agg.violations;
  Alcotest.(check int) "no leaks" 0 r.Agg.leaked

(* A lease held across a re-sync that no reclaim caught is released
   into the warm cache under the new epoch, re-granted warm and
   released again: its warm grant must carry the new epoch, or the
   second release is rejected as a token the client does not hold. *)
let test_held_across_resync () =
  let src = 5 in
  let t, c1, token = held_across_resync src in
  Server.tend t c1;
  let fenced = (Server.client_stats c1).Server.fenced in
  Server.release t c1 ~token;
  (match Server.acquire t c1 ~src with
  | Server.Granted g ->
      Alcotest.(check bool) "re-granted warm" true g.warm;
      Alcotest.(check int) "same slot" (Server.token_slot ~token) (Server.token_slot ~token:g.token);
      Alcotest.(check bool) "a token of the new epoch" true (g.token <> token);
      Server.release t c1 ~token:g.token
  | _ -> Alcotest.fail "warm lease not re-granted");
  Alcotest.(check int) "no token fenced" fenced (Server.client_stats c1).Server.fenced;
  expect_clean t

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
  let config = cfg ~shards:1 ~k:3 ~warm:2 ~clients:2 ~s:64 () in
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
  let r = Agg.result (Server.scoreboard t) in
  Alcotest.(check int) "uniqueness holds under warm hits + stealing" 0
    r.Agg.violations;
  Alcotest.(check int) "nothing leaked" 0 r.Agg.leaked;
  Alcotest.(check int) "nothing outstanding" 0 (Server.outstanding t);
  let owner_stats = Server.client_stats (Server.client t 0) in
  Alcotest.(check bool) "owner got warm hits" true (owner_stats.Server.warm_hits > 0);
  Alcotest.(check bool) "the stealer was refused" true (!refused > 0);
  Alcotest.(check bool) "the stealer was granted" true (!stolen > 0)

(* --- releases survive the join --- *)

(* Each client flushes its own warm cache when its requests are done,
   and that alone returns every name: the run's epilogue needs no
   settle scan. *)
let test_join_flush () =
  let config = cfg ~shards:2 ~k:4 ~warm:1 ~clients:3 ~s:256 () in
  let report =
    Churn.run ~config
      ~spec:(fun client ->
        Workload.server_churn ~s:256 ~requests:500 ~seed:42 ~client ())
      ()
  in
  Alcotest.(check int) "no violations" 0 report.Churn.result.Agg.violations;
  Alcotest.(check int) "nothing outstanding after the flushes" 0 report.Churn.outstanding;
  Alcotest.(check int) "no settle scan needed" 0 report.Churn.settle_scans;
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
     the survivors look for a due scan on every tend: at the default of
     every 32 tends (16 requests, 1.6 ms) each survivor looks only
     every 1.6 ms, and the 8 scans could land after a survivor's last
     request. *)
  let config = cfg ~shards:1 ~k:3 ~warm:1 ~clients:4 ~s () in
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

(* No client owns the scans: once client 0 has scanned and stopped,
   every due tend of client 1 wins the next scan's ticket at once. *)
let test_any_client_scans () =
  let config = cfg ~shards:1 ~k:4 ~clients:2 ~s:16 () in
  let config =
    {
      config with
      Server.resilience = { Server.scan_interval_ns = 0; tend_every = 1; lease_ttl = 1000 };
    }
  in
  let t = Server.create config in
  let scans () = (Server.resilience_stats t).Server.scans in
  Server.scan t (Server.client t 0);
  let c1 = Server.client t 1 in
  for i = 1 to 10 do
    let before = scans () in
    Server.tend t c1;
    Alcotest.(check int) (Printf.sprintf "tend %d scans once" i) (before + 1) (scans ())
  done;
  (* scans run every millisecond, so a scan allocates nothing *)
  let w0 = Gc.minor_words () in
  for _ = 1 to 500 do
    Server.scan t c1
  done;
  let words = Gc.minor_words () -. w0 in
  if words >= 10. then Alcotest.failf "a scan allocates %.1f minor words" words

(* All of a stress test's domains start together, so the races it
   names really overlap. *)
let start_gate n =
  let ready = Atomic.make 0 in
  fun () ->
    Atomic.incr ready;
    while Atomic.get ready < n do
      Domain.cpu_relax ()
    done

(* After a stress run's join: scan until nothing is outstanding. *)
let settle t =
  let c0 = Server.client t 0 in
  let settle = ref 0 in
  while Server.outstanding t > 0 && !settle < 64 do
    incr settle;
    Server.scan t c0
  done

let sum_stats t ids f =
  List.fold_left (fun a id -> a + f (Server.client_stats (Server.client t id))) 0 ids

(* A client's per-request counts, access histograms and access arena
   sit in padded blocks of its own: the registry must read those, not
   blocks the server stopped writing.  Two clients share one server and
   a registry; even requests re-ask a source of their own (warm hits),
   odd ones draw from a shared range (cold grants, Busy, and evictions
   that retire at once). *)
let test_hot_metrics_reach_registry () =
  let registry = Obs.Registry.create () in
  let t = Server.create ~registry (cfg ~clients:2 ~s:256 ()) in
  let gate = start_gate 2 in
  let churn id =
    Domain.spawn (fun () ->
        let c = Server.client t id in
        gate ();
        let seed = ref (id + 1) in
        for i = 1 to 5_000 do
          seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
          let src = if i land 1 = 0 then id else 2 + ((!seed lsr 8) land 63) in
          (match Server.acquire t c ~src with
          | Server.Granted g -> Server.release t c ~token:g.token
          | Server.Busy | Server.Shed -> ());
          Server.tend t c
        done;
        Server.flush t c)
  in
  let ds = [ churn 0; churn 1 ] in
  List.iter Domain.join ds;
  let snap = Obs.Registry.snapshot registry in
  let counter n = Option.value ~default:0 (List.assoc_opt n snap.Obs.Registry.counters) in
  let hist_count n =
    match List.assoc_opt n snap.Obs.Registry.histograms with
    | Some h -> h.Obs.Histogram.count
    | None -> 0
  in
  let sum f = sum_stats t [ 0; 1 ] f in
  let acquired = sum (fun s -> s.Server.acquires) in
  let warm = sum (fun s -> s.Server.warm_hits) in
  Alcotest.(check bool) "both paths ran" true (warm > 0 && acquired > warm);
  List.iter
    (fun (name, f) -> Alcotest.(check int) name (sum f) (counter name))
    Server.
      [
        ("server.acquired", fun s -> s.acquires);
        ("server.warm_hits", fun s -> s.warm_hits);
        ("server.busy", fun s -> s.busy);
        ("server.shed", fun s -> s.shed);
        ("server.drains", fun s -> s.drains);
        ("server.fenced", fun s -> s.fenced);
      ];
  Alcotest.(check int) "warm accesses histogram count" warm
    (hist_count "server.acquire.accesses.warm");
  Alcotest.(check int) "cold accesses histogram count" (acquired - warm)
    (hist_count "server.acquire.accesses.cold");
  Alcotest.(check int) "store.* totals"
    (sum (fun s -> s.Server.accesses))
    (counter "store.reads" + counter "store.writes" + counter "store.rmws");
  (* and the histograms the registry reads are the padded ones *)
  List.iter
    (fun id ->
      let sh = Option.get (Server.client_obs (Server.client t id)) in
      let words x = Obj.size (Obj.repr x) + 1 in
      Alcotest.(check bool) "registry holds padded histograms" true
        (List.for_all
           (fun n -> words (Obs.Registry.histogram sh n) >= 2 * Shared_mem.Pad.line_words)
           [ "server.acquire.accesses.cold"; "server.acquire.accesses.warm" ]))
    [ 0; 1 ]

(* An owner evicting a warm lease and a reclaimer taking it race on one
   WARM fence, and exactly one of them may retire it.  Two churners on
   one shard cache one lease each, so nearly every release evicts the
   one before it; a scanner declares them dead after one silent scan
   and reclaims their held and warm leases while they run.  A double
   retirement frees a slot twice or double-releases on the scoreboard,
   and a lost one leaves a name outstanding: each cold grant must be
   retired exactly once, by its owner or by a reclaim.  The churners
   never scan, so the scanner is the only reclaimer. *)
let test_evict_reclaim_race () =
  let config = cfg ~shards:1 ~k:4 ~warm:1 ~clients:3 ~s:32 () in
  let config =
    {
      config with
      Server.resilience = { Server.scan_interval_ns = 0; lease_ttl = 1; tend_every = max_int };
    }
  in
  let t = Server.create config in
  let gate = start_gate 3 in
  let running = Atomic.make 2 in
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
        Server.flush t c;
        Atomic.decr running)
  in
  let d0 = churn 0 20_000 and d1 = churn 1 20_000 in
  let scanner =
    Domain.spawn (fun () ->
        let c = Server.client t 2 in
        gate ();
        while Atomic.get running > 0 do
          Server.scan t c
        done)
  in
  Domain.join d0;
  Domain.join d1;
  Domain.join scanner;
  (* witnesses, read before the settle reclaims anything of its own:
     the reclaimer took leases from live churners, and the churners
     retired leases of their own *)
  let reclaimed = (Server.resilience_stats t).Server.reclaimed in
  let retired = sum_stats t [ 0; 1 ] (fun s -> s.Server.drained_releases) in
  settle t;
  let rs = Server.resilience_stats t in
  let r = Agg.result ~reclaimed:rs.Server.reclaimed (Server.scoreboard t) in
  Alcotest.(check int) "no violations under evict/reclaim races" 0 r.Agg.violations;
  Alcotest.(check int) "every slot retired" 0 (Server.outstanding t);
  Alcotest.(check int) "scoreboard agrees" 0 r.Agg.leaked;
  let sum = sum_stats t [ 0; 1 ] in
  Alcotest.(check int) "every cold grant retired exactly once"
    (sum (fun s -> s.Server.acquires - s.Server.warm_hits))
    (sum (fun s -> s.Server.drained_releases) + rs.Server.reclaimed);
  Alcotest.(check bool) "the reclaimer took leases from live churners" true (reclaimed > 0);
  Alcotest.(check bool) "the churners retired their own" true (retired > 0)

(* Forced false deaths: three live churners on one shard, each tending
   after every request, with a scan at every tend and a client declared
   dead after one scan without a heartbeat.  A churner that misses one
   scan is reclaimed while it runs, re-syncs and carries on, so leases
   are reclaimed through [reset_footprint] from under live holders,
   and stale tokens, evictions and warm releases cross epochs all the
   time.  Every 256th request a churner holds its name until
   two more scans have run (or a spin budget runs out), as a churner
   descheduled while holding would.  Nothing may be violated or
   leaked, and every churner must still be granted names. *)
let test_forced_false_deaths () =
  let config = cfg ~shards:1 ~k:4 ~warm:1 ~clients:3 ~s:32 () in
  let config =
    {
      config with
      Server.resilience = { Server.scan_interval_ns = 0; lease_ttl = 1; tend_every = 1 };
    }
  in
  let t = Server.create config in
  let scans () = (Server.resilience_stats t).Server.scans in
  let gate = start_gate 3 in
  let churn id =
    Domain.spawn (fun () ->
        let c = Server.client t id in
        gate ();
        let seed = ref (id + 1) in
        for i = 1 to 5_000 do
          seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
          (match Server.acquire t c ~src:(!seed mod 32) with
          | Server.Granted g ->
              if i land 255 = 0 then begin
                let s0 = scans () and spins = ref 0 in
                while scans () < s0 + 2 && !spins < 100_000 do
                  incr spins;
                  Domain.cpu_relax ()
                done
              end;
              Server.release t c ~token:g.token
          | Server.Busy | Server.Shed -> ());
          Server.tend t c
        done;
        Server.flush t c)
  in
  List.iter Domain.join (List.map churn [ 0; 1; 2 ]);
  let granted = List.map (fun id -> (Server.client_stats (Server.client t id)).Server.acquires) [ 0; 1; 2 ] in
  let rs = Server.resilience_stats t in
  settle t;
  let rs' = Server.resilience_stats t in
  let r = Agg.result ~reclaimed:rs'.Server.reclaimed (Server.scoreboard t) in
  Alcotest.(check int) "no violations" 0 r.Agg.violations;
  Alcotest.(check int) "nothing outstanding" 0 (Server.outstanding t);
  Alcotest.(check int) "no leaks" 0 r.Agg.leaked;
  Alcotest.(check bool) "false deaths declared" true (rs.Server.deaths > 0);
  Alcotest.(check bool) "leases reclaimed from live clients" true (rs.Server.reclaimed > 0);
  List.iteri
    (fun id n -> Alcotest.(check bool) (Printf.sprintf "client %d granted names" id) true (n > 0))
    granted

(* Admission is taking a FREE fence of the shard's range.  Two
   churners on one shard of k = 2 each hold two names at a time and
   cache one warm, so the range is often full: a grant then retires
   its own warm leases and looks again, and sheds while the other
   churner holds both slots.  A scanner runs the reclaimer beside
   them. *)
let test_admission_contention () =
  let config = cfg ~shards:1 ~k:2 ~warm:1 ~clients:3 ~s:32 () in
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
          Server.scan t c
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
  Alcotest.(check bool) "releases were retired" true (drains > 0)

(* A victim crashes at its first retirement, before it takes the fence
   of the lease it gives up: that lease stays warm under the victim.
   Once the reclaimer has declared the victim dead it retires the lease,
   and nothing leaks. *)
let test_crash_at_retirement () =
  let requests = 300 in
  let config = cfg ~shards:1 ~k:4 ~warm:1 ~clients:3 ~s:32 () in
  let report =
    Churn.run ~config ~sampler_interval_ns:0
      ~faults:[ (1, Churn.Crash_in_drain { drain = 0 }) ]
      ~spec:(fun client -> Workload.server_churn ~s:32 ~requests ~seed:3 ~client ())
      ()
  in
  let r = report.Churn.result and rs = report.Churn.resilience in
  Alcotest.(check bool) "the victim crashed before its last request" true
    (report.Churn.outcomes.Churn.issued < 3 * requests);
  Alcotest.(check int) "no violations" 0 r.Agg.violations;
  Alcotest.(check bool) "the victim was declared dead" true (rs.Server.deaths > 0);
  Alcotest.(check bool) "its leases were reclaimed" true (rs.Server.reclaimed > 0);
  Alcotest.(check int) "nothing outstanding" 0 report.Churn.outstanding;
  Alcotest.(check int) "nothing leaked" 0 r.Agg.leaked

(* --- retirement at once: a lease that leaves the warm cache goes
   straight back to the protocol, retired by the client giving it up --- *)

let grant_token t c src =
  match Server.acquire t c ~src with
  | Server.Granted g -> g.token
  | _ -> Alcotest.failf "source %d not granted" src

let drains c = (Server.client_stats c).Server.drains

let expect_no_violations t =
  let rs = Server.resilience_stats t in
  let r = Agg.result ~reclaimed:rs.Server.reclaimed (Server.scoreboard t) in
  Alcotest.(check int) "no violations" 0 r.Agg.violations;
  Alcotest.(check int) "no leaks" 0 r.Agg.leaked

(* Caching [b] in a cache of one evicts [a], which its client retires
   in the same release: the other client is granted [a]'s source at
   once, while [b] stays Busy for it in the cache. *)
let test_eviction_retires () =
  let t = Server.create (cfg ~shards:1 ~k:4 ~warm:1 ~clients:2 ~s:64 ()) in
  let c0 = Server.client t 0 and c1 = Server.client t 1 in
  let a = grant_token t c0 1 in
  let b = grant_token t c0 2 in
  Server.release t c0 ~token:a;
  (match Server.acquire t c1 ~src:1 with
  | Server.Busy -> ()
  | _ -> Alcotest.fail "a cached source must be Busy");
  Server.release t c0 ~token:b;
  Alcotest.(check int) "the evicted lease retired" 1 (drains c0);
  Alcotest.(check int) "counted as a retired release" 1
    (Server.client_stats c0).Server.drained_releases;
  Alcotest.(check int) "only the cached lease is left" 1 (Server.outstanding t);
  Alcotest.(check int) "one warm slot" 1 (Server.probe_shard t 0).Server.warm;
  (match Server.acquire t c1 ~src:1 with
  | Server.Granted g ->
      Alcotest.(check bool) "granted cold" false g.warm;
      Server.release t c1 ~token:g.token
  | _ -> Alcotest.fail "an evicted source must be grantable at once");
  (match Server.acquire t c1 ~src:2 with
  | Server.Busy -> ()
  | _ -> Alcotest.fail "the cached source must stay Busy");
  Server.flush t c0;
  Server.flush t c1;
  Alcotest.(check int) "all names returned" 0 (Server.outstanding t);
  expect_no_violations t

(* With caching off, every release is retired by its own client before
   it returns, so the source is free for the next client at once. *)
let test_uncached_release_retires () =
  let t = Server.create (cfg ~shards:1 ~k:4 ~warm:0 ~clients:2 ~s:64 ()) in
  let c0 = Server.client t 0 and c1 = Server.client t 1 in
  for i = 1 to 5 do
    (match Server.acquire t c0 ~src:7 with
    | Server.Granted g ->
        Alcotest.(check bool) "every grant cold" false g.warm;
        Server.release t c0 ~token:g.token
    | _ -> Alcotest.fail "c0 not granted");
    Alcotest.(check int) "retired before the release returns" 0 (Server.outstanding t);
    Alcotest.(check int) "one retirement per release" i (drains c0);
    Alcotest.(check int) "nothing warm" 0 (Server.probe_shard t 0).Server.warm;
    Server.release t c1 ~token:(grant_token t c1 7);
    Alcotest.(check int) "the other client's release retired too" i (drains c1)
  done;
  expect_no_violations t

(* A full shard: the grant retires the client's own warm leases on it
   and takes a slot they freed, rather than shedding. *)
let test_full_shard_retires_own_warm () =
  let t = Server.create (cfg ~shards:1 ~k:2 ~warm:2 ~clients:1 ~s:64 ()) in
  let c = Server.client t 0 in
  let a = grant_token t c 1 in
  let b = grant_token t c 2 in
  Server.release t c ~token:a;
  Server.release t c ~token:b;
  Alcotest.(check int) "the range is full of warm leases" 2 (Server.probe_shard t 0).Server.warm;
  (match Server.acquire t c ~src:3 with
  | Server.Granted g ->
      Alcotest.(check bool) "admitted cold" false g.warm;
      Alcotest.(check int) "both warm leases retired" 2 (drains c);
      Alcotest.(check int) "nothing shed" 0 (Server.client_stats c).Server.shed;
      Alcotest.(check int) "only the new lease held" 1 (Server.outstanding t);
      Alcotest.(check int) "nothing warm" 0 (Server.probe_shard t 0).Server.warm;
      Server.release t c ~token:g.token
  | _ -> Alcotest.fail "own warm leases must make room");
  (match Server.acquire t c ~src:1 with
  | Server.Granted g ->
      Alcotest.(check bool) "a retired source comes back cold" false g.warm;
      Server.release t c ~token:g.token
  | _ -> Alcotest.fail "a retired source must be grantable");
  Server.flush t c;
  Alcotest.(check int) "all names returned" 0 (Server.outstanding t);
  expect_no_violations t

(* No client retires a live client's lease: another client's warm
   leases fill the range, so a grant sheds and they stay warm. *)
let test_foreign_warm_untouched () =
  let t = Server.create (cfg ~shards:1 ~k:2 ~warm:2 ~clients:2 ~s:64 ()) in
  let c0 = Server.client t 0 and c1 = Server.client t 1 in
  Server.release t c0 ~token:(grant_token t c0 1);
  Server.release t c0 ~token:(grant_token t c0 2);
  (match Server.acquire t c1 ~src:3 with
  | Server.Shed -> ()
  | _ -> Alcotest.fail "another client's warm leases must not make room");
  (match Server.acquire t c1 ~src:1 with
  | Server.Busy -> ()
  | _ -> Alcotest.fail "another client's warm source must be Busy");
  Alcotest.(check int) "c1 retired nothing" 0 (drains c1);
  Alcotest.(check int) "c0 retired nothing" 0 (drains c0);
  Alcotest.(check int) "both leases still warm" 2 (Server.probe_shard t 0).Server.warm;
  (match Server.acquire t c0 ~src:1 with
  | Server.Granted g ->
      Alcotest.(check bool) "still a warm hit for its owner" true g.warm;
      Server.release t c0 ~token:g.token
  | _ -> Alcotest.fail "owner's warm lease not re-granted");
  Server.flush t c0;
  Alcotest.(check int) "all names returned" 0 (Server.outstanding t);
  expect_no_violations t

(* A client's source it holds is claimed by itself: asking for it again
   is Busy, and takes no slot. *)
let test_own_held_source_busy () =
  let t = Server.create (cfg ~shards:1 ~k:4 ~warm:2 ~clients:2 ~s:64 ()) in
  let c0 = Server.client t 0 and c1 = Server.client t 1 in
  let token = grant_token t c0 3 in
  (match Server.acquire t c0 ~src:3 with
  | Server.Busy -> ()
  | _ -> Alcotest.fail "a held source must be Busy to its holder");
  (match Server.acquire t c1 ~src:3 with
  | Server.Busy -> ()
  | _ -> Alcotest.fail "a held source must be Busy to another client");
  Alcotest.(check int) "the holder's refusal counted" 1 (Server.client_stats c0).Server.busy;
  Alcotest.(check int) "no slot taken by a refusal" 1 (Server.outstanding t);
  Server.release t c0 ~token;
  Server.flush t c0;
  Server.release t c1 ~token:(grant_token t c1 3);
  Server.flush t c1;
  Alcotest.(check int) "all names returned" 0 (Server.outstanding t);
  expect_no_violations t

(* [flush] retires each warm lease exactly once; a second flush finds
   nothing to retire. *)
let test_flush_retires_once () =
  let t = Server.create (cfg ~shards:2 ~k:4 ~warm:3 ~clients:1 ~s:64 ()) in
  let c = Server.client t 0 in
  List.iter (fun src -> Server.release t c ~token:(grant_token t c src)) [ 1; 2; 3 ];
  Alcotest.(check int) "three warm" 3 (Server.outstanding t);
  Alcotest.(check int) "nothing retired while cached" 0 (drains c);
  Server.flush t c;
  Alcotest.(check int) "each warm lease retired" 3 (drains c);
  Alcotest.(check int) "all names returned" 0 (Server.outstanding t);
  Server.flush t c;
  Alcotest.(check int) "a second flush retires nothing" 3 (drains c);
  expect_no_violations t

(* The chaos hook fires once before each retirement a client runs, and
   never on a warm hit or a release into a cache with room. *)
let test_chaos_hook_per_retirement () =
  let t = Server.create (cfg ~shards:1 ~k:4 ~warm:1 ~clients:1 ~s:64 ()) in
  let c = Server.client t 0 in
  let tags = ref [] in
  Server.set_chaos c (Some (fun tag -> tags := tag :: !tags));
  Server.release t c ~token:(grant_token t c 1);
  Alcotest.(check int) "a release into a cache with room" 0 (List.length !tags);
  Server.release t c ~token:(grant_token t c 1);
  Alcotest.(check int) "a warm hit" 0 (List.length !tags);
  for i = 0 to 19 do
    Server.release t c ~token:(grant_token t c (2 + (i mod 3)))
  done;
  Server.flush t c;
  Alcotest.(check int) "once per retirement" (drains c) (List.length !tags);
  Alcotest.(check int) "every eviction and the flush retired" 21 (drains c);
  Alcotest.(check (list string)) "tagged as a retirement" []
    (List.filter (fun tag -> tag <> "retire") !tags);
  Alcotest.(check int) "all names returned" 0 (Server.outstanding t);
  expect_no_violations t

(* A crash at an eviction's retirement leaves the evicted lease warm
   under the victim, never half-retired: its source stays Busy until a
   reclaim retires it with the victim's other lease. *)
let test_crash_mid_retirement_sequential () =
  let config = cfg ~shards:1 ~k:4 ~warm:1 ~clients:2 ~s:64 () in
  let t = Server.create config in
  let c0 = Server.client t 0 and c1 = Server.client t 1 in
  Server.release t c1 ~token:(grant_token t c1 5);
  let token = grant_token t c1 6 in
  Server.set_chaos c1 (Some (fun _ -> raise Exit));
  Alcotest.check_raises "the victim crashes at the eviction" Exit (fun () ->
      Server.release t c1 ~token);
  Alcotest.(check int) "nothing retired" 0 (drains c1);
  Alcotest.(check int) "both leases still warm" 2 (Server.probe_shard t 0).Server.warm;
  (match Server.acquire t c0 ~src:5 with
  | Server.Busy -> ()
  | _ -> Alcotest.fail "the evicted source must stay Busy until reclaimed");
  for _ = 1 to config.Server.resilience.Server.lease_ttl + 2 do
    Server.scan t c0
  done;
  let rs = Server.resilience_stats t in
  Alcotest.(check int) "the victim declared dead" 1 rs.Server.deaths;
  Alcotest.(check int) "both leases reclaimed" 2 rs.Server.reclaimed;
  Alcotest.(check int) "nothing outstanding" 0 (Server.outstanding t);
  Server.release t c0 ~token:(grant_token t c0 5);
  Server.flush t c0;
  expect_no_violations t

(* A client declared dead while it holds a lease no reclaim caught
   retires that lease in its next release, before it returns. *)
let test_dead_release_retires () =
  let src = 5 in
  let t, c1, token = held_across_resync src in
  let c0 = Server.client t 0 in
  Alcotest.(check int) "the lease is held" 1 (Server.outstanding t);
  let fenced = (Server.client_stats c1).Server.fenced in
  Server.release t c1 ~token;
  Alcotest.(check int) "retired by its holder" 1 (drains c1);
  Alcotest.(check int) "the re-sync counted as fenced" (fenced + 1)
    (Server.client_stats c1).Server.fenced;
  Alcotest.(check int) "nothing outstanding" 0 (Server.outstanding t);
  (match Server.acquire t c0 ~src with
  | Server.Granted g -> Server.release t c0 ~token:g.token
  | _ -> Alcotest.fail "the retired source must be grantable at once");
  Server.flush t c0;
  expect_clean t

(* The members kept for the benchmark harness hold their constants
   whatever the server does. *)
let test_perfbench_stubs () =
  let config = Server.default_config ~clients:2 ~source_space:64 () in
  Alcotest.(check int) "batch is one" 1 config.Server.batch;
  let t = Server.create config in
  let c0 = Server.client t 0 and c1 = Server.client t 1 in
  Server.release t c1 ~token:(grant_token t c1 9);
  let before = Server.outstanding t in
  Server.drain_all t c1;
  Alcotest.(check int) "drain_all retires nothing" before (Server.outstanding t);
  Alcotest.(check int) "drain_all counts nothing" 0 (drains c1);
  for _ = 1 to config.Server.resilience.Server.lease_ttl + 2 do
    Server.scan t c0
  done;
  let rs = Server.resilience_stats t in
  Alcotest.(check int) "a reclaim ran" 1 rs.Server.reclaimed;
  Alcotest.(check int) "no drain heals" 0 rs.Server.drain_heals;
  Alcotest.(check int) "no failovers" 0 rs.Server.failovers;
  for sh = 0 to Server.shards t - 1 do
    Alcotest.(check int) (Printf.sprintf "shard %d pending" sh) 0
      (Server.probe_shard t sh).Server.pending;
    Alcotest.(check string) (Printf.sprintf "shard %d live" sh) "live"
      (Server.Health.to_string (Server.health t sh))
  done

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

(* Warm caching off: each release is retired by its own client. *)
let test_flight_ring_analyzable () =
  let ring = Obs.Flight.create () in
  let config = cfg ~shards:2 ~k:3 ~warm:0 ~clients:3 ~s:64 () in
  let report =
    Churn.run ~flight:ring ~sampler_interval_ns:0 ~config
      ~spec:(fun client -> Workload.server_churn ~s:64 ~requests:100 ~seed:5 ~client ())
      ()
  in
  check_ring "own retirement" ring ~clients:3
    ~cold:(report.Churn.acquires - report.Churn.warm_hits);
  (* The defaults (warm 2) with two clients on one shard: client 1
     holds one name and caches another, then falls silent, and client
     0's scans reclaim both while it cycles names of its own.  The
     reclaimed releases are client 1's, run by client 0. *)
  let ring = Obs.Flight.create () in
  let config = cfg ~shards:1 ~clients:2 ~s:64 () in
  let t = Server.create ~flight:ring config in
  let c0 = Server.client t 0 and c1 = Server.client t 1 in
  let grant c src =
    match Server.acquire t c ~src with
    | Server.Granted g -> g.token
    | _ -> Alcotest.fail "scripted acquire refused"
  in
  ignore (grant c1 32 : int);
  Server.release t c1 ~token:(grant c1 33);
  for i = 0 to config.Server.resilience.Server.lease_ttl + 2 do
    Server.release t c0 ~token:(grant c0 (i mod 8));
    Server.scan t c0
  done;
  Alcotest.(check int) "client 1 retired nothing" 0
    (Server.client_stats c1).Server.drained_releases;
  Alcotest.(check int) "client 0 reclaimed client 1's leases" 2
    (Server.resilience_stats t).Server.reclaimed;
  Server.flush t c0;
  Alcotest.(check int) "all names returned" 0 (Server.outstanding t);
  Server.merge_flight t;
  let cold =
    sum_stats t [ 0; 1 ] (fun s -> s.Server.acquires - s.Server.warm_hits)
  in
  check_ring "cross-client reclaims" ring ~clients:2 ~cold

let () =
  Alcotest.run "server"
    [
      ( "routing",
        [ Alcotest.test_case "client-affine, stable, every shard owned" `Quick test_routing ] );
      ( "service",
        [
          Alcotest.test_case "warm hit is free" `Quick test_warm_hit;
          Alcotest.test_case "busy and shed" `Quick test_busy_and_shed;
          Alcotest.test_case "double release rejected" `Quick test_double_release_rejected;
          Alcotest.test_case "probes count fences" `Quick test_probe_census;
          Alcotest.test_case "warm path allocates nothing" `Quick
            test_warm_path_allocation_free;
          Alcotest.test_case "cold path allocates nothing" `Quick test_cold_path_allocation;
          Alcotest.test_case "cold replies repeat the grant" `Quick test_cold_replies;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "warm cache vs stealer" `Quick test_warm_vs_stealer;
          Alcotest.test_case "releases survive the join" `Quick test_join_flush;
          Alcotest.test_case "hot metrics reach the registry" `Quick
            test_hot_metrics_reach_registry;
          Alcotest.test_case "fault campaign on one shard" `Quick
            test_fault_campaign_one_shard;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "crashed client reclaimed" `Quick
            test_reclaim_crashed_client;
          Alcotest.test_case "any client runs a due scan" `Quick test_any_client_scans;
          Alcotest.test_case "release fenced after reclaim" `Quick test_release_fencing;
          Alcotest.test_case "held lease crosses a re-sync" `Quick test_held_across_resync;
          Alcotest.test_case "forced false deaths" `Quick test_forced_false_deaths;
          Alcotest.test_case "drain vs reclaim exactly-once" `Quick
            test_evict_reclaim_race;
          Alcotest.test_case "admission under contention" `Quick
            test_admission_contention;
          Alcotest.test_case "crash at a retirement leaks nothing" `Quick
            test_crash_at_retirement;
        ] );
      ( "retirement",
        [
          Alcotest.test_case "eviction retires at once" `Quick test_eviction_retires;
          Alcotest.test_case "uncached release retires at once" `Quick
            test_uncached_release_retires;
          Alcotest.test_case "full shard retires own warm leases" `Quick
            test_full_shard_retires_own_warm;
          Alcotest.test_case "another client's warm leases untouched" `Quick
            test_foreign_warm_untouched;
          Alcotest.test_case "own held source is Busy" `Quick test_own_held_source_busy;
          Alcotest.test_case "flush retires each lease once" `Quick test_flush_retires_once;
          Alcotest.test_case "chaos hook fires once per retirement" `Quick
            test_chaos_hook_per_retirement;
          Alcotest.test_case "crash at an eviction is reclaimed" `Quick
            test_crash_mid_retirement_sequential;
          Alcotest.test_case "dead client's release retires" `Quick test_dead_release_retires;
          Alcotest.test_case "benchmark stubs are constant" `Quick test_perfbench_stubs;
        ] );
      ( "bare",
        [
          Alcotest.test_case "crash holding is reclaimed" `Quick test_bare_crash_reclaimed;
          Alcotest.test_case "flight ring analyzable" `Quick test_flight_ring_analyzable;
        ] );
    ]
