(* Request journeys: the tail reservoir, per-stage blame attribution,
   exemplar-linked histograms, and the parked-holder integration run. *)

module J = Obs.Journey

let us = 1_000
let ms = 1_000_000

(* ----- lifecycle: stamping, flags, blame, exemplar links ----- *)

let test_lifecycle () =
  let t = J.create ~window_ns:ms ~k:4 ~exemplars:2 ~seed:1 ~bound:21 () in
  (* a cold journey inside the paper bound *)
  J.start t ~id:1 ~now:0;
  J.dwell t J.Claim 100;
  J.dwell t J.Acquire 400;
  J.accesses t 18;
  J.finish t ~now:1000;
  (* a warm hit: zero accesses, never flagged *)
  J.start t ~id:2 ~now:100;
  J.warm t;
  J.finish t ~now:300;
  (* a cold journey over the bound, in the next window *)
  J.start t ~id:3 ~now:(ms + 5);
  J.dwell t J.Acquire (30 * us);
  J.accesses t 25;
  J.finish t ~now:(ms + (40 * us));
  let s = J.snapshot t in
  Alcotest.(check int) "completed" 3 s.J.completed;
  Alcotest.(check int) "one journey over the bound" 1 s.J.flagged;
  Alcotest.(check int) "acquire blame sums"
    (400 + (30 * us))
    s.J.blame.(J.stage_index J.Acquire);
  Alcotest.(check int) "two windows" 2 (List.length s.J.windows);
  let w0 = List.hd s.J.windows in
  Alcotest.(check int) "window 0 holds two journeys" 2 w0.J.count;
  (match s.J.worst with
  | Some w ->
      Alcotest.(check int) "worst is the slow one" 3 w.J.id;
      Alcotest.(check int) "worst total" (40 * us - 5) w.J.total_ns;
      Alcotest.(check bool) "worst flagged over bound" true w.J.over_bound
  | None -> Alcotest.fail "no worst journey");
  (match J.find t ~id:2 with
  | Some v ->
      Alcotest.(check bool) "warm flag survives" true v.J.warm;
      Alcotest.(check bool) "warm never over bound" false v.J.over_bound
  | None -> Alcotest.fail "journey 2 not retained");
  (match J.top ~n:1 t with
  | [ v ] -> Alcotest.(check int) "top is the slowest" 3 v.J.id
  | l -> Alcotest.failf "top returned %d views" (List.length l));
  (* p100 is explainable: the histogram's max exemplar is a retained id *)
  (match Obs.Histogram.max_exemplar (J.hist t) with
  | Some id ->
      Alcotest.(check int) "max exemplar links the worst" 3 id;
      Alcotest.(check bool) "exemplar id resolves" true (J.find t ~id <> None)
  | None -> Alcotest.fail "no max exemplar");
  Alcotest.(check bool) "tail explained" true (J.unexplained_tail t = None);
  match J.top_blame_stage s with
  | Some (st, ns) ->
      Alcotest.(check string) "top blame stage" "acquire" (J.stage_name st);
      Alcotest.(check int) "top blame ns" (400 + (30 * us)) ns
  | None -> Alcotest.fail "no blame recorded"

let test_interference () =
  let t = J.create ~window_ns:ms () in
  (* reclaim work on behalf of others lands in window blame, not in
     any journey or the completion count *)
  J.interfere t J.Reclaim ~now:(ms / 2) 700;
  let s = J.snapshot t in
  Alcotest.(check int) "nothing completed" 0 s.J.completed;
  Alcotest.(check int) "blame attributed" 700 s.J.blame.(J.stage_index J.Reclaim);
  let w = List.hd s.J.windows in
  Alcotest.(check int) "window blame attributed" 700
    w.J.blame.(J.stage_index J.Reclaim);
  Alcotest.(check int) "no journey rows" 0 (List.length w.J.slowest)

let test_waterfall () =
  let t = J.create ~window_ns:ms () in
  J.start t ~id:7 ~now:0;
  J.dwell t J.Backoff 200;
  J.dwell t J.Acquire 500;
  J.finish t ~now:1000;
  match J.top ~n:1 t with
  | [ v ] ->
      let out = Format.asprintf "%a" J.pp_waterfall v in
      Alcotest.(check bool) "names the journey" true
        (Test_util.contains ~sub:"journey #7" out);
      Alcotest.(check bool) "renders acquire" true
        (Test_util.contains ~sub:"acquire" out);
      (* 300 ns of the total is not covered by any stage *)
      Alcotest.(check bool) "renders the remainder" true
        (Test_util.contains ~sub:"(other)" out)
  | l -> Alcotest.failf "top returned %d views" (List.length l)

(* ----- the regression guard: p100 without a journey ----- *)

let test_unexplained_tail () =
  let t = J.create ~window_ns:ms () in
  for i = 1 to 50 do
    J.start t ~id:i ~now:(i * 10);
    J.finish t ~now:((i * 10) + 1000)
  done;
  Alcotest.(check bool) "clean run is explained" true (J.unexplained_tail t = None);
  (* a latency lands in the histogram with no journey behind it — the
     exact situation the guard exists to catch *)
  Obs.Histogram.observe (J.hist t) (100 * ms);
  (match J.unexplained_tail t with
  | Some (p100, p99) ->
      Alcotest.(check int) "reports the exact max" (100 * ms) p100;
      Alcotest.(check bool) "p99 is the real tail" true (p99 < ms)
  | None -> Alcotest.fail "rogue max not flagged");
  (* once a journey reaches that total, the tail is explained again *)
  J.start t ~id:99 ~now:(2 * ms);
  J.finish t ~now:((2 * ms) + (100 * ms));
  Alcotest.(check bool) "explained once retained" true (J.unexplained_tail t = None)

(* ----- portable text form ----- *)

let test_round_trip () =
  let t = J.create ~window_ns:ms ~k:3 ~exemplars:2 ~seed:5 ~bound:21 () in
  for i = 1 to 40 do
    J.start t ~id:i ~now:((i * ms) / 10);
    J.dwell t J.Claim (i * 3);
    J.dwell t J.Acquire (i * 100);
    J.accesses t (if i mod 7 = 0 then 25 else 18);
    if i mod 5 = 0 then J.retry t;
    J.finish t ~now:(((i * ms) / 10) + (i * 150))
  done;
  J.interfere t J.Reclaim ~now:(2 * ms) 4242;
  let doc = J.to_string t in
  Alcotest.(check bool) "schema line" true
    (String.length doc > 20 && String.sub doc 0 20 = "renaming.journeys/v1");
  match J.of_string doc with
  | Error e -> Alcotest.failf "no round trip: %s" e
  | Ok t' ->
      Alcotest.(check string) "document fixpoint" doc (J.to_string t');
      let s = J.snapshot t and s' = J.snapshot t' in
      Alcotest.(check int) "completed" s.J.completed s'.J.completed;
      Alcotest.(check int) "flagged" s.J.flagged s'.J.flagged;
      Alcotest.(check (array int)) "blame" s.J.blame s'.J.blame;
      Alcotest.(check int) "worst survives"
        (match s.J.worst with Some w -> w.J.id | None -> 0)
        (match s'.J.worst with Some w -> w.J.id | None -> 0);
      (match J.of_string "renaming.journeys/v0\n" with
      | Ok _ -> Alcotest.fail "accepted an unknown schema"
      | Error _ -> ());
      (match J.of_string "total garbage" with
      | Ok _ -> Alcotest.fail "accepted garbage"
      | Error _ -> ())

(* ----- reservoir properties ----- *)

(* Deterministic event streams: (id, total) pairs with distinct ids
   and monotone arrivals confined to the ring (journeys never race the
   window eviction, so every sharding retains the same windows). *)
let events_gen =
  QCheck2.Gen.(
    list_size (int_range 1 120) (int_range 0 (50 * us))
    >|= List.mapi (fun i total -> (i + 1, total)))

let feed t ~window_ns events =
  List.iter
    (fun (id, total) ->
      let arrival = (id * 7919) mod (8 * window_ns) in
      J.start t ~id ~now:arrival;
      J.dwell t J.Acquire total;
      J.accesses t 18;
      J.finish t ~now:(arrival + total))
    events

let test_topk_oracle =
  Test_util.qtest ~count:200 "reservoir top-k matches the naive oracle" events_gen
    (fun events ->
      let k = 4 in
      (* one window: every journey competes for the same reservoir *)
      let t = J.create ~windows:2 ~window_ns:(100 * ms) ~k ~exemplars:0 () in
      feed t ~window_ns:1 events;
      let got = List.map (fun v -> v.J.id) (J.top ~n:k t) in
      let oracle =
        List.sort
          (fun (ia, ta) (ib, tb) -> compare (-ta, ia) (-tb, ib))
          events
        |> List.filteri (fun i _ -> i < k)
        |> List.map fst
      in
      if got <> oracle then
        QCheck2.Test.fail_reportf "top-k [%s] <> oracle [%s]"
          (String.concat ";" (List.map string_of_int got))
          (String.concat ";" (List.map string_of_int oracle));
      true)

let test_seed_determinism =
  Test_util.qtest ~count:100 "equal seeds retain equal exemplars" events_gen
    (fun events ->
      let mk () = J.create ~window_ns:ms ~k:2 ~exemplars:3 ~seed:11 () in
      let a = mk () and b = mk () in
      feed a ~window_ns:ms events;
      feed b ~window_ns:ms events;
      J.to_string a = J.to_string b)

(* Merge law, mirroring the Timeseries one: the same journeys recorded
   into any sharding and merged in any order yield identical snapshots. *)
let fingerprint t =
  let s = J.snapshot t in
  let views = List.map (fun v -> (v.J.id, v.J.total_ns, v.J.retries)) in
  ( List.map
      (fun (w : J.window) ->
        (w.J.wid, w.J.count, Array.to_list w.J.blame, views w.J.slowest,
         views w.J.exemplars))
      s.J.windows,
    Option.map (fun v -> v.J.id) s.J.worst,
    s.J.completed,
    s.J.flagged,
    Array.to_list s.J.blame,
    Obs.Histogram.percentile (J.hist t) 0.999 )

let test_merge_determinism =
  Test_util.qtest ~count:100 "merge is commutative across shardings" events_gen
    (fun events ->
      let record shards pick =
        let ts =
          Array.init shards (fun _ ->
              J.create ~window_ns:ms ~k:3 ~exemplars:2 ~seed:11 ())
        in
        List.iteri (fun i ev -> feed ts.(pick i) ~window_ns:ms [ ev ]) events;
        ts
      in
      let merge_into ts order =
        let into = J.create ~window_ns:ms ~k:3 ~exemplars:2 ~seed:11 () in
        List.iter (fun i -> J.merge ~into ts.(i)) order;
        into
      in
      let a = merge_into (record 1 (fun _ -> 0)) [ 0 ] in
      let b = merge_into (record 3 (fun i -> i mod 3)) [ 2; 0; 1 ] in
      let c = merge_into (record 4 (fun i -> i mod 4)) [ 3; 1; 0; 2 ] in
      fingerprint a = fingerprint b && fingerprint b = fingerprint c)

let test_merge_shape_mismatch () =
  let a = J.create ~window_ns:ms () in
  let b = J.create ~window_ns:(2 * ms) () in
  Alcotest.check_raises "window geometry mismatch"
    (Invalid_argument "Journey.merge: window geometry differs") (fun () ->
      J.merge ~into:a b)

(* ----- a cold journey always carries dwell ----- *)

(* With warm caching off every grant is a cold acquire of a few hundred
   ns, and the server stamps its stages with Obs.Clock.  A clock too
   coarse to see those stages rounds whole journeys to zero dwell,
   leaving a retained tail that no stage can be blamed for. *)
let test_cold_dwell_resolved () =
  let config =
    Server.default_config ~shards:1 ~k_per_shard:2 ~warm_capacity:0 ~clients:1
      ~source_space:16 ()
  in
  let j = J.create ~seed:3 () in
  let server = Server.create ~journeys:[| j |] config in
  let c = Server.client server 0 in
  for id = 1 to 1000 do
    J.start j ~id ~now:(Obs.Clock.now_ns ());
    (match Server.acquire server c ~src:(id mod 16) with
    | Server.Granted g -> Server.release server c ~token:g.token
    | Server.Busy | Server.Shed -> Alcotest.fail "a lone client was refused");
    J.finish j ~now:(Obs.Clock.now_ns ())
  done;
  let check_dwell what (v : J.view) =
    Alcotest.(check bool) (Printf.sprintf "%s journey %d is cold" what v.J.id) false v.J.warm;
    if Array.fold_left ( + ) 0 v.J.dwells <= 0 then
      Alcotest.failf "%s journey %d (%d ns total) carries no dwell" what v.J.id v.J.total_ns
  in
  List.iter (check_dwell "top") (J.top j);
  List.iter
    (fun (w : J.window) ->
      List.iter (check_dwell "slowest") w.J.slowest;
      List.iter (check_dwell "exemplar") w.J.exemplars)
    (J.snapshot j).J.windows

(* ----- integration: a parked holder produces a blamed, exemplar-linked
   tail ----- *)

let test_parked_holder_blamed_tail () =
  let config =
    Server.default_config ~shards:2 ~k_per_shard:3 ~warm_capacity:1 ~clients:3 ~source_space:64 ()
  in
  let plan = Result.get_ok (Sim.Faults.of_string "park@p1:acc1") in
  let faults = Churn.of_plan plan in
  let journeys = Array.init 3 (fun _ -> J.create ~seed:7 ~bound:14 ()) in
  let report =
    Churn.run ~config ~faults ~journeys
      ~spec:(fun client ->
        Workload.server_churn ~s:64 ~requests:400 ~seed:9 ~client ())
      ()
  in
  Alcotest.(check int) "uniqueness survives the park" 0
    report.Churn.result.Runtime.Agg.violations;
  match report.Churn.journeys with
  | None -> Alcotest.fail "journeys not merged into the report"
  | Some j ->
      let s = J.snapshot j in
      Alcotest.(check bool) "journeys completed" true (s.J.completed > 0);
      Alcotest.(check bool) "blame attributed somewhere" true
        (J.top_blame_stage s <> None);
      (* every extreme tail has a captured journey behind it *)
      Alcotest.(check bool) "tail explained" true (J.unexplained_tail j = None);
      (* the slowest retained journeys are real, inspectable exemplars *)
      let tops = J.top ~n:3 j in
      Alcotest.(check bool) "top journeys retained" true (tops <> []);
      List.iter
        (fun (v : J.view) ->
          Alcotest.(check bool) "top journey resolvable by id" true
            (J.find j ~id:v.J.id <> None);
          Alcotest.(check bool) "dwells attributed" true
            (v.J.warm || Array.fold_left ( + ) 0 v.J.dwells > 0))
        tops

let () =
  Alcotest.run "journey"
    [
      ( "recorder",
        [
          Alcotest.test_case "lifecycle + flags + exemplars" `Quick test_lifecycle;
          Alcotest.test_case "interference blame" `Quick test_interference;
          Alcotest.test_case "waterfall rendering" `Quick test_waterfall;
          Alcotest.test_case "unexplained tail guard" `Quick test_unexplained_tail;
          Alcotest.test_case "text form round trip" `Quick test_round_trip;
          Alcotest.test_case "cold journeys always carry dwell" `Quick
            test_cold_dwell_resolved;
        ] );
      ( "reservoir",
        [
          test_topk_oracle;
          test_seed_determinism;
          test_merge_determinism;
          Alcotest.test_case "merge shape mismatch" `Quick test_merge_shape_mismatch;
        ] );
      ( "integration",
        [
          Alcotest.test_case "parked holder blamed tail" `Quick
            test_parked_holder_blamed_tail;
        ] );
    ]
