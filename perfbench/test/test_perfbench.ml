open Perfbench

(* ----- percentiles ----- *)

let naive_percentile sorted q =
  let n = Array.length sorted in
  sorted.(max 1 (int_of_float (Float.ceil (q *. float_of_int n))) - 1)

let test_buckets () =
  for v = 0 to 1 lsl 20 do
    let i = Hist.index v in
    if Hist.lower i > v || Hist.lower (i + 1) <= v then
      Alcotest.failf "value %d misplaced in bucket %d [%d, %d)" v i (Hist.lower i) (Hist.lower (i + 1))
  done;
  Alcotest.(check bool) "largest value fits" true (Hist.index max_int < Hist.size)

let test_percentiles () =
  let g = Gen.make 42 in
  List.iter
    (fun (n, range) ->
      let xs = Array.init n (fun _ -> Gen.int g range) in
      let h = Hist.create () in
      Array.iter (Hist.record h) xs;
      let sorted = Array.copy xs in
      Array.sort compare sorted;
      List.iter
        (fun q ->
          let naive = naive_percentile sorted q in
          let got = Hist.percentile h q in
          Alcotest.(check int)
            (Printf.sprintf "n=%d range=%d q=%g" n range q)
            (Hist.lower (Hist.index naive)) got;
          if naive < 256 then Alcotest.(check int) "exact below 256" naive got;
          if naive - got > naive / 128 then Alcotest.failf "error above 1/128 at %d" naive)
        [ 0.001; 0.25; 0.5; 0.9; 0.99; 0.999; 1.0 ])
    [ (1, 100); (7, 200); (1000, 250); (10_000, 5_000); (100_000, 10_000_000) ];
  Alcotest.(check int) "empty" 0 (Hist.percentile (Hist.create ()) 0.5)

(* ----- inputs ----- *)

let zipf_workload = Option.get (Drive.find "zipf-pair-obs")

let test_zipf_deterministic () =
  let a = Drive.sources zipf_workload ~seed:7 and b = Drive.sources zipf_workload ~seed:7 in
  Alcotest.(check bool) "same seed, same streams" true (a = b);
  let c = Drive.sources zipf_workload ~seed:8 in
  Alcotest.(check bool) "another seed, other streams" false (a = c);
  Alcotest.(check bool) "clients draw independently" false (a.(0) = a.(1))

let test_zipf_skew () =
  let w = zipf_workload in
  let z = Gen.zipf ~n:w.source_space ~theta:0.99 in
  let counts = Array.make w.source_space 0 in
  let srcs = Drive.sources w ~seed:3 in
  Array.iter (Array.iter (fun s -> counts.(s) <- counts.(s) + 1)) srcs;
  let total = float_of_int (Array.fold_left ( + ) 0 counts) in
  let f0 = float_of_int counts.(0) /. total in
  let p0 = Gen.zipf_p0 z in
  if Float.abs (f0 -. p0) > 0.05 *. p0 then Alcotest.failf "rank 0 frequency %g, expected %g" f0 p0;
  (* P(1) / P(0) = 2^-theta *)
  let r = float_of_int counts.(1) /. float_of_int counts.(0) in
  if Float.abs (r -. (0.5 ** 0.99)) > 0.05 then Alcotest.failf "rank 1 / rank 0 = %g" r;
  Alcotest.(check bool) "in range" true (Array.for_all (Array.for_all (fun s -> s >= 0 && s < w.source_space)) srcs)

(* ----- the backend shim ----- *)

let cold_workload = Option.get (Drive.find "cold-solo")

(* Outcomes of [n] solo acquire+release requests (no [tend], so no
   wall-clock-paced scans make the two runs diverge). *)
let solo_names ?backend n on_grant =
  let srv = Drive.create ?backend cold_workload in
  let c = Server.client srv 0 in
  let srcs = (Drive.sources cold_workload ~seed:5).(0) in
  List.init n (fun i ->
      match Server.acquire srv c ~src:srcs.(i) with
      | Server.Granted { name; token; warm; accesses } ->
          on_grant ~warm ~accesses;
          Server.release srv c ~token;
          name
      | Server.Busy -> -1
      | Server.Shed -> -2)

let test_shim_accesses () =
  let tr = Trace.current () in
  let cold = ref 0 in
  ignore
    (solo_names ~backend:Trace.backend 2000 (fun ~warm ~accesses ->
         if not warm then begin
           incr cold;
           (* get_name is the last protocol call of a cold acquire *)
           Alcotest.(check int) "shim count = Granted.accesses" accesses (Shared_mem.Store.accesses tr.counter)
         end)
      : int list);
  Alcotest.(check bool) "cold grants seen" true (!cold > 1000)

let test_shim_names () =
  let plain = solo_names 2000 (fun ~warm:_ ~accesses:_ -> ()) in
  let shimmed = solo_names ~backend:Trace.backend 2000 (fun ~warm:_ ~accesses:_ -> ()) in
  Alcotest.(check (list int)) "same names with and without the shim" plain shimmed

let test_spans_nest () =
  let tr = Trace.create 64 in
  Trace.install tr;
  tr.on <- true;
  let srv = Drive.create ~backend:Trace.backend cold_workload in
  let c = Server.client srv 0 in
  tr.req_id <- 9;
  let s = Trace.open_span tr in
  (match Server.acquire srv c ~src:3 with
  | Server.Granted { token; _ } ->
      Trace.close_span tr s Trace.acquire_cold 0;
      Server.release srv c ~token
  | _ -> Alcotest.fail "first acquire not granted");
  Alcotest.(check int) "acquire and its get_name" 2 tr.n;
  Alcotest.(check int) "get_name's parent" 0 tr.parent.(1);
  Alcotest.(check int) "request id" 9 tr.req.(1);
  let sum = Trace.summarize [ tr ] in
  Alcotest.(check int) "one request" 1 sum.requests;
  Alcotest.(check int) "self times add up to the root"
    sum.root_ns
    (sum.by_kind.(Trace.acquire_cold).self_ns + sum.by_kind.(Trace.split_get).self_ns)

let () =
  Alcotest.run "perfbench"
    [
      ( "hist",
        [
          Alcotest.test_case "bucket edges" `Quick test_buckets;
          Alcotest.test_case "percentiles match a naive sort" `Quick test_percentiles;
        ] );
      ( "gen",
        [
          Alcotest.test_case "zipf is seed-deterministic" `Quick test_zipf_deterministic;
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
        ] );
      ( "shim",
        [
          Alcotest.test_case "counts equal Granted.accesses" `Quick test_shim_accesses;
          Alcotest.test_case "transparent on names" `Quick test_shim_names;
          Alcotest.test_case "spans nest and add up" `Quick test_spans_nest;
        ] );
    ]
