(* The structural flight recorder: Loc packing, ring accounting and
   serialization, probe wiring through the stores, occupancy/provenance
   reconstruction on simulator runs, the Loc lint (unique, seed-stable,
   in-bounds labels), and the Chrome trace-event export schema. *)

open Shared_mem
module Split = Renaming.Split
module Filter = Renaming.Filter
module Params = Renaming.Params
module Splitter = Renaming.Splitter
module Flight = Obs.Flight
module Loc = Obs.Loc

let loc_t = Alcotest.testable Loc.pp Loc.equal

(* ----- Loc encode/decode ----- *)

let test_loc_roundtrip () =
  let cases =
    [
      Loc.Splitter { stage = 0; node = 0 };
      Loc.Splitter { stage = 63; node = 12345 };
      Loc.Splitter { stage = 3; node = (1 lsl 55) - 1 };
      Loc.Mutex { stage = 0; tree = 0; level = 1; node = 0 };
      Loc.Mutex { stage = 63; tree = (1 lsl 25) - 1; level = 63; node = (1 lsl 24) - 1 };
      Loc.Mutex { stage = 2; tree = 17; level = 4; node = 9 };
    ]
  in
  List.iter
    (fun loc ->
      Alcotest.check loc_t
        (Printf.sprintf "roundtrip %s" (Loc.to_string loc))
        loc
        (Loc.decode (Loc.encode loc)))
    cases;
  Alcotest.(check int) "encode injective" (List.length cases)
    (List.length (List.sort_uniq compare (List.map Loc.encode cases)));
  List.iter
    (fun (field, bad) ->
      Alcotest.check_raises
        (Printf.sprintf "out-of-range %s rejected" field)
        (Invalid_argument ("Loc.encode: " ^ field))
        (fun () -> ignore (Loc.encode bad)))
    [
      ("stage", Loc.Splitter { stage = 64; node = 0 });
      ("node", Loc.Splitter { stage = 0; node = 1 lsl 55 });
      ("tree", Loc.Mutex { stage = 0; tree = 1 lsl 25; level = 1; node = 0 });
      ("level", Loc.Mutex { stage = 0; tree = 0; level = 64; node = 0 });
      ("node", Loc.Mutex { stage = 0; tree = 0; level = 1; node = 1 lsl 24 });
    ]

(* ----- ring accounting, merge, serialization ----- *)

let test_ring_overflow_and_merge () =
  let ring = Flight.create ~capacity:4 () in
  for i = 1 to 10 do
    Flight.record ring ~clock:i ~pid:7 (Flight.Acquired i)
  done;
  Alcotest.(check int) "length capped" 4 (Flight.length ring);
  Alcotest.(check int) "dropped counted" 6 (Flight.dropped ring);
  Alcotest.(check int) "total" 10 (Flight.total ring);
  let names =
    List.filter_map
      (fun (r : Flight.record) ->
        match r.event with Flight.Acquired n -> Some n | _ -> None)
      (Flight.items ring)
  in
  Alcotest.(check (list int)) "oldest evicted first" [ 7; 8; 9; 10 ] names;
  let into = Flight.create ~capacity:16 () in
  Flight.record into ~clock:0 ~pid:1 (Flight.Mark ("before", 0));
  Flight.merge ~into ring;
  Alcotest.(check int) "merge appends" 5 (Flight.length into);
  Alcotest.(check int) "merge carries drops" 6 (Flight.dropped into)

let test_ring_serialization_roundtrip () =
  let loc = Loc.Splitter { stage = 1; node = 4 } in
  let mloc = Loc.Mutex { stage = 0; tree = 5; level = 2; node = 1 } in
  let ring = Flight.create ~capacity:8 () in
  Flight.record ring ~clock:1 ~pid:3 (Flight.Enter loc);
  Flight.record ring ~clock:2 ~pid:3 (Flight.Exit (loc, -1));
  Flight.record ring ~clock:3 ~pid:4 (Flight.Check (mloc, false));
  Flight.record ring ~clock:4 ~pid:4 (Flight.Release mloc);
  Flight.record ring ~clock:5 ~pid:3 (Flight.Acquired 9);
  Flight.record ring ~clock:6 ~pid:3 (Flight.Released 9);
  Flight.record ring ~clock:7 ~pid:0 (Flight.Mark ("crash plan fired", 2));
  let doc = Flight.to_string ring in
  Alcotest.(check bool) "header" true
    (String.length doc > 18 && String.sub doc 0 18 = "renaming.flight/v1");
  match Flight.of_string doc with
  | Error e -> Alcotest.fail ("of_string failed: " ^ e)
  | Ok ring' ->
      Alcotest.(check int) "same length" (Flight.length ring) (Flight.length ring');
      Alcotest.(check int) "same drops" (Flight.dropped ring) (Flight.dropped ring');
      List.iter2
        (fun (a : Flight.record) (b : Flight.record) ->
          Alcotest.(check int) "clock" a.clock b.clock;
          Alcotest.(check int) "pid" a.pid b.pid;
          let same =
            match (a.event, b.event) with
            | Flight.Mark (s, v), Flight.Mark (s', v') ->
                (* whitespace in notes is sanitized to '_' *)
                v = v'
                && s' = String.map (fun c -> if c = ' ' then '_' else c) s
            | ea, eb -> ea = eb
          in
          Alcotest.(check bool) "event" true same)
        (Flight.items ring) (Flight.items ring')

let test_of_string_rejects_garbage () =
  (match Flight.of_string "not a flight document" with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error _ -> ());
  match Flight.of_string "renaming.flight/v1 dropped=0\ne 1 2 99 0 0\n" with
  | Ok _ -> Alcotest.fail "accepted an unknown event kind"
  | Error _ -> ()

(* ----- probes through the sequential store ----- *)

let test_seq_store_probe_events () =
  let layout = Layout.create () in
  let loc = Loc.Splitter { stage = 2; node = 7 } in
  let sp = Splitter.create ~loc layout in
  let mem = Store.seq_create layout in
  let events = ref [] in
  let ops =
    Store.probed (fun e -> events := e :: !events) (Store.seq_ops mem ~pid:5)
  in
  let tok = Splitter.enter sp ops in
  Splitter.release sp ops tok;
  (match List.rev !events with
  | [ Obs.Probe.Enter l1; Obs.Probe.Exit (l2, d); Obs.Probe.Release l3 ] ->
      Alcotest.check loc_t "enter loc" loc l1;
      Alcotest.check loc_t "exit loc" loc l2;
      Alcotest.check loc_t "release loc" loc l3;
      Alcotest.(check int) "exit direction is the token's" (Splitter.direction tok) d
  | evs ->
      Alcotest.fail
        (Printf.sprintf "unexpected event shape (%d events)" (List.length evs)));
  (* the null probe really is free: same splitter, no events *)
  events := [];
  let bare = Store.seq_ops mem ~pid:5 in
  let tok = Splitter.enter sp bare in
  Splitter.release sp bare tok;
  Alcotest.(check int) "null probe records nothing" 0 (List.length !events)

(* ----- simulator capture helpers ----- *)

(* Mirrors the CLI's `trace record` simulator path. *)
let record_split_run ~k ~procs ~cycles ~seed =
  let layout = Layout.create () in
  let sp = Split.create layout ~k in
  let work = Layout.alloc layout ~name:"work" 0 in
  let fr = Sim.Flight_rec.create () in
  let body ops =
    Workload.protocol_body (module Split) sp ~work ~cycles (Sim.Flight_rec.wrap fr ops)
  in
  let u = Sim.Checks.uniqueness ~name_space:(Split.name_space sp) () in
  let t =
    Sim.Sched.create
      ~monitor:(Sim.Flight_rec.monitor ~chain:(Sim.Checks.uniqueness_monitor u) fr)
      layout
      (Array.init procs (fun pid -> (pid, body)))
  in
  ignore (Sim.Sched.run t (Sim.Sched.random (Sim.Rng.make seed)));
  Sim.Flight_rec.ring fr

let record_filter_run ~k ~s ~cycles ~seed =
  let layout = Layout.create () in
  let (p : Params.filter_params) = Params.choose ~k ~s in
  let pids = Array.init k (fun i -> i * (s / k) mod s) in
  let f = Filter.create layout { k; d = p.d; z = p.z; s; participants = pids } in
  let work = Layout.alloc layout ~name:"work" 0 in
  let fr = Sim.Flight_rec.create () in
  let body ops =
    Workload.protocol_body (module Filter) f ~work ~cycles (Sim.Flight_rec.wrap fr ops)
  in
  let u = Sim.Checks.uniqueness ~name_space:(Filter.name_space f) () in
  let t =
    Sim.Sched.create
      ~monitor:(Sim.Flight_rec.monitor ~chain:(Sim.Checks.uniqueness_monitor u) fr)
      layout
      (Array.map (fun pid -> (pid, body)) pids)
  in
  ignore (Sim.Sched.run t (Sim.Sched.random (Sim.Rng.make seed)));
  (Sim.Flight_rec.ring fr, p, Filter.name_space f)

(* ----- analysis on a seeded SPLIT run ----- *)

let test_split_analysis () =
  let k = 4 in
  let ring = record_split_run ~k ~procs:4 ~cycles:3 ~seed:11 in
  let report = Obs.Analyze.analyze (Flight.items ring) in
  Alcotest.(check (list string)) "occupancy within Theorem 5" []
    (Obs.Analyze.check report);
  Alcotest.(check bool) "acquisitions reconstructed" true (report.acquisitions <> []);
  List.iter
    (fun (a : Obs.Analyze.acquisition) ->
      Alcotest.(check int)
        (Printf.sprintf "p%d path has depth k-1" a.pid)
        (k - 1) (List.length a.path);
      (* provenance must explain the granted name: the SPLIT name
         formula over the recorded path directions *)
      let name, _ =
        List.fold_left
          (fun (acc, w) ((_ : Loc.t), d) -> (acc + ((1 + d) * w), w * 3))
          (0, 1) a.path
      in
      Alcotest.(check int) (Printf.sprintf "p%d name from path" a.pid) a.name name)
    report.acquisitions;
  let hm = Obs.Analyze.heatmap report in
  Alcotest.(check bool) "heatmap has depth rows" true
    (Test_util.contains ~sub:"depth 0" hm)

(* every Acquired in the ring has a matching provenance entry *)
let test_split_provenance_complete () =
  let ring = record_split_run ~k:4 ~procs:4 ~cycles:2 ~seed:3 in
  let records = Flight.items ring in
  let report = Obs.Analyze.analyze records in
  let grants =
    List.filter_map
      (fun (r : Flight.record) ->
        match r.event with Flight.Acquired n -> Some (r.pid, n) | _ -> None)
      records
  in
  Alcotest.(check bool) "run produced grants" true (grants <> []);
  Alcotest.(check int) "one acquisition per grant" (List.length grants)
    (List.length report.acquisitions);
  List.iter
    (fun (pid, n) ->
      Alcotest.(check bool)
        (Printf.sprintf "grant (p%d, name %d) reconstructed" pid n)
        true
        (List.exists
           (fun (a : Obs.Analyze.acquisition) -> a.pid = pid && a.name = n)
           report.acquisitions))
    grants

(* ----- synthetic violations are caught ----- *)

let test_check_flags_violations () =
  let loc = Loc.Splitter { stage = 0; node = 0 } in
  let ring = Flight.create ~capacity:32 () in
  (* two processes inside (l = 2), both assigned direction +1: the
     per-direction bound is max 1 (l - 1) = 1 *)
  Flight.record ring ~clock:1 ~pid:1 (Flight.Enter loc);
  Flight.record ring ~clock:2 ~pid:2 (Flight.Enter loc);
  Flight.record ring ~clock:3 ~pid:1 (Flight.Exit (loc, 1));
  Flight.record ring ~clock:4 ~pid:2 (Flight.Exit (loc, 1));
  (match Obs.Analyze.check (Obs.Analyze.analyze (Flight.items ring)) with
  | [] -> Alcotest.fail "splitter direction overflow not flagged"
  | v :: _ ->
      Alcotest.(check bool) "message names the splitter" true
        (Test_util.contains ~sub:"splitter" v));
  (* three processes inside one 2-process mutex block *)
  let mloc = Loc.Mutex { stage = 0; tree = 1; level = 1; node = 0 } in
  let ring = Flight.create ~capacity:32 () in
  List.iteri
    (fun i pid -> Flight.record ring ~clock:(i + 1) ~pid (Flight.Enter mloc))
    [ 1; 2; 3 ];
  (match Obs.Analyze.check (Obs.Analyze.analyze (Flight.items ring)) with
  | [] -> Alcotest.fail "mutex over-occupancy not flagged"
  | v :: _ ->
      Alcotest.(check bool) "message names the mutex" true
        (Test_util.contains ~sub:"mutex" v));
  (* an acquisition blocked in 3 distinct trees against a bound of 2 *)
  let block m = Loc.Mutex { stage = 0; tree = m; level = 1; node = 0 } in
  let ring = Flight.create ~capacity:32 () in
  List.iteri
    (fun i m ->
      Flight.record ring ~clock:(i + 1) ~pid:1 (Flight.Check (block m, false)))
    [ 2; 4; 6 ];
  Flight.record ring ~clock:9 ~pid:1 (Flight.Check (block 8, true));
  Flight.record ring ~clock:10 ~pid:1 (Flight.Acquired 8);
  let report = Obs.Analyze.analyze (Flight.items ring) in
  Alcotest.(check int) "three blocked trees" 3 report.max_blocked_trees;
  Alcotest.(check bool) "within a loose bound" true
    (Obs.Analyze.check ~blocked_bound:3 report = []);
  match Obs.Analyze.check ~blocked_bound:2 report with
  | [] -> Alcotest.fail "blocked-tree bound violation not flagged"
  | v :: _ ->
      Alcotest.(check bool) "message names blocked trees" true
        (Test_util.contains ~sub:"blocked" v)

(* ----- FILTER: Lemma 9 bound on blocked trees ----- *)

let test_filter_blocked_bound () =
  let k = 3 and s = 27 in
  let ring, (p : Params.filter_params), _ = record_filter_run ~k ~s ~cycles:2 ~seed:5 in
  let report = Obs.Analyze.analyze (Flight.items ring) in
  let bound = p.d * (k - 1) in
  Alcotest.(check (list string))
    (Printf.sprintf "blocked trees within d(k-1) = %d" bound)
    []
    (Obs.Analyze.check ~blocked_bound:bound report);
  Alcotest.(check bool) "run produced grants" true (report.acquisitions <> []);
  Alcotest.(check bool) "every grant won the tree of its name" true
    (List.for_all
       (fun (a : Obs.Analyze.acquisition) -> a.won_tree = Some a.name)
       report.acquisitions)

(* ----- Loc lint: unique, seed-stable, within declared bounds ----- *)

let locs_of records =
  List.filter_map
    (fun (r : Flight.record) ->
      match r.event with
      | Flight.Enter l | Flight.Exit (l, _) | Flight.Check (l, _) | Flight.Release l
        ->
          Some l
      | Flight.Acquired _ | Flight.Released _ | Flight.Mark _ -> None)
    records
  |> List.sort_uniq Loc.compare

let test_loc_lint () =
  (* SPLIT(k=4): 13 interior splitters, stage 0, heap numbering *)
  let k = 4 in
  let interior = (Numeric.Intmath.pow 3 (k - 1) - 1) / 2 in
  let run1 = locs_of (Flight.items (record_split_run ~k ~procs:4 ~cycles:3 ~seed:7)) in
  let run2 = locs_of (Flight.items (record_split_run ~k ~procs:4 ~cycles:3 ~seed:7)) in
  Alcotest.(check bool) "split labels stable across identically-seeded runs" true
    (List.equal Loc.equal run1 run2);
  List.iter
    (fun l ->
      match l with
      | Loc.Splitter { stage; node } ->
          Alcotest.(check int) "split stage 0" 0 stage;
          Alcotest.(check bool)
            (Printf.sprintf "splitter node %d within the tree" node)
            true
            (node >= 0 && node < interior)
      | Loc.Mutex _ -> Alcotest.fail "SPLIT run emitted a mutex label")
    run1;
  Alcotest.(check int) "split codes unique" (List.length run1)
    (List.length (List.sort_uniq compare (List.map Loc.encode run1)));
  (* FILTER(k=3, S=27): trees keyed by destination name, binary trees
     over the source space *)
  let k = 3 and s = 27 in
  let ring1, _, name_space = record_filter_run ~k ~s ~cycles:2 ~seed:9 in
  let ring2, _, _ = record_filter_run ~k ~s ~cycles:2 ~seed:9 in
  let f1 = locs_of (Flight.items ring1) and f2 = locs_of (Flight.items ring2) in
  Alcotest.(check bool) "filter labels stable across identically-seeded runs" true
    (List.equal Loc.equal f1 f2);
  let levels = Numeric.Intmath.ceil_log2 (max s 2) in
  List.iter
    (fun l ->
      match l with
      | Loc.Mutex { stage; tree; level; node } ->
          Alcotest.(check int) "filter stage 0" 0 stage;
          Alcotest.(check bool)
            (Printf.sprintf "tree %d a legal destination name" tree)
            true
            (tree >= 0 && tree < name_space);
          Alcotest.(check bool)
            (Printf.sprintf "level %d within 1..%d" level levels)
            true
            (level >= 1 && level <= levels);
          Alcotest.(check bool)
            (Printf.sprintf "node %d within level %d" node level)
            true
            (node >= 0 && node < 1 lsl (levels - level))
      | Loc.Splitter _ -> Alcotest.fail "FILTER run emitted a splitter label")
    f1;
  Alcotest.(check int) "filter codes unique" (List.length f1)
    (List.length (List.sort_uniq compare (List.map Loc.encode f1)))

(* ----- Chrome trace-event export: a minimal JSON schema check ----- *)

(* A tiny hand-rolled JSON parser (no JSON library in the image): just
   enough of RFC 8259 to validate the exporter's output shape. *)
type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then advance () else fail (Printf.sprintf "expected %c" c)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some (('"' | '\\' | '/') as c) ->
              Buffer.add_char buf c;
              advance ();
              go ()
          | Some 'n' ->
              Buffer.add_char buf '\n';
              advance ();
              go ()
          | Some 't' ->
              Buffer.add_char buf '\t';
              advance ();
              go ()
          | Some 'r' ->
              Buffer.add_char buf '\r';
              advance ();
              go ()
          | Some 'b' ->
              Buffer.add_char buf '\b';
              advance ();
              go ()
          | Some 'f' ->
              Buffer.add_char buf '\012';
              advance ();
              go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then fail "truncated \\u escape";
              (* keep the raw escape; code points don't matter here *)
              Buffer.add_string buf (String.sub s !pos 4);
              pos := !pos + 4;
              go ()
          | _ -> fail "bad escape")
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let literal word v =
    if
      !pos + String.length word <= n
      && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((key, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((key, v) :: acc)
            | _ -> fail "expected , or }"
          in
          Obj (members [])
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected , or ]"
          in
          Arr (elements [])
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let test_perfetto_schema () =
  let ring = record_split_run ~k:4 ~procs:4 ~cycles:2 ~seed:13 in
  let doc = Obs.Perfetto.to_chrome_json (Flight.items ring) in
  let json =
    match parse_json doc with
    | j -> j
    | exception Bad_json m -> Alcotest.fail ("export is not valid JSON: " ^ m)
  in
  let top =
    match json with Obj kvs -> kvs | _ -> Alcotest.fail "top level not an object"
  in
  let events =
    match List.assoc_opt "traceEvents" top with
    | Some (Arr evs) -> evs
    | _ -> Alcotest.fail "traceEvents missing or not an array"
  in
  Alcotest.(check bool) "events nonempty" true (events <> []);
  let field k ev = match ev with Obj kvs -> List.assoc_opt k kvs | _ -> None in
  (* async b/e pairs balance per (id, tid); duration B/E per tid — a
     clean run closes every interval, and an end must never precede
     its begin *)
  let balance : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      (match ev with Obj _ -> () | _ -> Alcotest.fail "event not an object");
      let ph =
        match field "ph" ev with
        | Some (Str p) -> p
        | _ -> Alcotest.fail "event without ph"
      in
      Alcotest.(check bool)
        (Printf.sprintf "known phase %S" ph)
        true
        (List.mem ph [ "M"; "b"; "e"; "B"; "E"; "i" ]);
      (match field "name" ev with
      | Some (Str _) -> ()
      | _ -> Alcotest.fail "event without a name string");
      if ph <> "M" then begin
        (match field "ts" ev with
        | Some (Num _) -> ()
        | _ -> Alcotest.fail "event without numeric ts");
        match (field "pid" ev, field "tid" ev) with
        | Some (Num _), Some (Num _) -> ()
        | _ -> Alcotest.fail "event without numeric pid/tid"
      end;
      match ph with
      | "b" | "e" ->
          let key =
            match (field "id" ev, field "tid" ev) with
            | Some (Str i), Some (Num t) -> Printf.sprintf "%s/%g" i t
            | _ -> Alcotest.fail "async event without a string id"
          in
          let d = if ph = "b" then 1 else -1 in
          let v = Option.value ~default:0 (Hashtbl.find_opt balance key) + d in
          if v < 0 then Alcotest.fail ("async end before begin for " ^ key);
          Hashtbl.replace balance key v
      | "B" | "E" ->
          let key =
            match field "tid" ev with
            | Some (Num t) -> Printf.sprintf "tid%g" t
            | _ -> Alcotest.fail "duration event without tid"
          in
          let d = if ph = "B" then 1 else -1 in
          let v = Option.value ~default:0 (Hashtbl.find_opt balance key) + d in
          if v < 0 then Alcotest.fail ("duration end before begin on " ^ key);
          Hashtbl.replace balance key v
      | _ -> ())
    events;
  Hashtbl.iter
    (fun key v ->
      Alcotest.(check int) (Printf.sprintf "interval %s closed" key) 0 v)
    balance;
  match List.assoc_opt "otherData" top with
  | Some (Obj other) -> (
      match List.assoc_opt "schema" other with
      | Some (Str "renaming.flight/v1") -> ()
      | _ -> Alcotest.fail "otherData.schema missing")
  | _ -> Alcotest.fail "otherData missing"

let () =
  Alcotest.run "flight"
    [
      ( "loc",
        [
          Alcotest.test_case "encode/decode roundtrip + bounds" `Quick
            test_loc_roundtrip;
          Alcotest.test_case "lint: unique, stable, in-bounds" `Quick test_loc_lint;
        ] );
      ( "ring",
        [
          Alcotest.test_case "overflow + merge accounting" `Quick
            test_ring_overflow_and_merge;
          Alcotest.test_case "to_string/of_string roundtrip" `Quick
            test_ring_serialization_roundtrip;
          Alcotest.test_case "of_string rejects garbage" `Quick
            test_of_string_rejects_garbage;
          Alcotest.test_case "seq-store probe wiring" `Quick
            test_seq_store_probe_events;
        ] );
      ( "analyze",
        [
          Alcotest.test_case "SPLIT occupancy + name provenance" `Quick
            test_split_analysis;
          Alcotest.test_case "every grant reconstructed" `Quick
            test_split_provenance_complete;
          Alcotest.test_case "synthetic violations flagged" `Quick
            test_check_flags_violations;
          Alcotest.test_case "FILTER blocked trees within d(k-1)" `Quick
            test_filter_blocked_bound;
        ] );
      ( "export",
        [
          Alcotest.test_case "Chrome trace-event schema" `Quick test_perfetto_schema;
        ] );
    ]
