(* End-to-end exit-code and diagnostic checks on the built CLI.
   dune runs tests from _build/default/test, and test/dune declares
   ../bin/main.exe as a dependency, so the binary is always fresh. *)

let exe = Filename.concat ".." (Filename.concat "bin" "main.exe")

(* Run a command with stdout/stderr captured; return (exit code, output).
   Sys.command goes through sh, so plain redirection syntax works. *)
let run args =
  let out = Filename.temp_file "renaming_cli" ".out" in
  let code = Sys.command (Printf.sprintf "%s %s > %s 2>&1" exe args (Filename.quote out)) in
  let ic = open_in_bin out in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (code, text)

let check_contains what output needle =
  if not (Test_util.contains ~sub:needle output) then
    Alcotest.failf "%s: output does not mention %S:\n%s" what needle output

(* ----- observe: the failure path must actually fail ----- *)

let test_observe_ok () =
  let code, out = run "observe -p ma -k 2 -s 8 -c 3" in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "observe" out "OK"

let test_observe_mutant_fails () =
  (* the seeded cost mutant exceeds the Moir-Anderson access bound;
     observe must exit nonzero and say which bound broke *)
  let code, out = run "observe -p ma -k 2 -s 8 -c 3 --mutant" in
  Alcotest.(check bool) "nonzero exit" true (code <> 0);
  check_contains "observe --mutant" out "VIOLATED";
  check_contains "observe --mutant" out "Moir-Anderson bound"

(* ----- faults: campaign and reproduction modes ----- *)

let test_faults_single_target () =
  let code, out = run "faults --target mutant:ma-costly --matrix 2" in
  Alcotest.(check int) "mutant killed => exit 0" 0 code;
  check_contains "faults" out "killed"

let test_faults_correct_target () =
  let code, out = run "faults --target splitter --matrix 2" in
  Alcotest.(check int) "correct target clean => exit 0" 0 code;
  check_contains "faults" out "clean"

let test_faults_json () =
  let code, out = run "faults --target mutant:ma-costly --matrix 1 --json" in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "faults --json" out "renaming.faults/v1"

let test_faults_crash_matrix_json () =
  (* without --target the crash matrix follows the mutant matrix and
     its report is nested in the JSON document; one seed is too few to
     kill every mutant, so only the crash half's verdict is checked *)
  let _, out = run "faults --matrix 1 --json" in
  check_contains "faults --json" out
    {|"crash":{"schema":"renaming.crash/v1","matrix_size":1,"ok":true|};
  check_contains "faults --json" out "\"split+reset\""

let test_faults_crash_matrix_table () =
  (* one seed leaves a mutant alive, so the mutant half fails; the crash
     table must still be printed after it, and the exit code reflects
     the failed half *)
  let code, out = run "faults --matrix 1" in
  Alcotest.(check int) "a failed half => exit 1" 1 code;
  check_contains "faults" out "campaign: FAILED";
  check_contains "faults" out "split+reset              survived";
  check_contains "faults" out "pipeline                 leaked";
  check_contains "faults" out "crash matrix: OK"

let test_faults_reproduction () =
  (* reproduce a known kill: parking the holder breaks the turn-lost
     mutex mutant (found by the campaign, pinned here) *)
  let code, out =
    run "faults --target mutant:mutex-turn-lost --plan 'park@p0:acquire' --seed 64085"
  in
  Alcotest.(check int) "violation => exit 1" 1 code;
  check_contains "faults repro" out "VIOLATION";
  check_contains "faults repro" out "park@p0:acquire"

let test_faults_repro_clean () =
  (* the same plan cannot hurt the correct mutex *)
  let code, out = run "faults --target pf_mutex --plan 'park@p0:acquire' --seed 64085" in
  Alcotest.(check int) "no violation => exit 0" 0 code;
  check_contains "faults repro" out "survived"

let test_faults_bad_plan () =
  let code, _ = run "faults --target splitter --plan 'warp@p0:acc1'" in
  Alcotest.(check int) "unparsable plan => exit 2" 2 code

let test_faults_unknown_target () =
  let code, _ = run "faults --target no-such --plan 'park@p0:acc1'" in
  Alcotest.(check int) "unknown target => exit 2" 2 code

(* ----- trace: the flight-recorder subcommands ----- *)

let with_ring_file f =
  let file = Filename.temp_file "renaming_flight" ".txt" in
  let code, out =
    run (Printf.sprintf "trace record -p split -k 4 --seed 7 -o %s" (Filename.quote file))
  in
  Alcotest.(check int) "record exit code" 0 code;
  check_contains "trace record" out "recorded";
  Fun.protect ~finally:(fun () -> Sys.remove file) (fun () -> f file)

let test_trace_record_analyze () =
  with_ring_file (fun file ->
      let code, out = run (Printf.sprintf "trace analyze --file %s" (Filename.quote file)) in
      Alcotest.(check int) "clean run => exit 0" 0 code;
      check_contains "trace analyze" out "occupancy";
      check_contains "trace analyze" out "OK";
      check_contains "trace analyze" out "depth 0")

let test_trace_export_json () =
  with_ring_file (fun file ->
      let code, out = run (Printf.sprintf "trace export --file %s" (Filename.quote file)) in
      Alcotest.(check int) "exit code" 0 code;
      check_contains "trace export" out "traceEvents";
      check_contains "trace export" out "renaming.flight/v1")

let test_trace_provenance () =
  with_ring_file (fun file ->
      let code, out =
        run (Printf.sprintf "trace provenance --file %s" (Filename.quote file))
      in
      Alcotest.(check int) "exit code" 0 code;
      check_contains "trace provenance" out "acquired name";
      check_contains "trace provenance" out "splitter")

let test_trace_provenance_no_match () =
  with_ring_file (fun file ->
      let code, _ =
        run (Printf.sprintf "trace provenance --file %s --pid 999" (Filename.quote file))
      in
      Alcotest.(check int) "no matching acquisition => exit 1" 1 code)

let test_trace_bad_file () =
  let file = Filename.temp_file "renaming_flight" ".txt" in
  let oc = open_out file in
  output_string oc "not a flight document\n";
  close_out oc;
  let code, _ =
    Fun.protect
      ~finally:(fun () -> Sys.remove file)
      (fun () -> run (Printf.sprintf "trace analyze --file %s" (Filename.quote file)))
  in
  Alcotest.(check int) "unparsable document => exit 2" 2 code

let test_trace_analyze_no_acquisition () =
  (* a ring with records but no acquisition checks nothing: fail *)
  let ring = Obs.Flight.create () in
  Obs.Flight.record ring ~clock:1 ~pid:0 (Obs.Flight.Mark ("drain", 1));
  let file = Filename.temp_file "renaming_flight" ".txt" in
  let oc = open_out file in
  output_string oc (Obs.Flight.to_string ring);
  close_out oc;
  let code, out =
    Fun.protect
      ~finally:(fun () -> Sys.remove file)
      (fun () -> run (Printf.sprintf "trace analyze --file %s" (Filename.quote file)))
  in
  Alcotest.(check int) "no acquisition => exit 1" 1 code;
  check_contains "trace analyze" out "no acquisition recorded"

(* ----- real domains: bare protocol runs through the name server ----- *)

let test_domains_clean () =
  let code, out = run "domains -p split -k 3" in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "domains" out "violations     : 0"

let test_observe_domains () =
  let code, out = run "observe -p split --domains 3" in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "observe --domains" out "Theorem 2 bound: worst observed GetName"

let test_observe_domains_mutant () =
  let code, out = run "observe --mutant --domains 3" in
  Alcotest.(check bool) "nonzero exit" true (code <> 0);
  check_contains "observe --mutant --domains" out "VIOLATED"

let test_trace_analyze_domains () =
  let code, out = run "trace analyze -p filter --domains 3" in
  Alcotest.(check int) "exit code" 0 code;
  let acquisitions =
    List.find_map
      (fun l -> Scanf.sscanf_opt l "acquisitions : %d" Fun.id)
      (String.split_on_char '\n' out)
  in
  Alcotest.(check bool) "some acquisitions analyzed" true
    (match acquisitions with Some n -> n > 0 | None -> false)

(* ----- journeys: observe tail and server --journeys ----- *)

let test_observe_tail () =
  let code, out =
    run "observe tail --shards 2 --clients 3 --requests 300 -s 256 --seed 3"
  in
  Alcotest.(check int) "explained tail => exit 0" 0 code;
  check_contains "observe tail" out "journey #";
  check_contains "observe tail" out "tail verdict";
  check_contains "observe tail" out "top blame"

let test_observe_tail_json () =
  let code, out =
    run "observe tail --shards 2 --clients 3 --requests 300 -s 256 --seed 3 --json"
  in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "observe tail --json" out "renaming.journeys/v1";
  check_contains "observe tail --json" out "\"top_blame_stage\"";
  check_contains "observe tail --json" out "\"tail_p999_ns\"";
  check_contains "observe tail --json" out "\"blame_ns\""

let test_observe_tail_bad_plan () =
  let code, _ = run "observe tail --plan 'warp@p0:acc1'" in
  Alcotest.(check int) "unparsable plan => exit 2" 2 code

let test_observe_tail_export_round_trip () =
  (* the saved journeys document feeds trace export as extra lanes *)
  let jfile = Filename.temp_file "renaming_journeys" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove jfile)
    (fun () ->
      let code, _ =
        run
          (Printf.sprintf
             "observe tail --shards 2 --clients 2 --requests 200 -s 128 -o %s"
             (Filename.quote jfile))
      in
      Alcotest.(check int) "tail -o exit code" 0 code;
      with_ring_file (fun ring ->
          let code, out =
            run
              (Printf.sprintf "trace export --file %s --journeys %s"
                 (Filename.quote ring) (Filename.quote jfile))
          in
          Alcotest.(check int) "export exit code" 0 code;
          check_contains "trace export --journeys" out "traceEvents";
          check_contains "trace export --journeys" out "journeys"))

let test_server_journeys () =
  let code, out = run "server --journeys --clients 3 --requests 500 -s 256 --seed 5" in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "server --journeys" out "tail blame"

let test_server_journeys_json () =
  let code, out =
    run "server --journeys --clients 3 --requests 500 -s 256 --seed 5 --json"
  in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "server --journeys --json" out "renaming.server/v1";
  check_contains "server --journeys --json" out "\"tail_blame\"";
  check_contains "server --journeys --json" out "\"tail_p999_ns\""

let test_trace_default_dump () =
  (* the bare `trace` subcommand keeps its original access-dump behavior *)
  let code, out = run "trace -p ma -k 2 -s 8 --tail 5" in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "trace dump" out "accesses total"

(* ----- server: option combinations ----- *)

(* --chaos runs its own plans; a --policy beside it would be dropped
   without a word, so the combination is refused before any run *)
let test_server_chaos_policy () =
  let code, out = run "server --chaos --matrix 1 --policy retries=3" in
  Alcotest.(check int) "--chaos with --policy => exit 2" 2 code;
  check_contains "server --chaos --policy" out "--policy does not apply to --chaos"

let () =
  Alcotest.run "cli"
    [
      ( "observe",
        [
          Alcotest.test_case "correct run exits 0" `Quick test_observe_ok;
          Alcotest.test_case "mutant bound violation exits nonzero" `Quick
            test_observe_mutant_fails;
        ] );
      ( "faults",
        [
          Alcotest.test_case "mutant target" `Quick test_faults_single_target;
          Alcotest.test_case "correct target" `Quick test_faults_correct_target;
          Alcotest.test_case "json report" `Quick test_faults_json;
          Alcotest.test_case "crash matrix json" `Quick test_faults_crash_matrix_json;
          Alcotest.test_case "crash matrix table" `Quick test_faults_crash_matrix_table;
          Alcotest.test_case "reproduction violates" `Quick test_faults_reproduction;
          Alcotest.test_case "reproduction clean" `Quick test_faults_repro_clean;
          Alcotest.test_case "bad plan" `Quick test_faults_bad_plan;
          Alcotest.test_case "unknown target" `Quick test_faults_unknown_target;
        ] );
      ( "trace",
        [
          Alcotest.test_case "record then analyze" `Quick test_trace_record_analyze;
          Alcotest.test_case "export trace-event json" `Quick test_trace_export_json;
          Alcotest.test_case "provenance paths" `Quick test_trace_provenance;
          Alcotest.test_case "provenance filter miss" `Quick
            test_trace_provenance_no_match;
          Alcotest.test_case "bad flight document" `Quick test_trace_bad_file;
          Alcotest.test_case "default dump preserved" `Quick test_trace_default_dump;
          Alcotest.test_case "no acquisition fails" `Quick
            test_trace_analyze_no_acquisition;
        ] );
      ( "domains",
        [
          Alcotest.test_case "domains run clean" `Quick test_domains_clean;
          Alcotest.test_case "observe --domains bound line" `Quick test_observe_domains;
          Alcotest.test_case "observe --mutant --domains fails" `Quick
            test_observe_domains_mutant;
          Alcotest.test_case "trace analyze --domains" `Quick test_trace_analyze_domains;
        ] );
      ( "journeys",
        [
          Alcotest.test_case "observe tail waterfalls" `Quick test_observe_tail;
          Alcotest.test_case "observe tail json schema" `Quick test_observe_tail_json;
          Alcotest.test_case "observe tail bad plan" `Quick test_observe_tail_bad_plan;
          Alcotest.test_case "journeys into trace export" `Quick
            test_observe_tail_export_round_trip;
          Alcotest.test_case "server --journeys" `Quick test_server_journeys;
          Alcotest.test_case "server --journeys json" `Quick test_server_journeys_json;
        ] );
      ("server", [ Alcotest.test_case "--chaos --policy" `Quick test_server_chaos_policy ]);
    ]
