(* perfbench: the name server driven by the benchmark's own clients.

     main.exe --workload W --seed N --seconds S --trace 0|1

   Prints every metric by name and unit, a context line, and as the last
   line one JSON object {correct, attempted, failed, metrics}.  Exits 1
   when an output check fails, 2 on bad arguments. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let names = String.concat ", " (List.map (fun (w : Perfbench.Drive.workload) -> w.name) Perfbench.Drive.workloads) in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " one of: " ^ names);
      ("--seed", Arg.Set_int seed, " input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, " length of the timed phase (default 10)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
    ]
  in
  let usage = "main.exe --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let fail msg =
    prerr_endline msg;
    exit 2
  in
  if !seconds < 0.5 then fail "--seconds must be at least 0.5";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  match Perfbench.Drive.find !workload with
  | None -> fail (Printf.sprintf "unknown workload %S (one of: %s)" !workload names)
  | Some w ->
      let seconds = !seconds in
      let ok =
        if !trace = 1 then Perfbench.Bench.traced w ~seed:!seed ~seconds
        else Perfbench.Bench.e2e w ~seed:!seed ~seconds
      in
      exit (if ok then 0 else 1)
