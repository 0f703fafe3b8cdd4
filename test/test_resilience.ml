(* The resilience layer, checked three ways: exhaustive 2-process
   interleaving models of the claim gate and of a superseded reclaimer
   scan (with seeded mutants that must die), QCheck2 properties of the
   backoff policy, and a one-seed smoke of the whole chaos campaign.

   The interleaving models are hand-rolled: each process is a small
   program counter over atomic steps on a shared record, and the
   checker DFS-enumerates every schedule.  The state spaces are tiny
   (tens of states), so closure is total — no sampling, no
   reductions.  What the models pin down is exactly the two arguments
   the server code makes in prose: two clients routed to different
   shards cannot both hold one source because the claim CAS is the
   gate, not the route; and a scan that a newer scan's ticket
   superseded cannot double-retire a slot because the per-slot fence
   CAS is the gate, not the scan-id check. *)

(* ----- exhaustive 2-proc interleaving checker ----- *)

(* A process is (pc, step): [step state pc] runs one atomic action and
   returns the next pc, or None when done.  [explore] runs every
   interleaving from a fresh state and folds [violated] over final
   states; state is copied via [clone] so branches don't alias. *)
let explore ~init ~clone ~step ~procs ~violated =
  let bad = ref None in
  let rec go state pcs =
    let live =
      List.filteri (fun _ pc -> pc >= 0) pcs |> List.length
    in
    if live = 0 then begin
      match violated state with
      | Some msg -> if !bad = None then bad := Some msg
      | None -> ()
    end
    else
      List.iteri
        (fun i pc ->
          if pc >= 0 && !bad = None then begin
            let state' = clone state in
            let pc' = match step state' i pc with Some p -> p | None -> -1 in
            go state' (List.mapi (fun j p -> if j = i then pc' else p) pcs)
          end)
        pcs
  in
  go init (List.init procs (fun _ -> 0));
  !bad

(* ----- model 1: claim gate ----- *)

(* Both processes ask for the same source.  Client-affine routing sends
   each one's grant to a shard of its own, so no shard's admission
   stands between them; they race only on the source's claim word.
   Steps: read the claim word, CAS it, bind a slot.  Correctness: at
   most one process ever holds the source, no matter the schedule — the
   claim CAS is what guarantees it, the route guarantees nothing. *)
type claim_state = {
  mutable claim : int; (* 0 free, else pid+1 *)
  mutable read : int array; (* each proc's read of [claim] *)
  mutable holders : int list; (* procs that bound a slot *)
}

let claim_clone s = { s with read = Array.copy s.read; holders = s.holders }

let claim_step ~gated s i = function
  | 0 ->
      s.read.(i) <- s.claim;
      Some 1
  | 1 ->
      if gated then
        if s.read.(i) = 0 && s.claim = 0 then begin
          (* CAS claim 0 -> i+1 *)
          s.claim <- i + 1;
          Some 2
        end
        else None (* Busy: give up *)
      else begin
        (* mutant: route checked, claim written blind *)
        s.claim <- i + 1;
        Some 2
      end
  | 2 ->
      s.holders <- i :: s.holders;
      None
  | _ -> None

let claim_violated s =
  if List.length s.holders > 1 then Some "two holders of one source" else None

let test_mc_claim_gate () =
  let run gated =
    explore
      ~init:{ claim = 0; read = [| 0; 0 |]; holders = [] }
      ~clone:claim_clone ~step:(claim_step ~gated) ~procs:2
      ~violated:claim_violated
  in
  (match run true with
  | None -> ()
  | Some m -> Alcotest.failf "claim gate broken: %s" m);
  match run false with
  | Some _ -> () (* the ungated mutant must be caught *)
  | None -> Alcotest.fail "ungated mutant survived every interleaving"

(* ----- model 2: superseded scan vs in-flight retirement ----- *)

(* Scan O (id 1) is mid-reclaim when S takes the next scan's ticket
   and scans the same slot.  Both try to retire it.  Steps for each:
   check the scan id is still the latest (O only — S just took its
   ticket), CAS the slot fence HELD -> RETIRING, then retire.
   Correctness: the slot is retired exactly once on every schedule.
   The scan-id check alone cannot give that (O may pass it before S
   takes its ticket); the fence CAS does. *)
type scan_state = {
  mutable scans : int; (* id of the latest scan *)
  mutable fence : int; (* 0 held, 1 retiring, 2 free *)
  mutable won : bool array; (* per-proc fence CAS result *)
  mutable retired : int;
}

let scan_clone s = { s with won = Array.copy s.won }

let scan_step ~fenced s i = function
  | 0 ->
      if i = 0 then
        (* O re-checks its scan id before starting the reclaim *)
        if s.scans = 1 then Some 1 else None
      else begin
        (* S takes the next ticket, then scans *)
        s.scans <- 2;
        Some 1
      end
  | 1 ->
      if fenced then
        if s.fence = 0 then begin
          s.fence <- 1;
          s.won.(i) <- true;
          Some 2
        end
        else None (* lost the CAS: someone else is retiring *)
      else begin
        s.won.(i) <- true;
        Some 2
      end
  | 2 ->
      s.retired <- s.retired + 1;
      s.fence <- 2;
      None
  | _ -> None

let scan_violated s =
  if s.retired <> 1 then
    Some (Printf.sprintf "slot retired %d times" s.retired)
  else None

let test_mc_superseded_scan_fence () =
  let run fenced =
    explore
      ~init:{ scans = 1; fence = 0; won = [| false; false |]; retired = 0 }
      ~clone:scan_clone ~step:(scan_step ~fenced) ~procs:2
      ~violated:scan_violated
  in
  (match run true with
  | None -> ()
  | Some m -> Alcotest.failf "fenced retirement broken: %s" m);
  match run false with
  | Some _ -> ()
  | None -> Alcotest.fail "unfenced mutant survived every interleaving"

(* ----- backoff policy properties ----- *)

let policy_gen =
  QCheck2.Gen.(
    map
      (fun ((seed, client), (attempt, (base, capx))) ->
        (seed, client, attempt, base, base + capx))
      (pair (pair int (int_range 0 63))
         (pair (int_range 0 40) (pair (int_range 1 256) (int_range 0 8192)))))

let test_backoff_bounded =
  Test_util.qtest ~count:500 "backoff in [1, cap] at every coordinate"
    policy_gen
    (fun (seed, client, attempt, base, cap) ->
      let p = Server.Policy.make ~seed ~base_spins:base ~cap_spins:cap () in
      let n = Server.Policy.backoff_spins p ~client ~attempt in
      n >= 1 && n <= cap)

let test_backoff_deterministic =
  Test_util.qtest ~count:500 "backoff is a pure function of its coordinates"
    policy_gen
    (fun (seed, client, attempt, base, cap) ->
      let p = Server.Policy.make ~seed ~base_spins:base ~cap_spins:cap () in
      let q = Server.Policy.make ~seed ~base_spins:base ~cap_spins:cap () in
      Server.Policy.backoff_spins p ~client ~attempt
      = Server.Policy.backoff_spins q ~client ~attempt)

let test_backoff_seeds_differ =
  (* jitter must actually decorrelate colliding clients: two seeds
     give a different schedule somewhere in the early attempts (the
     late ones are clamped to the cap for every seed) *)
  Test_util.qtest ~count:300 "different seeds give different schedules"
    QCheck2.Gen.(pair (pair int int) (int_range 0 63))
    (fun ((s1, s2), client) ->
      QCheck2.assume (s1 <> s2);
      let p1 = Server.Policy.make ~seed:s1 () in
      let p2 = Server.Policy.make ~seed:s2 () in
      List.exists
        (fun attempt ->
          Server.Policy.backoff_spins p1 ~client ~attempt
          <> Server.Policy.backoff_spins p2 ~client ~attempt)
        (List.init 7 (fun i -> i)))

let test_backoff_caps_out () =
  (* once the exponential passes the cap, the spin count is exactly
     the cap — including at shift-overflow attempts *)
  let p = Server.Policy.make ~seed:7 ~base_spins:64 ~cap_spins:4096 () in
  List.iter
    (fun attempt ->
      Alcotest.(check int)
        (Printf.sprintf "attempt %d clamps to the cap" attempt)
        4096
        (Server.Policy.backoff_spins p ~client:3 ~attempt))
    [ 6; 10; 20; 40; 1000 ]

(* ----- one-seed chaos smoke ----- *)

let test_chaos_smoke () =
  let seed = List.hd Campaign.default_seeds in
  let outcomes = Campaign.run_chaos ~seeds:[ seed ] ~requests:600 () in
  List.iter
    (fun o ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %#x %s: %s" o.Campaign.co_seed
           (Campaign.chaos_fault_name o.Campaign.co_fault)
           o.Campaign.co_msg)
        true o.Campaign.co_ok)
    outcomes;
  Alcotest.(check bool) "the campaign killed someone" true
    (Campaign.chaos_ok outcomes)

let () =
  Alcotest.run "resilience"
    [
      ( "modelcheck",
        [
          Alcotest.test_case "claim gate, 2 procs exhaustive" `Quick test_mc_claim_gate;
          Alcotest.test_case "superseded scan vs retirement fence, 2 procs exhaustive"
            `Quick test_mc_superseded_scan_fence;
        ] );
      ( "backoff",
        [
          test_backoff_bounded;
          test_backoff_deterministic;
          test_backoff_seeds_differ;
          Alcotest.test_case "clamps to the cap" `Quick test_backoff_caps_out;
        ] );
      ( "chaos",
        [ Alcotest.test_case "one-seed campaign" `Quick test_chaos_smoke ] );
    ]
