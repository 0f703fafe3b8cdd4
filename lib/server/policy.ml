type t = {
  seed : int;
  retries : int;
  base_spins : int;
  cap_spins : int;
  deadline_ns : int;
}

let make ?(seed = 0x5EED) ?(retries = 8) ?(base_spins = 64)
    ?(cap_spins = 8192) ?(deadline_ns = 0) () =
  if retries < 0 then invalid_arg "Policy.make: retries < 0";
  if base_spins < 1 then invalid_arg "Policy.make: base_spins < 1";
  if cap_spins < base_spins then invalid_arg "Policy.make: cap_spins < base_spins";
  if deadline_ns < 0 then invalid_arg "Policy.make: deadline_ns < 0";
  { seed; retries; base_spins; cap_spins; deadline_ns }

let default = make ()

(* Stateless jitter: a seeded avalanche of (seed, client, attempt), so
   every spin count is a pure function of its coordinates — replayable,
   and property-testable without a PRNG object. *)
let mix a b c =
  let h = ref ((a * 0x9E3779B9) lxor (b * 0x85EBCA6B) lxor (c * 0xC2B2AE35)) in
  h := !h lxor (!h lsr 16);
  h := !h * 0x7FEB352D land max_int;
  h := !h lxor (!h lsr 15);
  !h land max_int

let backoff_spins t ~client ~attempt =
  if attempt < 0 then invalid_arg "Policy.backoff_spins: attempt < 0";
  let expo = t.base_spins lsl min attempt 20 in
  let expo = if expo <= 0 then t.cap_spins else expo (* shift overflow *) in
  let jitter = mix t.seed client (attempt + 1) mod (t.base_spins + 1) in
  max 1 (min t.cap_spins (expo + jitter))

type 'a outcome =
  | Granted of { value : 'a; retries : int }
  | Deadline_exceeded of { retries : int }
  | Shed of { retries : int; early : bool }

let spin n =
  for _ = 1 to n do
    Domain.cpu_relax ()
  done

(* Short waits spin; long ones sleep (≈10 ns per spin-equivalent).
   Sleeping yields the OS timeslice, which is what lets backoff work
   at all on an oversubscribed host: the claim holder we are waiting
   out needs the core we would otherwise be burning. *)
let wait n = if n <= 512 then spin n else Unix.sleepf (float_of_int n *. 1e-8)

let drive t ~client ~now_ns ?(p99_ns = fun () -> 0) ~attempt () =
  (* Deadline-aware shedding: when the telemetry window's p99 already
     burns the whole deadline, the expected wait exceeds what we are
     prepared to pay — give up before spending a single attempt. *)
  if t.deadline_ns > 0 && p99_ns () >= t.deadline_ns then
    Shed { retries = 0; early = true }
  else begin
    let start = if t.deadline_ns > 0 then now_ns () else 0 in
    let rec go n =
      match attempt () with
      | Ok v -> Granted { value = v; retries = n }
      | Error (`Busy | `Shed) ->
          if n >= t.retries then Shed { retries = n; early = false }
          else if t.deadline_ns > 0 && now_ns () - start >= t.deadline_ns then
            Deadline_exceeded { retries = n }
          else begin
            wait (backoff_spins t ~client ~attempt:n);
            go (n + 1)
          end
    in
    go 0
  end

let to_string t =
  Printf.sprintf "retries=%d,base=%d,cap=%d,deadline_ns=%d,seed=%d" t.retries
    t.base_spins t.cap_spins t.deadline_ns t.seed

let of_string s =
  let parse_kv acc kv =
    match acc with
    | Error _ -> acc
    | Ok p -> (
        match String.index_opt kv '=' with
        | None -> Error (Printf.sprintf "expected key=value, got %S" kv)
        | Some i -> (
            let k = String.sub kv 0 i in
            let v = String.sub kv (i + 1) (String.length kv - i - 1) in
            match int_of_string_opt v with
            | None -> Error (Printf.sprintf "%s: not an integer: %S" k v)
            | Some v -> (
                match k with
                | "retries" -> Ok { p with retries = v }
                | "base" -> Ok { p with base_spins = v }
                | "cap" -> Ok { p with cap_spins = v }
                | "deadline_ns" -> Ok { p with deadline_ns = v }
                | "deadline_ms" -> Ok { p with deadline_ns = v * 1_000_000 }
                | "seed" -> Ok { p with seed = v }
                | _ -> Error (Printf.sprintf "unknown policy key %S" k))))
  in
  let parts =
    String.split_on_char ',' (String.trim s)
    |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  match List.fold_left parse_kv (Ok default) parts with
  | Error _ as e -> e
  | Ok p ->
      if p.retries < 0 then Error "retries < 0"
      else if p.base_spins < 1 then Error "base < 1"
      else if p.cap_spins < p.base_spins then Error "cap < base"
      else if p.deadline_ns < 0 then Error "deadline < 0"
      else Ok p
