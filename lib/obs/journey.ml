type stage =
  | Backoff
  | Admission
  | Claim
  | Acquire
  | Release
  | Retire
  | Reclaim

let stages =
  [| Backoff; Admission; Claim; Acquire; Release; Retire; Reclaim |]

let nstages = Array.length stages

let stage_index = function
  | Backoff -> 0
  | Admission -> 1
  | Claim -> 2
  | Acquire -> 3
  | Release -> 4
  | Retire -> 5
  | Reclaim -> 6

let stage_name = function
  | Backoff -> "backoff"
  | Admission -> "admission"
  | Claim -> "claim"
  | Acquire -> "acquire"
  | Release -> "release"
  | Retire -> "retire"
  | Reclaim -> "reclaim"

let stage_of_name s =
  let rec go i =
    if i >= nstages then None
    else if stage_name stages.(i) = s then Some stages.(i)
    else go (i + 1)
  in
  go 0

(* ----- flat rows -----

   One journey is [stride] consecutive ints: id, arrival, total,
   retries, accesses, flags, exemplar hash, then one dwell per stage.
   The in-flight journey lives in [scratch]; reservoir slots hold
   preallocated rows that completed journeys are blitted into. *)

let f_id = 0
and f_arrival = 1
and f_total = 2
and f_retries = 3
and f_accesses = 4
and f_flags = 5
and f_hash = 6
and f_dwell = 7

let stride = f_dwell + nstages
let flag_warm = 1
let flag_over = 2

(* deterministic exemplar priority: a pure function of (seed, id), so
   independently built recorders agree on which journeys are "random"
   exemplars and merge stays commutative *)
let exhash seed id =
  let h = ref (id + (seed * 0x9e3779b1)) in
  h := !h lxor (!h lsr 16);
  h := !h * 0x7feb352d;
  h := !h lxor (!h lsr 15);
  h := !h * 0x846ca68b;
  h := !h lxor (!h lsr 16);
  !h land 0x3fffffffffff

(* total order "more tail-worthy": slower first, lower id breaking
   ties — gives top-K sets independent of insertion order *)
let slower a b =
  a.(f_total) > b.(f_total) || (a.(f_total) = b.(f_total) && a.(f_id) < b.(f_id))

(* exemplar order: smaller (hash, id) wins *)
let ex_before a b =
  a.(f_hash) < b.(f_hash) || (a.(f_hash) = b.(f_hash) && a.(f_id) < b.(f_id))

type slot = {
  mutable wid : int;  (* -1 = empty *)
  mutable count : int;
  sblame : int array;
  top : int array array;
  mutable ntop : int;
  mutable wtop : int;  (* index of the weakest top entry, -1 = unknown *)
  ex : int array array;
  mutable nex : int;
  mutable wex : int;
}

type t = {
  windows : int;
  window_ns : int;
  k : int;
  r : int;
  seed : int;
  bound : int;
  scratch : int array;
  mutable inflight : bool;
  slots : slot array;
  worst : int array;
  mutable has_worst : bool;
  blame : int array;
  mutable completed : int;
  mutable flagged : int;
  h : Histogram.t;
}

let make_slot k r =
  {
    wid = -1;
    count = 0;
    sblame = Array.make nstages 0;
    top = Array.init k (fun _ -> Array.make stride 0);
    ntop = 0;
    wtop = -1;
    ex = Array.init r (fun _ -> Array.make stride 0);
    nex = 0;
    wex = -1;
  }

let create ?(windows = 8) ?(window_ns = 5_000_000) ?(k = 8) ?(exemplars = 4) ?(seed = 1)
    ?(bound = 0) () =
  if windows < 1 || k < 1 || exemplars < 0 || window_ns < 1 then
    invalid_arg "Journey.create";
  {
    windows;
    window_ns;
    k;
    r = exemplars;
    seed;
    bound;
    scratch = Array.make stride 0;
    inflight = false;
    slots = Array.init windows (fun _ -> make_slot k exemplars);
    worst = Array.make stride 0;
    has_worst = false;
    blame = Array.make nstages 0;
    completed = 0;
    flagged = 0;
    h = Histogram.create ();
  }

(* ----- hot path ----- *)

let start t ~id ~now =
  if id < 1 then invalid_arg "Journey.start: ids are positive";
  let s = t.scratch in
  Array.fill s 0 stride 0;
  Array.unsafe_set s f_id id;
  Array.unsafe_set s f_arrival now;
  t.inflight <- true

let dwell t stage ns =
  if t.inflight && ns > 0 then begin
    let i = f_dwell + stage_index stage in
    Array.unsafe_set t.scratch i (Array.unsafe_get t.scratch i + ns)
  end

let retry t =
  if t.inflight then
    Array.unsafe_set t.scratch f_retries (Array.unsafe_get t.scratch f_retries + 1)

let accesses t n =
  if t.inflight then
    Array.unsafe_set t.scratch f_accesses (Array.unsafe_get t.scratch f_accesses + n)

let warm t =
  if t.inflight then
    Array.unsafe_set t.scratch f_flags (Array.unsafe_get t.scratch f_flags lor flag_warm)

let active t = t.inflight

(* the slot for an absolute window id; arrivals are monotone per
   recorder, so a mismatch can only mean the ring rotated forward *)
let slot_for t wid =
  let s = t.slots.(wid mod t.windows) in
  if wid > s.wid then begin
    s.wid <- wid;
    s.count <- 0;
    Array.fill s.sblame 0 nstages 0;
    s.ntop <- 0;
    s.wtop <- -1;
    s.nex <- 0;
    s.wex <- -1
  end;
  s

let offer_top t slot row =
  if slot.ntop < t.k then begin
    Array.blit row 0 slot.top.(slot.ntop) 0 stride;
    slot.ntop <- slot.ntop + 1
  end
  else begin
    (* replace the least tail-worthy entry if the candidate beats it;
       its index is cached so the common lose-to-the-weakest case is a
       single compare, and the scan reruns only after a replacement *)
    (if slot.wtop < 0 then begin
       let m = ref 0 in
       for i = 1 to t.k - 1 do
         if slower slot.top.(!m) slot.top.(i) then m := i
       done;
       slot.wtop <- !m
     end);
    if slower row slot.top.(slot.wtop) then begin
      Array.blit row 0 slot.top.(slot.wtop) 0 stride;
      slot.wtop <- -1
    end
  end

let offer_ex t slot row =
  if t.r > 0 then
    if slot.nex < t.r then begin
      Array.blit row 0 slot.ex.(slot.nex) 0 stride;
      slot.nex <- slot.nex + 1
    end
    else begin
      (if slot.wex < 0 then begin
         let m = ref 0 in
         for i = 1 to t.r - 1 do
           if ex_before slot.ex.(!m) slot.ex.(i) then m := i
         done;
         slot.wex <- !m
       end);
      if ex_before row slot.ex.(slot.wex) then begin
        Array.blit row 0 slot.ex.(slot.wex) 0 stride;
        slot.wex <- -1
      end
    end

let fold_in t row =
  let slot = slot_for t (row.(f_arrival) / t.window_ns) in
  slot.count <- slot.count + 1;
  for i = 0 to nstages - 1 do
    let d = row.(f_dwell + i) in
    if d <> 0 then begin
      slot.sblame.(i) <- slot.sblame.(i) + d;
      t.blame.(i) <- t.blame.(i) + d
    end
  done;
  offer_top t slot row;
  offer_ex t slot row;
  if (not t.has_worst) || slower row t.worst then begin
    Array.blit row 0 t.worst 0 stride;
    t.has_worst <- true
  end

let finish t ~now =
  if t.inflight then begin
    t.inflight <- false;
    let s = t.scratch in
    let total = now - s.(f_arrival) in
    s.(f_total) <- (if total < 0 then 0 else total);
    if t.bound > 0 && s.(f_flags) land flag_warm = 0 && s.(f_accesses) > t.bound then begin
      s.(f_flags) <- s.(f_flags) lor flag_over;
      t.flagged <- t.flagged + 1
    end;
    s.(f_hash) <- exhash t.seed s.(f_id);
    t.completed <- t.completed + 1;
    fold_in t s;
    Histogram.observe_ex t.h s.(f_total) ~ex:s.(f_id)
  end

let interfere t stage ~now ns =
  if ns > 0 then begin
    let slot = slot_for t (now / t.window_ns) in
    let i = stage_index stage in
    slot.sblame.(i) <- slot.sblame.(i) + ns;
    t.blame.(i) <- t.blame.(i) + ns
  end

(* ----- views ----- *)

type view = {
  id : int;
  arrival_ns : int;
  total_ns : int;
  retries : int;
  accesses : int;
  warm : bool;
  over_bound : bool;
  dwells : int array;
}

type window = {
  wid : int;
  count : int;
  blame : int array;
  slowest : view list;
  exemplars : view list;
}

type snap = {
  windows : window list;
  worst : view option;
  completed : int;
  flagged : int;
  blame : int array;
}

let view_of_row row =
  {
    id = row.(f_id);
    arrival_ns = row.(f_arrival);
    total_ns = row.(f_total);
    retries = row.(f_retries);
    accesses = row.(f_accesses);
    warm = row.(f_flags) land flag_warm <> 0;
    over_bound = row.(f_flags) land flag_over <> 0;
    dwells = Array.init nstages (fun i -> row.(f_dwell + i));
  }

let rows n arr = List.init n (fun i -> arr.(i))

let snapshot t : snap =
  let windows =
    Array.to_list t.slots
    |> List.filter (fun (s : slot) -> s.wid >= 0)
    |> List.sort (fun (a : slot) b -> compare a.wid b.wid)
    |> List.map (fun (s : slot) ->
           {
             wid = s.wid;
             count = s.count;
             blame = Array.copy s.sblame;
             slowest =
               rows s.ntop s.top
               |> List.sort (fun a b -> if slower a b then -1 else 1)
               |> List.map view_of_row;
             exemplars =
               rows s.nex s.ex
               |> List.sort (fun a b -> compare a.(f_id) b.(f_id))
               |> List.map view_of_row;
           })
  in
  {
    windows;
    worst = (if t.has_worst then Some (view_of_row t.worst) else None);
    completed = t.completed;
    flagged = t.flagged;
    blame = Array.copy t.blame;
  }

let merge ~(into : t) (src : t) =
  if into.windows <> src.windows || into.window_ns <> src.window_ns then
    invalid_arg "Journey.merge: window geometry differs";
  Histogram.merge ~into:into.h src.h;
  for i = 0 to nstages - 1 do
    into.blame.(i) <- into.blame.(i) + src.blame.(i)
  done;
  into.completed <- into.completed + src.completed;
  into.flagged <- into.flagged + src.flagged;
  if src.has_worst && ((not into.has_worst) || slower src.worst into.worst) then begin
    Array.blit src.worst 0 into.worst 0 stride;
    into.has_worst <- true
  end;
  Array.iter
    (fun (s : slot) ->
      if s.wid >= 0 then begin
        let d = into.slots.(s.wid mod into.windows) in
        if s.wid >= d.wid then begin
          let d = slot_for into s.wid in
          d.count <- d.count + s.count;
          for i = 0 to nstages - 1 do
            d.sblame.(i) <- d.sblame.(i) + s.sblame.(i)
          done;
          for i = 0 to s.ntop - 1 do
            offer_top into d s.top.(i)
          done;
          for i = 0 to s.nex - 1 do
            offer_ex into d s.ex.(i)
          done
        end
      end)
    src.slots

let all_rows t =
  let acc = ref [] in
  Array.iter
    (fun (s : slot) ->
      if s.wid >= 0 then begin
        for i = 0 to s.ntop - 1 do
          acc := s.top.(i) :: !acc
        done;
        for i = 0 to s.nex - 1 do
          acc := s.ex.(i) :: !acc
        done
      end)
    t.slots;
  if t.has_worst then acc := t.worst :: !acc;
  !acc

let top ?n t =
  let n = match n with Some n -> n | None -> t.k in
  let seen = Hashtbl.create 16 in
  all_rows t
  |> List.sort (fun a b -> if slower a b then -1 else 1)
  |> List.filter (fun r ->
         if Hashtbl.mem seen r.(f_id) then false
         else begin
           Hashtbl.add seen r.(f_id) ();
           true
         end)
  |> List.filteri (fun i _ -> i < n)
  |> List.map view_of_row

let find t ~id =
  List.find_opt (fun r -> r.(f_id) = id) (all_rows t) |> Option.map view_of_row

let hist t = t.h

let top_blame_stage (s : snap) =
  let m = ref (-1) and mv = ref 0 in
  Array.iteri
    (fun i v ->
      if v > !mv then begin
        m := i;
        mv := v
      end)
    s.blame;
  if !m < 0 then None else Some (stages.(!m), !mv)

let unexplained_tail ?(factor = 100.) t =
  let hs = Histogram.snap t.h in
  if hs.count = 0 then None
  else begin
    let p99 = hs.p99 and p100 = hs.p100 in
    if float_of_int p100 <= factor *. float_of_int p99 then None
    else begin
      let explained =
        List.exists (fun r -> r.(f_total) >= p100) (all_rows t)
      in
      if explained then None else Some (p100, p99)
    end
  end

(* ----- rendering ----- *)

let pp_ns ppf ns =
  if ns >= 1_000_000_000 then Format.fprintf ppf "%.2fs" (float_of_int ns /. 1e9)
  else if ns >= 1_000_000 then Format.fprintf ppf "%.1fms" (float_of_int ns /. 1e6)
  else if ns >= 1_000 then Format.fprintf ppf "%.1fus" (float_of_int ns /. 1e3)
  else Format.fprintf ppf "%dns" ns

let pp_waterfall ppf (v : view) =
  Format.fprintf ppf "journey #%d  total %a  %s  retries %d  accesses %d%s@." v.id pp_ns
    v.total_ns
    (if v.warm then "warm" else "cold")
    v.retries v.accesses
    (if v.over_bound then "  OVER-BOUND" else "");
  let width = 28 in
  let denom = max 1 v.total_ns in
  Array.iteri
    (fun i d ->
      if d > 0 then begin
        let filled =
          min width (max 1 (int_of_float (float_of_int d /. float_of_int denom *. float_of_int width)))
        in
        Format.fprintf ppf "  %-9s |%s%s| %a  %4.1f%%@." (stage_name stages.(i))
          (String.make filled '#')
          (String.make (width - filled) ' ')
          pp_ns d
          (100. *. float_of_int d /. float_of_int denom)
      end)
    v.dwells;
  let accounted = Array.fold_left ( + ) 0 v.dwells in
  if accounted < v.total_ns && v.total_ns > 0 then
    Format.fprintf ppf "  %-9s |%s| %a  %4.1f%%@." "(other)" (String.make width ' ')
      pp_ns (v.total_ns - accounted)
      (100. *. float_of_int (v.total_ns - accounted) /. float_of_int denom)

(* ----- portable text form: "renaming.journeys/v1" -----

   Header, all-time blame (b) and worst (W), then per window: a [w]
   line (wid, count, blame) followed by its [t]op and e[x]emplar rows.
   Row lines: wid id arrival total retries accesses flags dwells. *)

let row_fields row =
  let b = Buffer.create 64 in
  Buffer.add_string b
    (Printf.sprintf "%d %d %d %d %d %d" row.(f_id) row.(f_arrival) row.(f_total)
       row.(f_retries) row.(f_accesses) row.(f_flags));
  for i = 0 to nstages - 1 do
    Buffer.add_string b (Printf.sprintf " %d" row.(f_dwell + i))
  done;
  Buffer.contents b

let to_string (t : t) =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "renaming.journeys/v1 windows=%d window_ns=%d k=%d ex=%d seed=%d bound=%d \
        completed=%d flagged=%d\n"
       t.windows t.window_ns t.k t.r t.seed t.bound t.completed t.flagged);
  Buffer.add_string b "b";
  Array.iter (fun v -> Buffer.add_string b (Printf.sprintf " %d" v)) t.blame;
  Buffer.add_char b '\n';
  if t.has_worst then Buffer.add_string b (Printf.sprintf "W %s\n" (row_fields t.worst));
  Array.to_list t.slots
  |> List.filter (fun (s : slot) -> s.wid >= 0)
  |> List.sort (fun (a : slot) b -> compare a.wid b.wid)
  |> List.iter (fun (s : slot) ->
         Buffer.add_string b (Printf.sprintf "w %d %d" s.wid s.count);
         Array.iter (fun v -> Buffer.add_string b (Printf.sprintf " %d" v)) s.sblame;
         Buffer.add_char b '\n';
         for i = 0 to s.ntop - 1 do
           Buffer.add_string b (Printf.sprintf "t %d %s\n" s.wid (row_fields s.top.(i)))
         done;
         for i = 0 to s.nex - 1 do
           Buffer.add_string b (Printf.sprintf "x %d %s\n" s.wid (row_fields s.ex.(i)))
         done);
  Buffer.contents b

let of_string str =
  let ints l = List.map int_of_string_opt l in
  let all_some l =
    if List.for_all Option.is_some l then Some (List.map Option.get l) else None
  in
  let lines = String.split_on_char '\n' str |> List.filter (fun l -> l <> "") in
  match lines with
  | [] -> Error "empty journeys document"
  | header :: rest -> (
      match String.split_on_char ' ' header with
      | magic :: kvs when magic = "renaming.journeys/v1" -> (
          let kv = Hashtbl.create 8 in
          List.iter
            (fun s ->
              match String.index_opt s '=' with
              | Some i ->
                  Hashtbl.replace kv (String.sub s 0 i)
                    (int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)))
              | None -> ())
            kvs;
          let get k d = match Hashtbl.find_opt kv k with Some (Some v) -> v | _ -> d in
          match
            ( Hashtbl.find_opt kv "windows",
              Hashtbl.find_opt kv "window_ns",
              Hashtbl.find_opt kv "k" )
          with
          | Some (Some windows), Some (Some window_ns), Some (Some k) -> (
              let t =
                create ~windows ~window_ns ~k ~exemplars:(get "ex" 4) ~seed:(get "seed" 1)
                  ~bound:(get "bound" 0) ()
              in
              t.completed <- get "completed" 0;
              t.flagged <- get "flagged" 0;
              let err = ref None in
              let parse_row fields =
                match all_some (ints fields) with
                | Some vs when List.length vs = 6 + nstages ->
                    let row = Array.make stride 0 in
                    List.iteri
                      (fun i v ->
                        if i < 6 then row.(i) <- v else row.(f_dwell + i - 6) <- v)
                      vs;
                    row.(f_hash) <- exhash t.seed row.(f_id);
                    Some row
                | _ -> None
              in
              List.iter
                (fun line ->
                  if !err = None then
                    match String.split_on_char ' ' line with
                    | "b" :: vs -> (
                        match all_some (ints vs) with
                        | Some vs when List.length vs = nstages ->
                            List.iteri (fun i v -> t.blame.(i) <- v) vs
                        | _ -> err := Some ("bad blame line: " ^ line))
                    | "W" :: fields -> (
                        match parse_row fields with
                        | Some row ->
                            Array.blit row 0 t.worst 0 stride;
                            t.has_worst <- true;
                            Histogram.observe_ex t.h row.(f_total) ~ex:row.(f_id)
                        | None -> err := Some ("bad worst line: " ^ line))
                    | "w" :: wid :: count :: vs -> (
                        match
                          (int_of_string_opt wid, int_of_string_opt count, all_some (ints vs))
                        with
                        | Some wid, Some count, Some vs
                          when wid >= 0 && List.length vs = nstages ->
                            let s = slot_for t wid in
                            s.count <- count;
                            List.iteri (fun i v -> s.sblame.(i) <- v) vs
                        | _ -> err := Some ("bad window line: " ^ line))
                    | kind :: wid :: fields when kind = "t" || kind = "x" -> (
                        match (int_of_string_opt wid, parse_row fields) with
                        | Some wid, Some row when wid >= 0 ->
                            let s = slot_for t wid in
                            if kind = "t" then begin
                              offer_top t s row;
                              Histogram.observe_ex t.h row.(f_total) ~ex:row.(f_id)
                            end
                            else offer_ex t s row
                        | _ -> err := Some ("bad journey line: " ^ line))
                    | _ -> err := Some ("unrecognised line: " ^ line))
                rest;
              match !err with Some e -> Error e | None -> Ok t)
          | _ -> Error "missing windows/window_ns/k in header")
      | _ -> Error "not a renaming.journeys/v1 document")
