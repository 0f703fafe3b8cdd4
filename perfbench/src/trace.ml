(* Spans for the traced run.

   Every domain owns one recorder: parallel int arrays preallocated
   before the run, written with plain stores, read only after the join.
   A span is opened before the call it covers and closed after it; its
   parent is whichever span of the same domain was open at the time, so
   a protocol call made inside [Server.acquire] (through the backend
   shim below) nests under that acquire.  Spans of one request share
   the request id the driver sets. *)

module Store = Shared_mem.Store

(* Span kinds. *)
let tend = 0
let acquire_warm = 1
let acquire_cold = 2
let acquire_refused = 3
let release = 4
let split_get = 5
let split_release = 6
let kinds = 7

type t = {
  cap : int;
  start : int array;
  stop : int array;
  parent : int array;
  req : int array;
  meta : int array;  (* kind lor (accesses lsl 4) *)
  mutable n : int;
  mutable on : bool;
  mutable cur : int;  (* the open span, -1 at top level *)
  mutable req_id : int;
  counter : Store.counter;
  mutable accesses : int;
      (* every register access the shim counted on this domain, traced
         or not *)
}

let create cap =
  {
    cap;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap 0;
    req = Array.make cap 0;
    meta = Array.make cap 0;
    n = 0;
    on = false;
    cur = -1;
    req_id = 0;
    counter = Store.counter ();
    accesses = 0;
  }

(* Domains that never install a recorder (the main domain settling the
   server after the join, the ladder) get one that records nothing but
   still counts accesses. *)
let key = Domain.DLS.new_key (fun () -> create 0)
let install t = Domain.DLS.set key t
let current () = Domain.DLS.get key

let open_span t =
  if t.on && t.n < t.cap then begin
    let i = t.n in
    t.n <- i + 1;
    t.parent.(i) <- t.cur;
    t.req.(i) <- t.req_id;
    t.cur <- i;
    t.start.(i) <- Clock.now ();
    i
  end
  else -1

let close_span t i kind accesses =
  if i >= 0 then begin
    t.stop.(i) <- Clock.now ();
    t.meta.(i) <- kind lor (accesses lsl 4);
    t.cur <- t.parent.(i)
  end

let kind t i = t.meta.(i) land 15
let span_accesses t i = t.meta.(i) lsr 4

(* Room for one more request: a request opens three spans plus one per
   protocol call, and a drain releases at most one lease per slab slot. *)
let has_room t ~slots = t.n + 4 + slots < t.cap

(* The backend shim: exactly the server's default backend (a SPLIT tree
   packed into [Protocol.Any]), with every [get_name] / [release_name]
   spanned and its register accesses counted through [Store.counting]. *)
module Split_shim = struct
  module S = Renaming.Split

  type t = S.t
  type lease = S.lease

  let name_space = S.name_space
  let name_of = S.name_of
  let reset_footprint = S.reset_footprint

  let get_name inst ops =
    let tr = current () in
    Store.reset tr.counter;
    let ops = Store.counting tr.counter ops in
    let sp = open_span tr in
    let l = S.get_name inst ops in
    let a = Store.accesses tr.counter in
    close_span tr sp split_get a;
    tr.accesses <- tr.accesses + a;
    l

  let release_name inst ops l =
    let tr = current () in
    Store.reset tr.counter;
    let ops = Store.counting tr.counter ops in
    let sp = open_span tr in
    S.release_name inst ops l;
    let a = Store.accesses tr.counter in
    close_span tr sp split_release a;
    tr.accesses <- tr.accesses + a
end

let backend layout ~stage ~k =
  Renaming.Protocol.Any.pack (module Split_shim) (Renaming.Split.create ~stage layout ~k)

(* ----- after the run ----- *)

type kind_stats = {
  mutable calls : int;
  mutable self_ns : int;  (* duration minus the time child spans cover *)
  mutable acc_sum : int;
  mutable acc_max : int;
}

type summary = {
  by_kind : kind_stats array;
  root_ns : int;  (* total duration of top-level spans *)
  requests : int;  (* distinct request ids *)
}

let summarize recorders =
  let by_kind = Array.init kinds (fun _ -> { calls = 0; self_ns = 0; acc_sum = 0; acc_max = 0 }) in
  let root_ns = ref 0 and requests = ref 0 in
  List.iter
    (fun t ->
      let self = Array.init t.n (fun i -> t.stop.(i) - t.start.(i)) in
      for i = 0 to t.n - 1 do
        if i = 0 || t.req.(i) <> t.req.(i - 1) then incr requests;
        let p = t.parent.(i) in
        if p >= 0 then self.(p) <- self.(p) - (t.stop.(i) - t.start.(i))
        else root_ns := !root_ns + (t.stop.(i) - t.start.(i))
      done;
      for i = 0 to t.n - 1 do
        let s = by_kind.(kind t i) in
        let a = span_accesses t i in
        s.calls <- s.calls + 1;
        s.self_ns <- s.self_ns + self.(i);
        s.acc_sum <- s.acc_sum + a;
        if a > s.acc_max then s.acc_max <- a
      done)
    recorders;
  { by_kind; root_ns = !root_ns; requests = !requests }

let mean_self s k =
  let st = s.by_kind.(k) in
  if st.calls = 0 then 0. else float_of_int st.self_ns /. float_of_int st.calls

let mean_accesses s k =
  let st = s.by_kind.(k) in
  if st.calls = 0 then 0. else float_of_int st.acc_sum /. float_of_int st.calls
