(* A sampler turns cheap read-only probes ("how many slots are free
   right now?") into time series by polling them on a schedule.  The
   background loop stamps polls with {!Clock}; the pause is an injected
   thunk so lib/obs stays Unix-free.  Tests drive a sampler with a fake
   clock through [poll], one deterministic poll at a time.

   Ownership: the polling loop (whether [poll] on the caller's domain
   or the domain spawned by [start]) is the single writer of every
   series and of the optional registry shard — sources are read-only
   views into someone else's state, never writes.  Pass [start] a
   {e dedicated} shard for exactly that reason. *)

type source = { name : string; read : unit -> int }

type t = {
  sources : source array;
  series : Timeseries.t array;
  gauges : Gauge.t array; (* parallel to sources; empty without a shard *)
  mutable ticks : int;
}

let create ?(windows = 64) ?shard ~window_ns sources =
  let sources = Array.of_list sources in
  {
    sources;
    series =
      Array.map
        (fun _ -> Timeseries.create ~windows ~hist:false ~window_ns ())
        sources;
    gauges =
      (match shard with
      | None -> [||]
      | Some sh ->
          Array.map (fun s -> Registry.gauge sh ("sampler." ^ s.name)) sources);
    ticks = 0;
  }

let poll t ~now =
  for i = 0 to Array.length t.sources - 1 do
    let v = t.sources.(i).read () in
    Timeseries.observe t.series.(i) ~now v;
    if Array.length t.gauges > 0 then Gauge.set t.gauges.(i) v
  done;
  t.ticks <- t.ticks + 1

let series t =
  Array.to_list
    (Array.mapi (fun i s -> (t.sources.(i).name, s)) t.series)

let ticks t = t.ticks

type handle = { sampler : t; stop_flag : bool Atomic.t; domain : unit Domain.t }

let start t ~sleep =
  let stop_flag = Atomic.make false in
  let domain =
    Domain.spawn (fun () ->
        (* poll-then-sleep, plus one final poll after the stop flag is
           seen: even a run shorter than one interval gets sampled *)
        while not (Atomic.get stop_flag) do
          poll t ~now:(Clock.now_ns ());
          sleep ()
        done;
        poll t ~now:(Clock.now_ns ()))
  in
  { sampler = t; stop_flag; domain }

let stop h =
  Atomic.set h.stop_flag true;
  Domain.join h.domain
