module Store = Shared_mem.Store
module Layout = Shared_mem.Layout
module Any = Renaming.Protocol.Any
module Pad = Runtime.Pad
module Agg = Runtime.Agg
module Atomic_store = Runtime.Atomic_store
module Health = Health
module Policy = Policy

type resilience = {
  scan_interval_ns : int;
  lease_ttl : int;
  seat_ttl : int;
  tend_every : int;
  drain_stale : int;
}

let default_resilience =
  {
    scan_interval_ns = 1_000_000;
    lease_ttl = 8;
    seat_ttl = 4;
    tend_every = 32;
    drain_stale = 4;
  }

type config = {
  shards : int;
  k_per_shard : int;
  source_space : int;
  warm_capacity : int;
  batch : int;
  clients : int;
  resilience : resilience;
}

let default_config ?(shards = 4) ?(k_per_shard = 4) ?(warm_capacity = 2) ?(batch = 8)
    ?(resilience = default_resilience) ~clients ~source_space () =
  { shards; k_per_shard; source_space; warm_capacity; batch; clients; resilience }

(* Shard [sh] owns the slots [sh·k, sh·k + k), and the range is the
   shard's admission: a grant is admitted by taking a FREE fence of it,
   so the shard never runs more than k leases (held, warm or pending)
   and needs no counter beside its fences.

   Per-slot fence.  Every change of a slot's lease goes through one CAS
   on it, and every lease retirement — batched drain or lease reclaim —
   must win the CAS into [fence_retiring], so a pending release can
   never be both drained and reclaimed, nor drained and re-granted.
   States:

     0 FREE      takeable by a grant of its shard: that CAS admits it
     1 HELD      granted, client holds the token
     2 WARM      released into the owner's warm cache (still leased)
     3 PENDING   released, awaiting a drain of its shard (still leased:
                 its owner may take it back)
     4 RETIRING  one agent owns it: a retirer (next FREE), a grant
                 filling its fields or the owner re-granting it (next
                 HELD), or a re-grant probe undoing a miss (next PENDING)

   No crash point exists while a slot is RETIRING (the chaos hooks fire
   only at drain slot boundaries, crashes at request boundaries), so
   RETIRING is always transient. *)
let fence_free = 0
let fence_held = 1
let fence_warm = 2
let fence_pending = 3
let fence_retiring = 4

(* Reclaimer seat: (epoch lsl seat_bits) lor (holder+1), 0 vacant.
   The epoch advances on every steal, so a deposed holder's stale view
   of the seat can never CAS itself back in by accident. *)
let seat_bits = 20
let seat_mask = (1 lsl seat_bits) - 1
let seat_pack ~epoch ~holder = (epoch lsl seat_bits) lor (holder + 1)
let seat_holder s = (s land seat_mask) - 1

(* A HELD or WARM fence also names the lease's owner and the owner's
   epoch when it took the lease (granted it, or cached it warm):
   (epoch lsl lease_shift) lor (owner lsl 3) lor state.  A token is
   held exactly when its fence is HELD under the caller's id and its
   generation is the slot's: one read of the fence and one of the
   slot's own line.  A reclaimer CASes from the exact value it read,
   so it can neither catch a slot re-granted to another client nor a
   lease its victim took after re-syncing to the epoch that declared
   it dead — no claimed slot ever has to be handed back. *)
let lease_shift = 3 + seat_bits
let leased state ~owner ~epoch = (epoch lsl lease_shift) lor (owner lsl 3) lor state
let fence_state f = f land 7
let fence_owner f = (f lsr 3) land seat_mask
let fence_epoch f = f lsr lease_shift

type shard = { inst : Any.t; base : int }

type client = {
  id : int;
  obs : Obs.Registry.shard option;
  hot_counters : Obs.Counter.t array;  (* see [hot_count] *)
  hot_hists : Obs.Histogram.t array;
  ring : Obs.Flight.t option;
  flight_pid : int ref;
      (* the client id this client's probes record under: its own,
         but the owner's while it retires another client's lease *)
  jr : Obs.Journey.t option;
      (* per-request journey recorder (single writer: this domain);
         the workload harness starts/finishes journeys, the server
         stamps the stage dwells it alone can see *)
  ops : Store.ops array;  (* per shard; [pid] re-bound per request *)
  tally : Store.tally;
      (* one arena serves the per-operation cost (mark/since), the
         flight clock (running total) and — when a registry is wired —
         the per-group store counters, from one store per access *)
  warm_src : int array;
  warm_slot : int array;
      (* both padded to two lines, so no other client's cache shares
         a line with this one's hot prefix *)
  mutable warm_n : int;  (* entries live at [0, warm_n), oldest first *)
  mutable my_epoch : int;  (* last epoch this client resynced to *)
  mutable held_n : int;  (* tokens out, granted since the last re-sync *)
  mutable stale_n : int;  (* tokens out from before it: maybe reclaimed *)
  mutable tend_count : int;
  mutable last_seat_hb : int;
  mutable seat_stale : int;
  mutable last_seat_check_ns : int;
  mutable chaos : (string -> unit) option;
      (* fault-injection hook, called at drain slot boundaries; set
         only by the owning domain (Churn's chaos plans) *)
  mutable acquires : int;
  mutable warm_hits : int;
  mutable busy : int;
  mutable shed : int;
  mutable drains : int;
  mutable drained : int;
  mutable fenced : int;
}

type outcome =
  | Granted of { name : int; token : int; warm : bool; accesses : int }
  | Busy
  | Shed

type t = {
  cfg : config;
  shard_tbl : shard array;
  stores : Atomic_store.t array;  (* kept alive alongside instances *)
  claims : int Atomic.t array;  (* per source: 0 free, else client+1 *)
  slot_f : int array;
      (* per slot, at [slot_stride · slot]: source, owner (-1 once
         retired), global name (shard base + local name) and grant
         generation *)
  slot_lease : Any.lease option array;  (* at [slot_stride · slot] *)
  slot_warm : outcome array;
      (* at [slot_stride · slot]: the slot's warm grant, built once at
         cold grant; a warm hit returns it as is and allocates nothing *)
  fence : int Atomic.t array;
      (* padded: a client's fence CASes never touch another slot's line *)
  (* liveness + reclamation *)
  hb : Pad.t;  (* per client: heartbeat, bumped by [tend] *)
  epoch : Pad.t;  (* per client: bumped when declared dead *)
  seat : int Atomic.t;
  seat_hb : int Atomic.t;
  last_scan_ns : int Atomic.t;
  (* seat-holder working state: written under seat ownership only
     (overlap with a deposed holder is benign — every retirement is
     fence-guarded; these are bookkeeping) *)
  hx : Health.t array;  (* per shard *)
  snap : int array;  (* one shard's pending leases, fed to its [hx] *)
  last_hb : int array;  (* per client *)
  stale : int array;
  dead : bool array;
  (* resilience counters (atomic: deposed/current seats may overlap) *)
  rs_scans : int Atomic.t;
  rs_deaths : int Atomic.t;
  rs_reclaimed : int Atomic.t;
  rs_claims_swept : int Atomic.t;
  rs_reclaim_max : int Atomic.t;
  rs_drain_heals : int Atomic.t;
  rs_seat_steals : int Atomic.t;
  agg : Agg.t;
  total_space : int;
  clients_tbl : client array;
  flight : Obs.Flight.t option;
}

(* A token names its slot and the slot's grant generation:
   (generation lsl token_bits) lor slot.  The generation advances on
   every cold grant of the slot, so the token of a lease a reclaim
   retired behind its holder's back never names a later lease of the
   same slot, even one granted to the same client. *)
let token_bits = 30
let token_mask = (1 lsl token_bits) - 1
let gen_mask = max_int lsr token_bits

(* Seed-fixed hash of a source name onto [0, n). *)
let hash_route src n =
  if n = 1 then 0
  else begin
    let h = ref (src * 0x9E3779B97F4A7C1) in
    h := (!h lxor (!h lsr 30)) * 0xBF58476D1CE4E5B land max_int;
    h := (!h lxor (!h lsr 27)) * 0x94D049BB133111E land max_int;
    (!h lxor (!h lsr 31)) mod n
  end

(* Client-affine route.  With n clients on s shards, client c owns the
   shards ≡ c (mod n) when n ≤ s, and a hash of the source picks among
   them; when n > s it uses shard c mod s.  While n ≤ s no two clients
   share a shard, so one client's SPLIT registers and slot fences are
   never written by another's grants; a single client hashes over every
   shard.  A pure function of its arguments, so stable across calls and
   server instances of the same geometry. *)
let route ~clients ~client src shards =
  if clients > shards then client mod shards
  else client + (clients * hash_route src (((shards - 1 - client) / clients) + 1))

(* ----- slab ranges ----- *)

let slot_shard t slot = slot / t.cfg.k_per_shard

(* Each slot's fields sit [slot_stride] words after the previous
   slot's, in every per-slot array.  A slot's four int fields span 32
   bytes, so at two lines' stride the next slot's fields start 96
   bytes after them: no two slots share a 64-byte line, wherever the
   line boundaries fall in the array.  A grant and a retirement then
   write only their own slot's lines. *)
let slot_stride = 2 * Pad.line_words
let[@inline] slot_src t slot = t.slot_f.(slot * slot_stride)
let[@inline] slot_owner t slot = t.slot_f.((slot * slot_stride) + 1)
let[@inline] slot_name t slot = t.slot_f.((slot * slot_stride) + 2)
let[@inline] slot_gen t slot = t.slot_f.((slot * slot_stride) + 3)
let[@inline] set_slot_src t slot v = t.slot_f.(slot * slot_stride) <- v
let[@inline] set_slot_owner t slot v = t.slot_f.((slot * slot_stride) + 1) <- v
let[@inline] set_slot_name t slot v = t.slot_f.((slot * slot_stride) + 2) <- v
let[@inline] set_slot_gen t slot v = t.slot_f.((slot * slot_stride) + 3) <- v

(* The fences of shard [sh]'s range whose state is [st].  The range is
   the shard's census: k minus its FREE fences is its admission
   occupancy, and its PENDING fences are the releases awaiting a
   drain. *)
let count_fences t sh st =
  let lo = sh * t.cfg.k_per_shard in
  let n = ref 0 in
  for slot = lo to lo + t.cfg.k_per_shard - 1 do
    if fence_state (Atomic.get t.fence.(slot)) = st then incr n
  done;
  !n

let in_use t sh = t.cfg.k_per_shard - count_fences t sh fence_free

let obs_inc c name = match c.obs with Some o -> Obs.Registry.inc o name | None -> ()

(* The request path's metrics go through handles each client resolves
   on first use: a by-name update hashes the name and allocates.
   Resolving lazily keeps a metric that is never updated out of the
   registry, as a by-name update would. *)
let h_acquired = 0
let h_warm_hits = 1
let h_busy = 2
let h_shed = 3
let h_drains = 4
let h_drained = 5

let hot_counter_names =
  [| "server.acquired"; "server.warm_hits"; "server.busy"; "server.shed";
     "server.drains"; "server.drained" |]

let h_cold_accesses = 0
let h_warm_accesses = 1
let hot_hist_names = [| "server.acquire.accesses.cold"; "server.acquire.accesses.warm" |]

(* placeholders for a handle not resolved yet, compared physically *)
let unresolved_counter = Obs.Counter.create ()
let unresolved_hist = Obs.Histogram.create ()

let hot_count c h n =
  match c.obs with
  | None -> ()
  | Some o ->
      let x = c.hot_counters.(h) in
      let x =
        if x != unresolved_counter then x
        else begin
          let x = Obs.Registry.counter o hot_counter_names.(h) in
          c.hot_counters.(h) <- x;
          x
        end
      in
      Obs.Counter.add x n

let hot_observe c h v =
  match c.obs with
  | None -> ()
  | Some o ->
      let x = c.hot_hists.(h) in
      let x =
        if x != unresolved_hist then x
        else begin
          let x = Obs.Registry.histogram o hot_hist_names.(h) in
          c.hot_hists.(h) <- x;
          x
        end
      in
      Obs.Histogram.observe x v

let mark c tag v =
  match c.ring with
  | Some r ->
      Obs.Flight.record r ~clock:(Store.tally_total c.tally) ~pid:c.id
        (Obs.Flight.Mark (tag, v))
  | None -> ()

(* ----- journey stamping -----

   [jtrack] opens a timed section (0 = journeys off, making the pair
   free on unwired servers); [jblame] closes it.  Work done inside a
   live journey becomes that journey's stage dwell; work done outside
   one (drains on behalf of others, reclaimer scans, the settle
   epilogue) is window-level interference blame.

   A clock read costs ~40ns — comparable to the O(1) sections being
   metered — so back-to-back sections chain: [jblame_t] returns the
   end stamp, which the next section takes as its start instead of
   reading the clock again.  A chained stamp of [0] means journeys
   are off and the whole chain stays free. *)

let jtrack c = match c.jr with Some _ -> Obs.Clock.now_ns () | None -> 0

let jblame_t c stage t0 =
  if t0 = 0 then 0
  else
    match c.jr with
    | Some j ->
        let n = Obs.Clock.now_ns () in
        (if Obs.Journey.active j then Obs.Journey.dwell j stage (n - t0)
         else Obs.Journey.interfere j stage ~now:n (n - t0));
        n
    | None -> 0

let jblame c stage t0 = ignore (jblame_t c stage t0 : int)

(* ----- epoch fencing -----

   A client's epoch advances when the reclaimer seat declares it dead.
   Any surviving warm lease is pushed to pending (the fence CAS
   filters the ones that really were reclaimed), the cache is dropped,
   and the client carries on — its outstanding tokens were retired on
   its behalf, so a later release of one is silently fenced rather
   than double-retired. *)

(* Every entry of [c]'s warm cache carries this fence: entries are
   cached under the current epoch, and a re-sync drops them all. *)
let warm_fence (c : client) = leased fence_warm ~owner:c.id ~epoch:c.my_epoch

let resync t (c : client) e =
  let w = warm_fence c in
  for r = 0 to c.warm_n - 1 do
    let slot = c.warm_slot.(r) in
    ignore (Atomic.compare_and_set t.fence.(slot) w fence_pending : bool)
  done;
  c.warm_n <- 0;
  c.stale_n <- c.stale_n + c.held_n;
  c.held_n <- 0;
  c.my_epoch <- e

(* One of the client's tokens came back. *)
let returned (c : client) =
  if c.held_n > 0 then c.held_n <- c.held_n - 1
  else if c.stale_n > 0 then c.stale_n <- c.stale_n - 1

let check_epoch t (c : client) =
  let e = Pad.get t.epoch c.id in
  if e = c.my_epoch then false
  else begin
    resync t c e;
    c.fenced <- c.fenced + 1;
    obs_inc c "server.fenced";
    true
  end

(* ----- retirement (the only way a lease returns to the protocol) ----- *)

(* Caller must have won the CAS into [fence_retiring].  [reset]
   reclaims through the protocol's [reset_footprint] (a dead holder's
   lease may be mid-operation) instead of a plain release. *)
let retire_slot t (c : client) slot ~reset =
  let ssh = slot_shard t slot in
  let sd = t.shard_tbl.(ssh) in
  let src = slot_src t slot in
  let owner = slot_owner t slot in
  let name = slot_name t slot in
  let li = slot * slot_stride in
  let lease = match t.slot_lease.(li) with Some l -> l | None -> assert false in
  t.slot_lease.(li) <- None;
  Agg.released t.agg ~name;
  (* Run the protocol release under the original source name.  The
     holder has retired (or been fenced off by its epoch), so no step
     of pid [src] can overlap this one, and the claim below stays set
     until the release lands — a new claimant of [src] cannot start a
     get_name that would overlap its own release.  That any agent may
     execute the register operations on the holder's behalf is the
     same handoff long-lived reclamation relies on. *)
  let ops = c.ops.(ssh) in
  ops.pid <- src;
  (* the release is the owner's, whoever runs it: its flight records
     go under the owner's id, so each client's acquisitions and
     releases pair up in the ring *)
  c.flight_pid := owner;
  (if reset && Any.reset_available sd.inst then
     (Option.get Any.reset_footprint) sd.inst ops lease
   else Any.release_name sd.inst ops lease);
  c.flight_pid := c.id;
  (match c.ring with
  | Some r ->
      Obs.Flight.record r ~clock:(Store.tally_total c.tally) ~pid:owner
        (Obs.Flight.Released name)
  | None -> ());
  ignore (Atomic.compare_and_set t.claims.(src) (owner + 1) 0 : bool);
  (* a FREE slot backs no claim, even while a grant fills it in *)
  set_slot_owner t slot (-1);
  (* gives the shard's admission back *)
  Atomic.set t.fence.(slot) fence_free

(* Retire every PENDING slot in shard [sh]'s range.  Drainers, the
   owner's re-grant and the reclaimer race only on the slots' fences,
   so each lease retires exactly once, and a drainer that stops half
   way leaves the rest for whichever drain scans the range next.  A
   range with no PENDING fence is left alone, so the chaos hooks and
   the journey clock only run for a real drain; one that retires
   nothing (another drain got there first) is not counted. *)
let drain_shard ?(t0 = 0) t (c : client) sh =
  if count_fences t sh fence_pending > 0 then begin
    let t0 = if t0 <> 0 then t0 else jtrack c in
    let lo = sh * t.cfg.k_per_shard in
    let n = ref 0 in
    for slot = lo to lo + t.cfg.k_per_shard - 1 do
      (match c.chaos with Some f -> f "drain" | None -> ());
      if
        Atomic.get t.fence.(slot) = fence_pending
        && Atomic.compare_and_set t.fence.(slot) fence_pending fence_retiring
      then begin
        retire_slot t c slot ~reset:false;
        incr n
      end
    done;
    if !n > 0 then begin
      c.drains <- c.drains + 1;
      hot_count c h_drains 1;
      c.drained <- c.drained + !n;
      hot_count c h_drained !n;
      mark c "drain" !n;
      jblame c Obs.Journey.Drain t0
    end
  end

(* Batch 1 retires the release at once, by the releaser: no other
   client's drain can be left holding it, so the releaser may re-claim
   its source the moment [release] returns.  A larger batch drains the
   shard once that many of its fences are PENDING; a range of k fences
   never holds more than k, so a batch above k skips the count. *)
let pending_release ?(t0 = 0) t c slot =
  let t0 = if t0 <> 0 then t0 else jtrack c in
  if t.cfg.batch = 1 then begin
    if Atomic.compare_and_set t.fence.(slot) fence_pending fence_retiring then
      retire_slot t c slot ~reset:false;
    jblame c Obs.Journey.Retire t0
  end
  else begin
    let te = jblame_t c Obs.Journey.Pending t0 in
    let sh = slot_shard t slot in
    if
      t.cfg.batch <= t.cfg.k_per_shard
      && count_fences t sh fence_pending >= t.cfg.batch
    then drain_shard ~t0:te t c sh
  end

(* ----- admission: taking a FREE fence of the shard's range ----- *)

(* Flush this client's own warm leases that live on shard [sh] —
   reclaiming admission capacity it is hoarding before giving up. *)
let flush_warm_shard t c sh =
  let wf = warm_fence c in
  let w = ref 0 in
  for r = 0 to c.warm_n - 1 do
    let slot = c.warm_slot.(r) in
    if slot_shard t slot = sh then begin
      if not (Atomic.compare_and_set t.fence.(slot) wf fence_pending) then begin
        (* reclaimed from the cache behind our back — already retired *)
        c.fenced <- c.fenced + 1;
        obs_inc c "server.fenced"
      end
    end
    else begin
      c.warm_src.(!w) <- c.warm_src.(r);
      c.warm_slot.(!w) <- slot;
      incr w
    end
  done;
  c.warm_n <- !w

(* The first FREE fence of [slot, hi), taken into RETIRING, or [-1]. *)
let rec take_free t slot hi =
  if slot = hi then -1
  else if
    Atomic.get t.fence.(slot) = fence_free
    && Atomic.compare_and_set t.fence.(slot) fence_free fence_retiring
  then slot
  else take_free t (slot + 1) hi

(* Admission to shard [sh]: a slot of its range taken from FREE, or
   [-1] when none is FREE and the shard is full. *)
let take_slot t sh =
  let lo = sh * t.cfg.k_per_shard in
  take_free t lo (lo + t.cfg.k_per_shard)

(* A full shard: flush this client's own warm leases on it, drain it
   and look again, up to [tries] times.  [tc] is the chained journey
   stamp from the claim section ([0] when journeys are off).  Returns
   the slot taken, or [-1] — an int rather than an option, so the cold
   path stays allocation-free. *)
let rec admit_retry t c sh tries tc =
  if tries = 0 then -1
  else begin
    let t0 = if tc <> 0 then tc else jtrack c in
    flush_warm_shard t c sh;
    let te = jblame_t c Obs.Journey.Admission t0 in
    drain_shard ~t0:te t c sh;
    let slot = take_slot t sh in
    if slot >= 0 then slot else admit_retry t c sh (tries - 1) 0
  end

(* The caller's own PENDING lease of [src] in the range [slot, hi),
   taken into RETIRING, or [-1].  The fields read before the CAS may
   belong to a lease retired and re-granted since; only a grant that
   took the slot from FREE writes them, so once the CAS is won they
   are stable and checked again, and a slot that is not ours after all
   goes back to PENDING. *)
let rec own_pending t (c : client) src slot hi =
  if slot = hi then -1
  else if
    Atomic.get t.fence.(slot) = fence_pending
    && slot_src t slot = src
    && slot_owner t slot = c.id
    && Atomic.compare_and_set t.fence.(slot) fence_pending fence_retiring
  then
    if slot_src t slot = src && slot_owner t slot = c.id then slot
    else begin
      Atomic.set t.fence.(slot) fence_pending;
      own_pending t c src (slot + 1) hi
    end
  else own_pending t c src (slot + 1) hi

(* ----- warm cache (client-local; shared state only in the fences) ----- *)

let rec warm_find c src r =
  if r >= c.warm_n then -1 else if c.warm_src.(r) = src then r else warm_find c src (r + 1)

let warm_remove c r =
  for i = r to c.warm_n - 2 do
    c.warm_src.(i) <- c.warm_src.(i + 1);
    c.warm_slot.(i) <- c.warm_slot.(i + 1)
  done;
  c.warm_n <- c.warm_n - 1

(* ----- the service ----- *)

(* A grant that runs no protocol: [slot]'s prebuilt warm outcome.
   Inlined: as a call, even a tail call, it lengthened warm-pair's p99
   by ~15% (alternating runs on a 2-core host). *)
let[@inline] warm_grant t c slot =
  c.acquires <- c.acquires + 1;
  c.held_n <- c.held_n + 1;
  c.warm_hits <- c.warm_hits + 1;
  hot_count c h_acquired 1;
  hot_count c h_warm_hits 1;
  hot_observe c h_warm_accesses 0;
  (match c.jr with Some j -> Obs.Journey.warm j | None -> ());
  mark c "warm" (slot_name t slot);
  t.slot_warm.(slot * slot_stride)

(* [slot] is the one admission took from FREE for this grant. *)
let cold_grant ?(t0 = 0) t c ~src ~sh ~slot =
  (* the slot is ours until HELD is published; naming its source and
     owner first backs our claim against the reclaimer's claim sweep
     while the protocol runs *)
  set_slot_src t slot src;
  set_slot_owner t slot c.id;
  let sd = t.shard_tbl.(sh) in
  Store.tally_mark c.tally;
  let t0 = if t0 <> 0 then t0 else jtrack c in
  let ops = c.ops.(sh) in
  ops.pid <- src;
  let lease = Any.get_name sd.inst ops in
  jblame c Obs.Journey.Acquire t0;
  let accesses = Store.tally_since c.tally in
  (match c.jr with Some j -> Obs.Journey.accesses j accesses | None -> ());
  let name = sd.base + Any.name_of sd.inst lease in
  set_slot_name t slot name;
  let gen = (slot_gen t slot + 1) land gen_mask in
  set_slot_gen t slot gen;
  let token = (gen lsl token_bits) lor slot in
  t.slot_lease.(slot * slot_stride) <- Some lease;
  t.slot_warm.(slot * slot_stride) <- Granted { name; token; warm = true; accesses = 0 };
  (* publish last: the slot only becomes visible to retirers and
     re-grants once its fields are in place *)
  Atomic.set t.fence.(slot) (leased fence_held ~owner:c.id ~epoch:c.my_epoch);
  Agg.acquired t.agg ~worker:c.id ~name;
  (match c.ring with
  | Some r ->
      Obs.Flight.record r ~clock:(Store.tally_total c.tally) ~pid:c.id
        (Obs.Flight.Acquired name)
  | None -> ());
  c.acquires <- c.acquires + 1;
  c.held_n <- c.held_n + 1;
  hot_count c h_acquired 1;
  hot_observe c h_cold_accesses accesses;
  Granted { name; token; warm = false; accesses }

let acquire_cold t c ~src =
  let sh = route ~clients:t.cfg.clients ~client:c.id src t.cfg.shards in
  let t0 = jtrack c in
  let claimed = Atomic.compare_and_set t.claims.(src) 0 (c.id + 1) in
  let tc = jblame_t c Obs.Journey.Claim t0 in
  if not claimed then begin
    (* Our own claim can be held by our own PENDING lease of [src]:
       never returned to the protocol, so taking it back is as
       uniqueness-trivial as a warm hit.  Only other clients are Busy. *)
    let slot =
      if Atomic.get t.claims.(src) <> c.id + 1 then -1
      else
        let lo = sh * t.cfg.k_per_shard in
        own_pending t c src lo (lo + t.cfg.k_per_shard)
    in
    if slot >= 0 then begin
      Atomic.set t.fence.(slot) (leased fence_held ~owner:c.id ~epoch:c.my_epoch);
      warm_grant t c slot
    end
    else begin
      c.busy <- c.busy + 1;
      hot_count c h_busy 1;
      Busy
    end
  end
  else
    (* the claim-end stamp chains through admission into the acquire
       section: an uncontended cold grant costs three clock reads
       total (claim open, claim close = acquire open, acquire close);
       a full shard's retries stamp their own sections *)
    let first = take_slot t sh in
    let slot = if first >= 0 then first else admit_retry t c sh 3 tc in
    if slot < 0 then begin
      ignore (Atomic.compare_and_set t.claims.(src) (c.id + 1) 0 : bool);
      c.shed <- c.shed + 1;
      hot_count c h_shed 1;
      Shed
    end
    else if Pad.get t.epoch c.id <> c.my_epoch then begin
      (* We may have spent a long time in [admit_retry]'s drains; if
         the seat declared us dead meanwhile our claim may already be
         swept — back out rather than run the protocol without it. *)
      Atomic.set t.fence.(slot) fence_free;
      ignore (Atomic.compare_and_set t.claims.(src) (c.id + 1) 0 : bool);
      ignore (check_epoch t c : bool);
      c.busy <- c.busy + 1;
      hot_count c h_busy 1;
      Busy
    end
    else cold_grant ~t0:(if first >= 0 then tc else 0) t c ~src ~sh ~slot

let acquire t c ~src =
  if src < 0 || src >= t.cfg.source_space then
    invalid_arg "Server.acquire: source name out of range";
  ignore (check_epoch t c : bool);
  let r = warm_find c src 0 in
  if r >= 0 then begin
    (* Warm hit: the name was never returned to the protocol, so
       re-granting it to the claim holder is uniqueness-trivial — and
       costs zero protocol store accesses (the WARM→HELD fence CAS is
       slab-local bookkeeping, invisible to the access tally). *)
    let slot = c.warm_slot.(r) in
    warm_remove c r;
    if
      Atomic.compare_and_set t.fence.(slot) (warm_fence c)
        (leased fence_held ~owner:c.id ~epoch:c.my_epoch)
    then warm_grant t c slot
    else begin
      (* the lease was reclaimed out of our cache — fall to cold *)
      c.fenced <- c.fenced + 1;
      obs_inc c "server.fenced";
      acquire_cold t c ~src
    end
  end
  else acquire_cold t c ~src

(* The fence value of [c]'s hold on [slot], or [-1] when [c] does not
   hold the lease [token] names.  The generation is read after the
   fence: a slot HELD by [c] was last granted by [c] itself, so its
   generation is [c]'s own write. *)
let held_fence t (c : client) slot ~token =
  let f = Atomic.get t.fence.(slot) in
  if
    fence_state f = fence_held
    && fence_owner f = c.id
    && slot_gen t slot = token lsr token_bits
  then f
  else -1

let release t c ~token =
  let slot = token land token_mask in
  if token < 0 || slot >= Array.length t.fence then
    invalid_arg "Server.release: not a token this client holds";
  (* the Release dwell covers the fence transition and warm-cache
     bookkeeping only; it closes before any [pending_release], whose
     Pending/Drain stamps take over, so the stages partition *)
  let jt0 = jtrack c in
  if check_epoch t c then begin
    (* Declared dead while holding: if the reclaimer got to the slot
       first it is already retired (the fence CAS below fails); if it
       didn't, retire it through pending ourselves.  Either way the
       caller's token dies silently — it was fenced, not mis-used. *)
    returned c;
    let f = held_fence t c slot ~token in
    if f >= 0 && Atomic.compare_and_set t.fence.(slot) f fence_pending then
      pending_release ~t0:(jblame_t c Obs.Journey.Release jt0) t c slot
    else jblame c Obs.Journey.Release jt0
  end
  else
    let f = held_fence t c slot ~token in
    if f < 0 then begin
      (* declared dead since the check above, or granted before an
         earlier re-sync, and already reclaimed: fenced like the
         branch above, not a misuse *)
      if check_epoch t c then returned c
      else if c.stale_n > 0 then begin
        c.stale_n <- c.stale_n - 1;
        c.fenced <- c.fenced + 1;
        obs_inc c "server.fenced"
      end
      else invalid_arg "Server.release: not a token this client holds";
      jblame c Obs.Journey.Release jt0
    end
    else if Atomic.compare_and_set t.fence.(slot) f (warm_fence c) then begin
      returned c;
      if t.cfg.warm_capacity > 0 then begin
        let evicted =
          c.warm_n = t.cfg.warm_capacity
          &&
          let old = c.warm_slot.(0) in
          warm_remove c 0;
          if Atomic.compare_and_set t.fence.(old) (warm_fence c) fence_pending then begin
            pending_release ~t0:(jblame_t c Obs.Journey.Release jt0) t c old;
            true
          end
          else begin
            c.fenced <- c.fenced + 1;
            obs_inc c "server.fenced";
            false
          end
        in
        c.warm_src.(c.warm_n) <- slot_src t slot;
        c.warm_slot.(c.warm_n) <- slot;
        c.warm_n <- c.warm_n + 1;
        if not evicted then jblame c Obs.Journey.Release jt0
      end
      else if Atomic.compare_and_set t.fence.(slot) (warm_fence c) fence_pending then
        pending_release ~t0:(jblame_t c Obs.Journey.Release jt0) t c slot
      else begin
        c.fenced <- c.fenced + 1;
        obs_inc c "server.fenced";
        jblame c Obs.Journey.Release jt0
      end
    end
    else begin
      (* reclaimed between grant and release (we were falsely expired
         and re-synced meanwhile) — the lease is already retired *)
      returned c;
      c.fenced <- c.fenced + 1;
      obs_inc c "server.fenced";
      jblame c Obs.Journey.Release jt0
    end

let drain_all t c =
  for sh = 0 to t.cfg.shards - 1 do
    drain_shard t c sh
  done

let flush t c =
  ignore (check_epoch t c : bool);
  for sh = 0 to t.cfg.shards - 1 do
    flush_warm_shard t c sh
  done;
  drain_all t c

let outstanding t =
  Array.fold_left (fun n f -> if Atomic.get f = fence_free then n else n + 1) 0 t.fence

(* ----- the reclaimer seat -----

   One cooperatively-claimed duty: scan heartbeats, expire dead
   clients' leases (epoch bump first, heartbeat double-check, then
   fence-guarded retirement) and drain wedged pending slots.  Any live
   client steals the seat when the scan heartbeat goes stale; the seat
   epoch fences the deposed holder out of new reclaims, and the
   per-slot fences make even a deposed holder's in-flight retirement
   exactly-once. *)

let reclaim_client t (c : client) j =
  let e = 1 + Atomic.fetch_and_add (Pad.cells t.epoch).(j) 1 in
  (* Double-check liveness after the epoch bump: if j's heartbeat
     moved, it is alive — the bump only costs it one re-sync. *)
  if Pad.get t.hb j <> t.last_hb.(j) then ()
  else begin
    t.dead.(j) <- true;
    Atomic.incr t.rs_deaths;
    obs_inc c "server.deaths";
    (* reclaim the held and warm leases it took before epoch [e] *)
    let cap = Array.length t.fence in
    for slot = 0 to cap - 1 do
      let f = Atomic.get t.fence.(slot) in
      let st = fence_state f in
      if
        (st = fence_held || st = fence_warm)
        && fence_owner f = j
        && fence_epoch f < e
        && Atomic.compare_and_set t.fence.(slot) f fence_retiring
      then begin
        retire_slot t c slot ~reset:true;
        Atomic.incr t.rs_reclaimed;
        Agg.bump_max t.rs_reclaim_max t.stale.(j);
        obs_inc c "server.reclaimed";
        mark c "reclaim" slot
      end
    done;
    (* sweep claims with no backing slot: a death inside an admission
       drain leaves claims.(src) = j+1 and nothing else — without this
       sweep that source name is Busy forever *)
    for src = 0 to t.cfg.source_space - 1 do
      if Atomic.get t.claims.(src) = j + 1 then begin
        let backed = ref false in
        for slot = 0 to cap - 1 do
          if
            (not !backed)
            && slot_src t slot = src
            && slot_owner t slot = j
            && Atomic.get t.fence.(slot) <> fence_free
          then backed := true
        done;
        if (not !backed) && Atomic.compare_and_set t.claims.(src) (j + 1) 0 then begin
          Atomic.incr t.rs_claims_swept;
          obs_inc c "server.claims_swept"
        end
      end
    done
  end

let do_scan t (c : client) ~seat =
  Atomic.incr t.seat_hb;
  Atomic.incr t.rs_scans;
  (* 1. liveness: stale heartbeats become reclaims (seat-fenced: a
     deposed holder stops starting new reclaims) *)
  for j = 0 to t.cfg.clients - 1 do
    if j <> c.id then begin
      let h = Pad.get t.hb j in
      if h <> t.last_hb.(j) then begin
        t.last_hb.(j) <- h;
        t.stale.(j) <- 0;
        t.dead.(j) <- false
      end
      else begin
        t.stale.(j) <- t.stale.(j) + 1;
        if
          t.stale.(j) >= t.cfg.resilience.lease_ttl
          && (not t.dead.(j))
          && Atomic.get t.seat = seat
        then begin
          let t0 = jtrack c in
          reclaim_client t c j;
          jblame c Obs.Journey.Reclaim t0
        end
      end
    end
  done;
  (* 2. wedged drains: heal a shard on which one lease has sat PENDING
     for [drain_stale] scans (its drainer crashed or parked, or nothing
     released on the shard since).  A lease is known by its slot's
     grant generation, so a slot refilled between scans is a new one.
     A slot refilled between the fence read and the generation read is
     judged by its new lease, which may then age one scan early; a heal
     only drains, and any drain is safe. *)
  let k = t.cfg.k_per_shard in
  for sh = 0 to t.cfg.shards - 1 do
    for i = 0 to k - 1 do
      let slot = (sh * k) + i in
      t.snap.(i) <-
        (if Atomic.get t.fence.(slot) = fence_pending then slot_gen t slot else -1)
    done;
    if Health.observe t.hx.(sh) t.snap = Health.Wedged then begin
      drain_shard t c sh;
      Atomic.incr t.rs_drain_heals
    end
  done

let tend t (c : client) =
  Atomic.incr (Pad.cells t.hb).(c.id);
  c.tend_count <- c.tend_count + 1;
  let rz = t.cfg.resilience in
  if c.tend_count >= rz.tend_every then begin
    c.tend_count <- 0;
    ignore (check_epoch t c : bool);
    let s = Atomic.get t.seat in
    if seat_holder s = c.id then begin
      let now = Obs.Clock.now_ns () in
      if now - Atomic.get t.last_scan_ns >= rz.scan_interval_ns then begin
        Atomic.set t.last_scan_ns now;
        do_scan t c ~seat:s
      end
    end
    else if s = 0 then begin
      let s' = seat_pack ~epoch:1 ~holder:c.id in
      if Atomic.compare_and_set t.seat 0 s' then begin
        Atomic.set t.last_scan_ns (Obs.Clock.now_ns ());
        do_scan t c ~seat:s'
      end
    end
    else begin
      (* watch the holder's scan heartbeat at scan cadence; steal the
         seat (epoch+1) after seat_ttl silent intervals *)
      let now = Obs.Clock.now_ns () in
      if now - c.last_seat_check_ns >= rz.scan_interval_ns then begin
        c.last_seat_check_ns <- now;
        let hb = Atomic.get t.seat_hb in
        if hb <> c.last_seat_hb then begin
          c.last_seat_hb <- hb;
          c.seat_stale <- 0
        end
        else begin
          c.seat_stale <- c.seat_stale + 1;
          if c.seat_stale >= rz.seat_ttl then begin
            c.seat_stale <- 0;
            let s' = seat_pack ~epoch:((s lsr seat_bits) + 1) ~holder:c.id in
            if Atomic.compare_and_set t.seat s s' then begin
              Atomic.incr t.rs_seat_steals;
              obs_inc c "server.seat_steals";
              Atomic.set t.last_scan_ns (Obs.Clock.now_ns ());
              do_scan t c ~seat:s'
            end
          end
        end
      end
    end
  end

let rec seize_seat t (c : client) =
  let s = Atomic.get t.seat in
  if seat_holder s = c.id then s
  else begin
    let s' = seat_pack ~epoch:((s lsr seat_bits) + 1) ~holder:c.id in
    if Atomic.compare_and_set t.seat s s' then s' else seize_seat t c
  end

let scan t (c : client) =
  let s = seize_seat t c in
  Atomic.set t.last_scan_ns (Obs.Clock.now_ns ());
  do_scan t c ~seat:s

let set_chaos (c : client) f = c.chaos <- f
let health t sh =
  if sh < 0 || sh >= t.cfg.shards then invalid_arg "Server.health: bad shard";
  Health.state t.hx.(sh)

type resilience_stats = {
  scans : int;
  deaths : int;
  reclaimed : int;
  claims_swept : int;
  reclaim_max_scans : int;
  drain_heals : int;
  seat_steals : int;
  fenced : int;
  failovers : int;
}

let resilience_stats t =
  let fenced = Array.fold_left (fun n (c : client) -> n + c.fenced) 0 t.clients_tbl in
  {
    scans = Atomic.get t.rs_scans;
    deaths = Atomic.get t.rs_deaths;
    reclaimed = Atomic.get t.rs_reclaimed;
    claims_swept = Atomic.get t.rs_claims_swept;
    reclaim_max_scans = Atomic.get t.rs_reclaim_max;
    drain_heals = Atomic.get t.rs_drain_heals;
    seat_steals = Atomic.get t.rs_seat_steals;
    fenced;
    failovers = 0;
  }

let name_space t = t.total_space
let shards t = t.cfg.shards
let shard_of t (c : client) ~src = route ~clients:t.cfg.clients ~client:c.id src t.cfg.shards
let shard_route ~shards ~clients ~client ~src = route ~clients ~client src shards
let token_slot ~token = token land token_mask
let scoreboard t = t.agg

let merge_flight t =
  match t.flight with
  | None -> ()
  | Some f ->
      Array.iter
        (fun c -> match c.ring with Some r -> Obs.Flight.merge ~into:f r | None -> ())
        t.clients_tbl

(* ----- construction ----- *)

let default_backend layout ~stage ~k =
  Any.pack (module Renaming.Split) (Renaming.Split.create ~stage layout ~k)

let create ?registry ?flight ?journeys ?(backend = default_backend) ?(parked = 0) cfg =
  if cfg.shards < 1 then invalid_arg "Server.create: shards < 1";
  (match journeys with
  | Some a when Array.length a <> cfg.clients ->
      invalid_arg "Server.create: one journey recorder per client"
  | _ -> ());
  if cfg.k_per_shard < 1 then invalid_arg "Server.create: k_per_shard < 1";
  if cfg.source_space < 1 then invalid_arg "Server.create: source_space < 1";
  if cfg.warm_capacity < 0 then invalid_arg "Server.create: warm_capacity < 0";
  if cfg.batch < 1 then invalid_arg "Server.create: batch < 1";
  if cfg.clients < 1 then invalid_arg "Server.create: clients < 1";
  if cfg.clients > seat_mask - 1 then
    invalid_arg "Server.create: clients exceed seat encoding";
  let rz = cfg.resilience in
  if rz.scan_interval_ns < 0 then invalid_arg "Server.create: scan_interval_ns < 0";
  if rz.lease_ttl < 1 then invalid_arg "Server.create: lease_ttl < 1";
  if rz.seat_ttl < 1 then invalid_arg "Server.create: seat_ttl < 1";
  if rz.tend_every < 1 then invalid_arg "Server.create: tend_every < 1";
  let cap = cfg.shards * cfg.k_per_shard in
  let stores = Array.make cfg.shards None in
  let base = ref 0 in
  let shard_tbl =
    Array.init cfg.shards (fun s ->
        let layout = Layout.create () in
        let inst = backend layout ~stage:s ~k:cfg.k_per_shard in
        stores.(s) <- Some (Atomic_store.create layout);
        let sd = { inst; base = !base } in
        base := !base + Any.name_space inst;
        sd)
  in
  let stores = Array.map (function Some s -> s | None -> assert false) stores in
  let agg =
    Agg.create ~name_space:!base ~workers:cfg.clients ~parked
  in
  let clients_tbl =
    Array.init cfg.clients (fun id ->
        let obs = Option.map (fun r -> Obs.Registry.shard r) registry in
        let ring =
          Option.map
            (fun f ->
              Obs.Flight.create
                ~capacity:(max 1024 (Obs.Flight.capacity f / cfg.clients))
                ())
            flight
        in
        (* one tally across all shard stores: it serves the cost and
           flight paths, and with a registry also the per-group
           counters *)
        let tally = Store.tally ?shard:obs () in
        let flight_pid = ref id in
        let probe =
          Option.map
            (fun r ->
              let probes =
                Array.init cfg.clients (fun pid ->
                    Obs.Flight.probe r ~pid ~clock:(fun () -> Store.tally_total tally))
              in
              fun ev -> probes.(!flight_pid) ev)
            ring
        in
        let ops =
          Array.map
            (fun store ->
              let o = Atomic_store.ops ~tally store ~pid:0 in
              match probe with Some p -> Store.probed p o | None -> o)
            stores
        in
        {
          id;
          obs;
          hot_counters = Array.make (Array.length hot_counter_names) unresolved_counter;
          hot_hists = Array.make (Array.length hot_hist_names) unresolved_hist;
          ring;
          flight_pid;
          jr = Option.map (fun a -> a.(id)) journeys;
          ops;
          tally;
          warm_src = Array.make (max (2 * Pad.line_words) cfg.warm_capacity) (-1);
          warm_slot = Array.make (max (2 * Pad.line_words) cfg.warm_capacity) (-1);
          warm_n = 0;
          my_epoch = 0;
          held_n = 0;
          stale_n = 0;
          tend_count = 0;
          last_seat_hb = 0;
          seat_stale = 0;
          last_seat_check_ns = 0;
          chaos = None;
          acquires = 0;
          warm_hits = 0;
          busy = 0;
          shed = 0;
          drains = 0;
          drained = 0;
          fenced = 0;
        })
  in
  {
    cfg;
    shard_tbl;
    stores;
    claims = Array.init cfg.source_space (fun _ -> Atomic.make 0);
    slot_f = Array.make (cap * slot_stride) (-1);
    slot_lease = Array.make (cap * slot_stride) None;
    slot_warm = Array.make (cap * slot_stride) Busy;
    fence = Pad.cells (Pad.create cap fence_free);
    hb = Pad.create cfg.clients 0;
    epoch = Pad.create cfg.clients 0;
    seat = Atomic.make 0;
    seat_hb = Atomic.make 0;
    last_scan_ns = Atomic.make 0;
    hx =
      Array.init cfg.shards (fun _ ->
          Health.create ~drain_stale:rz.drain_stale ~slots:cfg.k_per_shard);
    snap = Array.make cfg.k_per_shard (-1);
    last_hb = Array.make cfg.clients min_int;
    stale = Array.make cfg.clients 0;
    dead = Array.make cfg.clients false;
    rs_scans = Atomic.make 0;
    rs_deaths = Atomic.make 0;
    rs_reclaimed = Atomic.make 0;
    rs_claims_swept = Atomic.make 0;
    rs_reclaim_max = Atomic.make 0;
    rs_drain_heals = Atomic.make 0;
    rs_seat_steals = Atomic.make 0;
    agg;
    total_space = !base;
    clients_tbl;
    flight;
  }

let client t i =
  if i < 0 || i >= t.cfg.clients then invalid_arg "Server.client: id out of range";
  t.clients_tbl.(i)

type client_stats = {
  acquires : int;
  warm_hits : int;
  busy : int;
  shed : int;
  drains : int;
  drained_releases : int;
  fenced : int;
}

let client_stats (c : client) =
  {
    acquires = c.acquires;
    warm_hits = c.warm_hits;
    busy = c.busy;
    shed = c.shed;
    drains = c.drains;
    drained_releases = c.drained;
    fenced = c.fenced;
  }

let client_obs c = c.obs
let client_id (c : client) = c.id

(* ----- telemetry probes -----

   Everything below is read-only: every census is a count of the
   shard's fences by [Atomic.get].  No probe writes anything, so
   attaching a sampler adds zero shared accesses to any request path;
   in particular the warm-grant path stays at its verified 0 protocol
   accesses. *)

type shard_probe = { admitted : int; pending : int; warm : int }

let probe_shard t sh =
  if sh < 0 || sh >= t.cfg.shards then invalid_arg "Server.probe_shard: bad shard";
  {
    admitted = in_use t sh;
    pending = count_fences t sh fence_pending;
    warm = count_fences t sh fence_warm;
  }

let probe_free t = Array.length t.fence - outstanding t

let probe_claims t =
  let n = ref 0 in
  Array.iter (fun a -> if Atomic.get a <> 0 then incr n) t.claims;
  !n

let sampler_sources t =
  let shard_sources =
    List.concat
      (List.init t.cfg.shards (fun sh ->
           let p = string_of_int sh in
           [
             { Obs.Sampler.name = "shard" ^ p ^ ".admitted";
               read = (fun () -> in_use t sh) };
             { Obs.Sampler.name = "shard" ^ p ^ ".pending";
               read = (fun () -> count_fences t sh fence_pending) };
             { Obs.Sampler.name = "shard" ^ p ^ ".warm";
               read = (fun () -> count_fences t sh fence_warm) };
           ]))
  in
  shard_sources
  @ [
      { Obs.Sampler.name = "slab.free"; read = (fun () -> probe_free t) };
      { Obs.Sampler.name = "claims.held"; read = (fun () -> probe_claims t) };
      { Obs.Sampler.name = "seat.scans"; read = (fun () -> Atomic.get t.rs_scans) };
      { Obs.Sampler.name = "reclaimed"; read = (fun () -> Atomic.get t.rs_reclaimed) };
    ]
