(* Cross-client isolation.  Every word a client writes on its request
   path is its own, on cache lines no other client reads or writes:
   - per-client state is a {!Pad.copy_as_padded} block: the client
     record (which holds the client's counts, published to the
     registry only when a snapshot runs), its access tally (which pads
     itself), its flight ring and probe attribution, and its two
     access histograms, which the registry adopts on first use;
   - per-slot and per-client atomics (fences, heartbeats, epochs) and
     every shard's protocol registers are {!Pad} cells, and each
     slot's plain fields sit [slot_stride] words apart;
   - the scoreboard ({!Agg}) keeps no run-wide counter: a grant and
     its retirement touch only their own name's cells.
   Every padded block is built by [create], in the domain that builds
   the server, and its padding is part of the block, so the rule
   survives promotion into any pool, and no client domain allocates
   one.  That includes each client's per-shard [ops] records: every
   register access reads one (its direct arm: the shard's registers
   and the client's tally), and the client re-binds its [pid] per
   request.  One exception, measured and left alone: a source's claim
   is written by whichever client claims it (shared by design).  The
   scan state is written once per scan, not per request. *)

module Store = Shared_mem.Store
module Layout = Shared_mem.Layout
module Any = Renaming.Protocol.Any
module Pad = Shared_mem.Pad
module Agg = Runtime.Agg
module Atomic_store = Runtime.Atomic_store
module Policy = Policy

(* Kept for perfbench until ROADMAP item 4: no shard is ever judged. *)
module Health = struct
  type state = Live

  let to_string Live = "live"
end

type resilience = { scan_interval_ns : int; lease_ttl : int; tend_every : int }

let default_resilience = { scan_interval_ns = 1_000_000; lease_ttl = 8; tend_every = 32 }

type config = {
  shards : int;
  k_per_shard : int;
  source_space : int;
  warm_capacity : int;
  batch : int;  (* always 1; kept for perfbench until ROADMAP item 4 *)
  clients : int;
  resilience : resilience;
}

let default_config ?(shards = 4) ?(k_per_shard = 4) ?(warm_capacity = 2)
    ?(resilience = default_resilience) ~clients ~source_space () =
  { shards; k_per_shard; source_space; warm_capacity; batch = 1; clients; resilience }

(* Shard [sh] owns the slots [sh·k, sh·k + k), and the range is the
   shard's admission: a grant is admitted by taking a FREE fence of it,
   so the shard never runs more than k leases (held or warm) and needs
   no counter beside its fences.

   Per-slot fence.  Every change of a slot's lease goes through one CAS
   on it, and every lease retirement — by the owner giving the lease up
   or by a reclaim — must win the CAS into [fence_retiring], so no lease
   is ever retired twice.  States:

     0 FREE      takeable by a grant of its shard: that CAS admits it
     1 HELD      granted, client holds the token
     2 WARM      released into the owner's warm cache (still leased)
     3 RETIRING  one agent owns it: a retirer (next FREE), a grant
                 filling its fields, or an owner re-pointing a lease
                 of an earlier epoch into its cache (next WARM)

   No crash point exists while a slot is RETIRING (the chaos hook fires
   before the retirement CAS, crashes at request boundaries), so
   RETIRING is always transient. *)
let fence_free = 0
let fence_held = 1
let fence_warm = 2
let fence_retiring = 3

(* A HELD or WARM fence also names the lease's owner and the owner's
   epoch when it took the lease (granted it, or cached it warm):
   (epoch lsl lease_shift) lor (owner lsl 3) lor state.  A token
   carries its slot and that epoch, so it is held exactly when its
   slot's fence is HELD under the caller's id at the token's epoch:
   one read and one compare.  A reclaimer CASes from the exact value
   it read, so it can neither catch a slot re-granted to another
   client nor a lease its victim took after re-syncing to the epoch
   that declared it dead — no claimed slot ever has to be handed
   back. *)
let owner_bits = 20
let owner_mask = (1 lsl owner_bits) - 1
let lease_shift = 3 + owner_bits
let leased state ~owner ~epoch = (epoch lsl lease_shift) lor (owner lsl 3) lor state
let fence_state f = f land 7
let fence_owner f = (f lsr 3) land owner_mask
let fence_epoch f = f lsr lease_shift

(* [leases] keeps the lease of each slot of the shard's range, at entry
   [slot mod k], in the protocol's own lease type: SPLIT's int lease is
   stored unboxed. *)
type shard = { inst : Any.t; base : int; leases : Any.table }

(* Built as a {!Pad.copy_as_padded} block: the mutable fields below are
   written on every request, and another client's record may sit next
   to this one in the heap. *)
type client = {
  id : int;
  obs : Obs.Registry.shard option;
  hot_hists : Obs.Histogram.t array;  (* padded; see [hot_observe] *)
  ring : Obs.Flight.t option;
  flight_pid : int ref;
      (* the client id this client's probes record under: its own,
         but the owner's while it retires another client's lease *)
  jr : Obs.Journey.t option;
      (* per-request journey recorder (single writer: this domain);
         the workload harness starts/finishes journeys, the server
         stamps the stage dwells it alone can see *)
  ops : Store.ops array;  (* per shard, padded; [pid] re-bound per request *)
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
  mutable chaos : (string -> unit) option;
      (* fault-injection hook, called before each retirement this
         client runs of a lease it gives up; set only by the owning
         domain (Churn's chaos plans) *)
  mutable acquires : int;
  mutable warm_hits : int;
  mutable busy : int;
  mutable shed : int;
  mutable retired : int;
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
         retired) and global name (shard base + local name) *)
  slot_warm : outcome array;
      (* at [slot_stride · slot]: the slot's warm grant, taken from
         [replies] at cold grant; a warm hit returns it as is and
         allocates nothing *)
  replies : outcome array;
      (* per slot, [reply_ways] grants from [reply_stride · slot], warm
         and cold alike, keyed by every field: a grant builds one only
         on a miss *)
  fence : int Atomic.t array;
      (* padded: a client's fence CASes never touch another slot's line *)
  (* liveness + reclamation *)
  hb : Pad.t;  (* per client: heartbeat, bumped by [tend] *)
  epoch : Pad.t;  (* per client: bumped when declared dead *)
  last_scan_ns : int Atomic.t;  (* the scan ticket: CASed by its winner *)
  (* scan working state: written by the scan in progress (a scan that
     outlasts [scan_interval_ns] may overlap the next one, which is
     benign — a superseded scan starts no reclaim, every retirement is
     fence-guarded, and these are bookkeeping) *)
  last_hb : int array;  (* per client *)
  stale : int array;
  dead : bool array;
  (* resilience counters (atomic: scans may overlap) *)
  rs_scans : int Atomic.t;  (* also the id of the latest scan *)
  rs_deaths : int Atomic.t;
  rs_reclaimed : int Atomic.t;
  rs_claims_swept : int Atomic.t;
  rs_reclaim_max : int Atomic.t;
  agg : Agg.t;
  total_space : int;
  clients_tbl : client array;
  flight : Obs.Flight.t option;
}

(* A token names its slot and its holder's epoch when the holder took
   the lease: (epoch lsl token_bits) lor slot.  So a slot's tokens
   differ across its holder's epochs, not across grants.  A token a
   reclaim retired behind its holder's back still never names a later
   lease of the same slot: a reclaim bumps the holder's epoch before it
   retires anything, and [acquire_cold] re-checks the epoch after
   admission, so no later grant of that slot to the holder runs under
   the old epoch.  A second release of a token whose slot was granted
   to the same client again in the same epoch is not caught.  Epochs
   grow by one a declared death; 33 bits of them never run out. *)
let token_bits = 30
let token_mask = (1 lsl token_bits) - 1
let[@inline] token_of (c : client) slot = (c.my_epoch lsl token_bits) lor slot

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
   slot's, in every per-slot array.  A slot's three int fields span 24
   bytes, so at two lines' stride the next slot's fields start 104
   bytes after them: no two slots share a 64-byte line, wherever the
   line boundaries fall in the array.  A grant and a retirement then
   write only their own slot's lines. *)
let slot_stride = 2 * Pad.line_words
let[@inline] slot_src t slot = t.slot_f.(slot * slot_stride)
let[@inline] slot_owner t slot = t.slot_f.((slot * slot_stride) + 1)
let[@inline] slot_name t slot = t.slot_f.((slot * slot_stride) + 2)
let[@inline] slot_entry t slot = slot mod t.cfg.k_per_shard
let[@inline] set_slot_src t slot v = t.slot_f.(slot * slot_stride) <- v
let[@inline] set_slot_owner t slot v = t.slot_f.((slot * slot_stride) + 1) <- v
let[@inline] set_slot_name t slot v = t.slot_f.((slot * slot_stride) + 2) <- v

(* The fences of shard [sh]'s range whose state is [st].  The range is
   the shard's census: k minus its FREE fences is its admission
   occupancy. *)
let count_fences t sh st =
  let lo = sh * t.cfg.k_per_shard in
  let n = ref 0 in
  for slot = lo to lo + t.cfg.k_per_shard - 1 do
    if fence_state (Atomic.get t.fence.(slot)) = st then incr n
  done;
  !n

let in_use t sh = t.cfg.k_per_shard - count_fences t sh fence_free

let obs_inc c name = match c.obs with Some o -> Obs.Registry.inc o name | None -> ()

(* The client's per-request counts live in its own padded record; the
   registry sees them as deltas, pushed into the client's shard when a
   snapshot runs.  A count that never moves stays out of the registry,
   as a by-name update would keep it. *)
let published : (string * (client -> int)) array =
  [|
    ("server.acquired", fun c -> c.acquires);
    ("server.warm_hits", fun c -> c.warm_hits);
    ("server.busy", fun c -> c.busy);
    ("server.shed", fun c -> c.shed);
    ("server.drains", fun c -> c.retired);
    ("server.fenced", fun c -> c.fenced);
  |]

let publish c o last =
  Array.iteri
    (fun i (name, count) ->
      let v = count c in
      if v > last.(i) then begin
        Obs.Registry.count o name (v - last.(i));
        last.(i) <- v
      end)
    published

(* The request path's histograms are padded copies built with the
   client, in the domain that builds the server.  Each joins the
   registry on its first observation (an empty one has not joined
   yet), so one that is never updated stays out of it too. *)
let h_cold_accesses = 0
let h_warm_accesses = 1
let hot_hist_names = [| "server.acquire.accesses.cold"; "server.acquire.accesses.warm" |]

let hot_observe c h v =
  match c.obs with
  | None -> ()
  | Some o ->
      let x = c.hot_hists.(h) in
      if Obs.Histogram.count x = 0 then Obs.Registry.adopt_histogram o hot_hist_names.(h) x;
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
   one (reclaimer scans, the settle epilogue) is window-level
   interference blame.

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
  Agg.released t.agg ~name;
  (* Run the protocol release under the original source name.  The
     holder has retired (or been fenced off by its epoch), so no step
     of pid [src] can overlap this one, and the claim below stays set
     until the release lands — a new claimant of [src] cannot start a
     get_name that would overlap its own release.  That any agent may
     execute the register operations on the holder's behalf is the
     same handoff long-lived reclamation relies on. *)
  let ops = c.ops.(ssh) in
  Store.set_pid ops src;
  (* the release is the owner's, whoever runs it: its flight records
     go under the owner's id, so each client's acquisitions and
     releases pair up in the ring *)
  c.flight_pid := owner;
  Any.release_from sd.leases (slot_entry t slot) ops ~reset;
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

(* Retire the lease [c] gives up on [slot], from the fence value [f]
   under which [c] holds it (HELD) or caches it (WARM).  The chaos hook
   fires first, so a client that crashes or parks there leaves the
   lease as it was, for [reclaim_client] to retire.  False when a
   reclaim took the lease first: it is retired already. *)
let retire_own t (c : client) slot f =
  (match c.chaos with Some h -> h "retire" | None -> ());
  Atomic.compare_and_set t.fence.(slot) f fence_retiring
  && begin
       retire_slot t c slot ~reset:false;
       c.retired <- c.retired + 1;
       true
     end

(* ----- epoch fencing -----

   A client's epoch advances when a scan declares it dead.  Any
   surviving warm lease is retired (the fence CAS filters the ones that
   really were reclaimed), the cache is dropped, and the client carries
   on — its outstanding tokens were retired on its behalf, so a later
   release of one is silently fenced rather than double-retired. *)

(* Every entry of [c]'s warm cache carries this fence: entries are
   cached under the current epoch, and a re-sync drops them all. *)
let warm_fence (c : client) = leased fence_warm ~owner:c.id ~epoch:c.my_epoch

let resync t (c : client) e =
  let w = warm_fence c in
  for r = 0 to c.warm_n - 1 do
    ignore (retire_own t c c.warm_slot.(r) w : bool)
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
    true
  end

(* Retire the lease [c] caches warm on [slot]; one a reclaim took out
   of the cache first is fenced. *)
let retire_warm t c slot =
  if not (retire_own t c slot (warm_fence c)) then c.fenced <- c.fenced + 1

(* ----- admission: taking a FREE fence of the shard's range ----- *)

(* Retire this client's own warm leases that live on shard [sh] —
   reclaiming admission capacity it is hoarding before giving up. *)
let flush_warm_shard t c sh =
  let w = ref 0 in
  for r = 0 to c.warm_n - 1 do
    let slot = c.warm_slot.(r) in
    if slot_shard t slot = sh then retire_warm t c slot
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

(* A full shard: retire this client's own warm leases on it and look
   again.  [tc] is the chained journey stamp from the claim section
   ([0] when journeys are off).  Returns the slot taken, or [-1] — an
   int rather than an option, so the cold path stays allocation-free. *)
let admit_retry t c sh tc =
  flush_warm_shard t c sh;
  jblame c Obs.Journey.Admission tc;
  take_slot t sh

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

(* The grant of [slot]'s lease to [c] under [c]'s epoch, from the
   slot's replies: a reply is immutable, so one [Granted] serves every
   grant with the same four fields, and one is built only on a miss.
   Warm and cold grants share the ways.  The key holds [accesses]: a
   cold reply reports its own grant's count, which callers check
   against the protocol's bound.  A slot sees a few names and a few
   access counts per name.  A key sits in way [(31·name + 2·accesses +
   warm) mod 29] or in the way after it, so the ways span 30 words of a
   slot's two strides.  Direct-mapped, the same ways allocated 0.28
   words per cold grant when another client's request lands inside
   grants' protocol runs (test_server "cold replies repeat the grant"),
   and 0.0004 with the second way.  Neighbouring slots' ways may share
   a line, but a way is written only on a miss.  Only the agent that
   holds the slot RETIRING reads or writes its ways. *)
let reply_ways = 29
let reply_stride = 2 * slot_stride

let[@inline] is_reply r ~name ~token ~warm ~accesses =
  match r with
  | Granted g -> g.name = name && g.token = token && g.warm = warm && g.accesses = accesses
  | Busy | Shed -> false

let empty_way = function Granted _ -> false | Busy | Shed -> true

let reply t (c : client) slot ~name ~warm ~accesses =
  let token = token_of c slot in
  let way = ((31 * name) + (2 * accesses) + if warm then 1 else 0) mod reply_ways in
  let i = (slot * reply_stride) + way in
  let r = t.replies.(i) in
  if is_reply r ~name ~token ~warm ~accesses then r
  else
    let next = t.replies.(i + 1) in
    if is_reply next ~name ~token ~warm ~accesses then next
    else begin
      (* a miss fills the second way if only it is empty, else the first *)
      let fresh = Granted { name; token; warm; accesses } in
      t.replies.(if (not (empty_way r)) && empty_way next then i + 1 else i) <- fresh;
      fresh
    end

(* Point [slot]'s warm grant at [c]'s epoch.  Only the agent that holds
   the slot RETIRING may call it: no grant of the slot to another
   client can then interleave. *)
let set_warm t c slot =
  t.slot_warm.(slot * slot_stride) <-
    reply t c slot ~name:(slot_name t slot) ~warm:true ~accesses:0

(* A grant that runs no protocol: [slot]'s warm outcome.
   Inlined: as a call, even a tail call, it lengthened warm-pair's p99
   by ~15% (alternating runs on a 2-core host). *)
let[@inline] warm_grant t c slot =
  c.acquires <- c.acquires + 1;
  c.held_n <- c.held_n + 1;
  c.warm_hits <- c.warm_hits + 1;
  hot_observe c h_warm_accesses 0;
  (match c.jr with Some j -> Obs.Journey.warm j | None -> ());
  mark c "warm" (slot_name t slot);
  t.slot_warm.(slot * slot_stride)

(* [slot] is the one admission took from FREE for this grant.  Its
   warm grant and the reply returned here both come from the slot's
   replies, before HELD is published. *)
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
  Store.set_pid ops src;
  let name = sd.base + Any.get_into sd.leases (slot_entry t slot) ops in
  jblame c Obs.Journey.Acquire t0;
  let accesses = Store.tally_since c.tally in
  (match c.jr with Some j -> Obs.Journey.accesses j accesses | None -> ());
  set_slot_name t slot name;
  set_warm t c slot;
  let granted = reply t c slot ~name ~warm:false ~accesses in
  (* publish last: the slot only becomes visible to retirers once its
     fields are in place *)
  Atomic.set t.fence.(slot) (leased fence_held ~owner:c.id ~epoch:c.my_epoch);
  Agg.acquired t.agg ~worker:c.id ~name;
  (match c.ring with
  | Some r ->
      Obs.Flight.record r ~clock:(Store.tally_total c.tally) ~pid:c.id
        (Obs.Flight.Acquired name)
  | None -> ());
  c.acquires <- c.acquires + 1;
  c.held_n <- c.held_n + 1;
  hot_observe c h_cold_accesses accesses;
  granted

let acquire_cold t c ~src =
  let sh = route ~clients:t.cfg.clients ~client:c.id src t.cfg.shards in
  let t0 = jtrack c in
  let claimed = Atomic.compare_and_set t.claims.(src) 0 (c.id + 1) in
  let tc = jblame_t c Obs.Journey.Claim t0 in
  if not claimed then begin
    c.busy <- c.busy + 1;
    Busy
  end
  else
    (* the claim-end stamp chains through admission into the acquire
       section: an uncontended cold grant costs three clock reads
       total (claim open, claim close = acquire open, acquire close);
       a full shard's retry stamps its own section *)
    let first = take_slot t sh in
    let slot = if first >= 0 then first else admit_retry t c sh tc in
    if slot < 0 then begin
      ignore (Atomic.compare_and_set t.claims.(src) (c.id + 1) 0 : bool);
      c.shed <- c.shed + 1;
      Shed
    end
    else if Pad.get t.epoch c.id <> c.my_epoch then begin
      (* A scan may have declared us dead since the claim, and then our
         claim may already be swept — back out rather than run the
         protocol without it. *)
      Atomic.set t.fence.(slot) fence_free;
      ignore (Atomic.compare_and_set t.claims.(src) (c.id + 1) 0 : bool);
      ignore (check_epoch t c : bool);
      c.busy <- c.busy + 1;
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
      acquire_cold t c ~src
    end
  end
  else acquire_cold t c ~src

(* The fence value of [c]'s hold on [slot], or [-1] when [c] does not
   hold the lease [token] names. *)
let held_fence t (c : client) slot ~token =
  let f = Atomic.get t.fence.(slot) in
  if f = leased fence_held ~owner:c.id ~epoch:(token lsr token_bits) then f else -1

(* Move [c]'s lease on [slot] from its hold [f] to [c]'s warm cache.  A
   lease taken before a re-sync changes epoch here, so its warm grant
   is re-pointed first, while the slot is RETIRING. *)
let to_warm t (c : client) slot f ~token =
  if token lsr token_bits = c.my_epoch then
    Atomic.compare_and_set t.fence.(slot) f (warm_fence c)
  else
    Atomic.compare_and_set t.fence.(slot) f fence_retiring
    && begin
         set_warm t c slot;
         Atomic.set t.fence.(slot) (warm_fence c);
         true
       end

let release t c ~token =
  let slot = token land token_mask in
  if token < 0 || slot >= Array.length t.fence then
    invalid_arg "Server.release: not a token this client holds";
  (* the Release dwell covers the fence transition and warm-cache
     bookkeeping only; a retirement stamps its own Retire dwell after
     it, so the stages partition *)
  let jt0 = jtrack c in
  if check_epoch t c then begin
    (* Declared dead while holding: if the reclaimer got to the slot
       first it is already retired (the fence CAS fails); if it didn't,
       retire it ourselves.  Either way the caller's token dies
       silently — it was fenced, not mis-used. *)
    returned c;
    let f = held_fence t c slot ~token in
    let te = jblame_t c Obs.Journey.Release jt0 in
    if f >= 0 then begin
      ignore (retire_own t c slot f : bool);
      jblame c Obs.Journey.Retire te
    end
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
        c.fenced <- c.fenced + 1
      end
      else invalid_arg "Server.release: not a token this client holds";
      jblame c Obs.Journey.Release jt0
    end
    else if t.cfg.warm_capacity = 0 then begin
      returned c;
      let te = jblame_t c Obs.Journey.Release jt0 in
      (* a reclaim between grant and release retired it already (we
         were falsely expired and re-synced meanwhile) *)
      if not (retire_own t c slot f) then c.fenced <- c.fenced + 1;
      jblame c Obs.Journey.Retire te
    end
    else if to_warm t c slot f ~token then begin
      returned c;
      (* a full cache evicts its oldest lease, which retires at once *)
      let evicted = if c.warm_n = t.cfg.warm_capacity then c.warm_slot.(0) else -1 in
      if evicted >= 0 then warm_remove c 0;
      c.warm_src.(c.warm_n) <- slot_src t slot;
      c.warm_slot.(c.warm_n) <- slot;
      c.warm_n <- c.warm_n + 1;
      let te = jblame_t c Obs.Journey.Release jt0 in
      if evicted >= 0 then begin
        retire_warm t c evicted;
        jblame c Obs.Journey.Retire te
      end
    end
    else begin
      (* reclaimed between grant and release — already retired *)
      returned c;
      c.fenced <- c.fenced + 1;
      jblame c Obs.Journey.Release jt0
    end

(* Kept for perfbench until ROADMAP item 4: nothing is ever parked. *)
let drain_all _ _ = ()

let flush t c =
  ignore (check_epoch t c : bool);
  for r = 0 to c.warm_n - 1 do
    retire_warm t c c.warm_slot.(r)
  done;
  c.warm_n <- 0

let outstanding t =
  Array.fold_left (fun n f -> if Atomic.get f = fence_free then n else n + 1) 0 t.fence

(* ----- the reclaimer scan -----

   One leaderless duty: scan heartbeats and expire dead clients' leases
   (epoch bump first, heartbeat double-check, then fence-guarded
   retirement).  Whichever tending
   client wins the scan ticket runs the scan, so no client owns the
   duty and a dead one cannot hold it up.  Each scan's id is its
   ticket from [rs_scans]; a scan that a newer one superseded starts no
   new reclaim, and the per-slot fences make even its in-flight
   retirement exactly-once. *)

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
       retry leaves claims.(src) = j+1 and nothing else — without this
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

let do_scan t (c : client) =
  let id = 1 + Atomic.fetch_and_add t.rs_scans 1 in
  (* stale heartbeats become reclaims (ticket-fenced: a superseded
     scan starts no new reclaim) *)
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
          && Atomic.get t.rs_scans = id
        then begin
          let t0 = jtrack c in
          reclaim_client t c j;
          jblame c Obs.Journey.Reclaim t0
        end
      end
    end
  done

(* The scan ticket: every [tend_every]-th tend reads the last scan's
   start and the clock, and once [scan_interval_ns] has passed CASes
   the start to now.  The client that wins the CAS scans. *)
let tend t (c : client) =
  Atomic.incr (Pad.cells t.hb).(c.id);
  c.tend_count <- c.tend_count + 1;
  let rz = t.cfg.resilience in
  if c.tend_count >= rz.tend_every then begin
    c.tend_count <- 0;
    ignore (check_epoch t c : bool);
    let last = Atomic.get t.last_scan_ns in
    let now = Obs.Clock.now_ns () in
    if now - last >= rz.scan_interval_ns && Atomic.compare_and_set t.last_scan_ns last now
    then do_scan t c
  end

let scan t (c : client) =
  Atomic.set t.last_scan_ns (Obs.Clock.now_ns ());
  do_scan t c

let set_chaos (c : client) f = c.chaos <- f

(* Kept for perfbench until ROADMAP item 4. *)
let health _ _ = Health.Live

type resilience_stats = {
  scans : int;
  deaths : int;
  reclaimed : int;
  claims_swept : int;
  reclaim_max_scans : int;
  drain_heals : int;
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
    drain_heals = 0;
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
  if cfg.clients < 1 then invalid_arg "Server.create: clients < 1";
  if cfg.clients > owner_mask - 1 then
    invalid_arg "Server.create: clients exceed fence owner encoding";
  let rz = cfg.resilience in
  if rz.scan_interval_ns < 0 then invalid_arg "Server.create: scan_interval_ns < 0";
  if rz.lease_ttl < 1 then invalid_arg "Server.create: lease_ttl < 1";
  if rz.tend_every < 1 then invalid_arg "Server.create: tend_every < 1";
  let cap = cfg.shards * cfg.k_per_shard in
  let stores = Array.make cfg.shards None in
  let base = ref 0 in
  let shard_tbl =
    Array.init cfg.shards (fun s ->
        let layout = Layout.create () in
        let inst = backend layout ~stage:s ~k:cfg.k_per_shard in
        stores.(s) <- Some (Atomic_store.create layout);
        let sd = { inst; base = !base; leases = Any.table inst ~slots:cfg.k_per_shard } in
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
              Pad.copy_as_padded
                (Obs.Flight.create
                   ~capacity:(max 1024 (Obs.Flight.capacity f / cfg.clients))
                   ()))
            flight
        in
        (* one tally across all shard stores: it serves the cost and
           flight paths, and with a registry also the per-group
           counters *)
        let tally = Store.tally ?shard:obs () in
        let flight_pid = Pad.copy_as_padded (ref id) in
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
              Pad.copy_as_padded (match probe with Some p -> Store.probed p o | None -> o))
            stores
        in
        let hot_hists =
          if Option.is_none obs then [||]
          else Array.map (fun _ -> Pad.copy_as_padded (Obs.Histogram.create ())) hot_hist_names
        in
        let c =
          Pad.copy_as_padded
            {
              id;
              obs;
              hot_hists;
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
              chaos = None;
              acquires = 0;
              warm_hits = 0;
              busy = 0;
              shed = 0;
              retired = 0;
              fenced = 0;
            }
        in
        (* the hook reads the padded record, the one the client writes *)
        Option.iter
          (fun o ->
            let last = Array.make (Array.length published) 0 in
            Obs.Registry.on_snapshot o (fun () -> publish c o last))
          obs;
        c)
  in
  {
    cfg;
    shard_tbl;
    stores;
    claims = Array.init cfg.source_space (fun _ -> Atomic.make 0);
    slot_f = Array.make (cap * slot_stride) (-1);
    slot_warm = Array.make (cap * slot_stride) Busy;
    replies = Array.make (cap * reply_stride) Busy;
    fence = Pad.cells (Pad.create cap fence_free);
    hb = Pad.create cfg.clients 0;
    epoch = Pad.create cfg.clients 0;
    last_scan_ns = Atomic.make 0;
    last_hb = Array.make cfg.clients min_int;
    stale = Array.make cfg.clients 0;
    dead = Array.make cfg.clients false;
    rs_scans = Atomic.make 0;
    rs_deaths = Atomic.make 0;
    rs_reclaimed = Atomic.make 0;
    rs_claims_swept = Atomic.make 0;
    rs_reclaim_max = Atomic.make 0;
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
  accesses : int;
}

let client_stats (c : client) =
  {
    acquires = c.acquires;
    warm_hits = c.warm_hits;
    busy = c.busy;
    shed = c.shed;
    drains = c.retired;
    drained_releases = c.retired;
    fenced = c.fenced;
    accesses = Store.tally_total c.tally;
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
    pending = 0;
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
             { Obs.Sampler.name = "shard" ^ p ^ ".warm";
               read = (fun () -> count_fences t sh fence_warm) };
           ]))
  in
  shard_sources
  @ [
      { Obs.Sampler.name = "slab.free"; read = (fun () -> probe_free t) };
      { Obs.Sampler.name = "claims.held"; read = (fun () -> probe_claims t) };
      { Obs.Sampler.name = "scans"; read = (fun () -> Atomic.get t.rs_scans) };
      { Obs.Sampler.name = "reclaimed"; read = (fun () -> Atomic.get t.rs_reclaimed) };
    ]
