let group c =
  let n = Cell.name c in
  match String.index_opt n '[' with Some i -> String.sub n 0 i | None -> n

(* ----- the flat access arena -----

   Counts live in a flat int array indexed by [3 * Cell.id + kind] —
   Layout hands out dense ids from 0, so counting an access is one
   store into the arena and one bump of the running total.  A direct
   store registers every cell of its layout when its ops are built, so
   its accesses count with no check at all; a closure store ([seq_ops])
   registers a cell on its first access.  Nothing touches the registry
   per access: group counters are materialized lazily, as deltas, when
   a snapshot runs (via [Registry.on_snapshot]) or on an explicit
   [tally_flush].  Single-writer, like every [lib/obs] shard. *)

type tally = {
  mutable slots : int array; (* 3 per cell id: reads / writes / rmws *)
  mutable flushed : int array; (* counts already pushed to the registry *)
  mutable cells : Cell.t option array; (* registered = Some *)
  mutable total : int; (* every access ever, never reset *)
  mutable mark : int; (* set by [tally_mark], read by [tally_since] *)
  bound : Obs.Registry.shard option;
}

let kind_total = [| "store.reads"; "store.writes"; "store.rmws" |]
let kind_prefix = [| "store.reads."; "store.writes."; "store.rmws." |]

let tally_flush t =
  match t.bound with
  | None -> ()
  | Some sh ->
      for id = 0 to Array.length t.cells - 1 do
        match t.cells.(id) with
        | None -> ()
        | Some cell ->
            let g = group cell in
            for k = 0 to 2 do
              let i = (3 * id) + k in
              let d = t.slots.(i) - t.flushed.(i) in
              if d > 0 then begin
                Obs.Counter.add (Obs.Registry.counter sh (kind_prefix.(k) ^ g)) d;
                Obs.Counter.add (Obs.Registry.counter sh kind_total.(k)) d;
                t.flushed.(i) <- t.slots.(i)
              end
            done
      done

(* [total] is bumped on every access: the record is a {!Pad} copy, so
   another writer's arena never shares its line.  The snapshot hook
   below captures the copy, the record the writer updates. *)
let tally ?shard () =
  let t =
    Pad.copy_as_padded
      { slots = [||]; flushed = [||]; cells = [||]; total = 0; mark = 0; bound = shard }
  in
  (match shard with
  | None -> ()
  | Some sh ->
      (* the ungrouped totals exist from creation, even if no access
         is ever counted — schema stability *)
      Array.iter (fun n -> ignore (Obs.Registry.counter sh n : Obs.Counter.t)) kind_total;
      Obs.Registry.on_snapshot sh (fun () -> tally_flush t));
  t

let tally_register t cell =
  let id = Cell.id cell in
  if id >= Array.length t.cells then begin
    let n = max 64 (max (id + 1) (2 * Array.length t.cells)) in
    let cells = Array.make n None in
    Array.blit t.cells 0 cells 0 (Array.length t.cells);
    let slots = Array.make (3 * n) 0 in
    Array.blit t.slots 0 slots 0 (Array.length t.slots);
    let flushed = Array.make (3 * n) 0 in
    Array.blit t.flushed 0 flushed 0 (Array.length t.flushed);
    t.cells <- cells;
    t.slots <- slots;
    t.flushed <- flushed
  end;
  t.cells.(id) <- Some cell

(* Unsafe indexing: the registered check establishes
   [id < length t.cells], and [t.slots] is always allocated at [3 x]
   the cell-array length, so every index is in bounds. *)
let[@inline] tally_count t cell id kind =
  (if id < Array.length t.cells then begin
     match Array.unsafe_get t.cells id with Some _ -> () | None -> tally_register t cell
   end
   else tally_register t cell);
  t.total <- t.total + 1;
  let i = (3 * id) + kind in
  Array.unsafe_set t.slots i (Array.unsafe_get t.slots i + 1)

let tally_total t = t.total
let tally_mark t = t.mark <- t.total
let tally_since t = t.total - t.mark

(* ----- the capability ----- *)

type ops = {
  mutable pid : int;
  read : Cell.t -> int;
  write : Cell.t -> int -> unit;
  rmw : Cell.t -> (int -> int) -> int;
  probe : Obs.Probe.t;
  regs : int Atomic.t array;
  counts : tally;
}

(* The direct arm's "no tally": never counted into, never flushed. *)
let no_tally =
  { slots = [||]; flushed = [||]; cells = [||]; total = 0; mark = 0; bound = None }

let no_regs : int Atomic.t array = [||]

(* Unsafe indexing: [atomic] makes room in [counts] for every register
   before the store runs, and each access indexes [regs] with a bounds
   check first, so [3 * id + kind] is in [t.slots]. *)
let[@inline] count t id kind =
  if t != no_tally then begin
    t.total <- t.total + 1;
    let s = t.slots in
    let i = (3 * id) + kind in
    Array.unsafe_set s i (Array.unsafe_get s i + 1)
  end

let rec cas_loop r f =
  let old = Atomic.get r in
  if Atomic.compare_and_set r old (f old) then old else cas_loop r f

let[@inline] direct_read regs t c =
  let id = Cell.id c in
  let r = regs.(id) in
  count t id 0;
  Atomic.get r

let[@inline] direct_write regs t c v =
  let id = Cell.id c in
  let r = regs.(id) in
  count t id 1;
  Atomic.set r v

let direct_rmw regs t c f =
  let id = Cell.id c in
  let r = regs.(id) in
  count t id 2;
  cas_loop r f

(* An empty [regs] marks a closure store.  A direct store over an empty
   layout takes the closure arm too, which touches no register either. *)
let[@inline] read ops c =
  let regs = ops.regs in
  if Array.length regs = 0 then ops.read c else direct_read regs ops.counts c

let[@inline] write ops c v =
  let regs = ops.regs in
  if Array.length regs = 0 then ops.write c v else direct_write regs ops.counts c v

let[@inline] rmw ops c f =
  let regs = ops.regs in
  if Array.length regs = 0 then ops.rmw c f else direct_rmw regs ops.counts c f

let make ?(probe = Obs.Probe.null) ~pid ~read ~write ~rmw () =
  { pid; read; write; rmw; probe; regs = no_regs; counts = no_tally }

let atomic ?tally ~cells regs ~pid =
  let counts =
    match tally with
    | None -> no_tally
    | Some t ->
        Array.iter (tally_register t) cells;
        (* [count]'s unsafe indexing needs a slot for every register *)
        if Array.length t.cells < Array.length regs then
          invalid_arg "Store.atomic: fewer cells than registers";
        t
  in
  {
    pid;
    read = (fun c -> direct_read regs counts c);
    write = (fun c v -> direct_write regs counts c v);
    rmw = (fun c f -> direct_rmw regs counts c f);
    probe = Obs.Probe.null;
    regs;
    counts;
  }

let set_pid ops pid = ops.pid <- pid
let with_pid ops pid = { ops with pid }
let probed p ops = { ops with probe = p }

(* ----- sequential store ----- *)

type seq = int array

let seq_create layout = Layout.initial_values layout

(* Counting or not is decided here, not per access. *)
let seq_ops ?tally mem ~pid =
  match tally with
  | None ->
      make ~pid
        ~read:(fun c -> mem.(Cell.id c))
        ~write:(fun c v -> mem.(Cell.id c) <- v)
        ~rmw:(fun c f ->
          let v = mem.(Cell.id c) in
          mem.(Cell.id c) <- f v;
          v)
        ()
  | Some t ->
      make ~pid
        ~read:(fun c ->
          let id = Cell.id c in
          tally_count t c id 0;
          mem.(id))
        ~write:(fun c v ->
          let id = Cell.id c in
          tally_count t c id 1;
          mem.(id) <- v)
        ~rmw:(fun c f ->
          let id = Cell.id c in
          tally_count t c id 2;
          let v = mem.(id) in
          mem.(id) <- f v;
          v)
        ()

let seq_get mem c = mem.(Cell.id c)
let seq_set mem c v = mem.(Cell.id c) <- v

(* ----- per-operation counters ----- *)

type counter = { reads : Obs.Counter.t; writes : Obs.Counter.t }

let counter () = { reads = Obs.Counter.create (); writes = Obs.Counter.create () }

let counting c ops =
  make ~pid:ops.pid ~probe:ops.probe
    ~read:(fun cell ->
      Obs.Counter.incr c.reads;
      read ops cell)
    ~write:(fun cell v ->
      Obs.Counter.incr c.writes;
      write ops cell v)
    ~rmw:(fun cell f ->
      (* one atomic access; tally it as a write *)
      Obs.Counter.incr c.writes;
      rmw ops cell f)
    ()

let reads c = Obs.Counter.get c.reads
let writes c = Obs.Counter.get c.writes
let accesses c = reads c + writes c

let reset c =
  Obs.Counter.reset c.reads;
  Obs.Counter.reset c.writes
