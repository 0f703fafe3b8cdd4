type t = {
  k : int;
  nodes : Splitter.t array;
      (* complete ternary tree, heap numbering: children of [i] are
         [3i+1], [3i+2], [3i+3]; depths 0..k-2 *)
}

(* The token of the splitter entered at depth [h] sits in bits
   [4h .. 4h+3], root first.  The splitter itself is not stored: its
   heap index follows from the directions above it. *)
type lease = int

let pow3 n = Numeric.Intmath.pow 3 n

let create ?(stage = 0) layout ~k =
  if k < 1 then invalid_arg "Split.create: k must be >= 1";
  if k > 12 then invalid_arg "Split.create: k > 12 needs a 3^k-node tree";
  let interior = (pow3 (k - 1) - 1) / 2 in
  {
    k;
    nodes =
      Array.init interior (fun i ->
          Splitter.create ~loc:(Obs.Loc.Splitter { stage; node = i }) layout);
  }

let k t = t.k
let name_space t = pow3 (t.k - 1)
let token lease h = (lease lsr (4 * h)) land 15

let get_name t ops =
  let lease = ref 0 in
  let idx = ref 0 in
  for h = 0 to t.k - 2 do
    let tok = Splitter.enter t.nodes.(!idx) ops in
    lease := !lease lor (tok lsl (4 * h));
    idx := (3 * !idx) + Splitter.direction tok + 2
  done;
  !lease

(* leaf label [s], read as base 3 with the root symbol least
   significant: Σ (1+s[i])·3^i *)
let name_of t lease =
  let name = ref 0 in
  for h = t.k - 2 downto 0 do
    name := (3 * !name) + Splitter.direction (token lease h) + 1
  done;
  !name

(* Release (or, with [reset], reset) each level's splitter, deepest
   first: Using(child) must end before Inside(parent).  The descent is
   replayed once to find the deepest node; the walk back up uses
   parent = (i-1)/3.  A flag, not a [step] closure, so that each
   splitter call is a direct one. *)
let unwind ~reset t ops lease =
  let idx = ref 0 in
  for h = 0 to t.k - 3 do
    idx := (3 * !idx) + Splitter.direction (token lease h) + 2
  done;
  for h = t.k - 2 downto 0 do
    let node = t.nodes.(!idx) and tok = token lease h in
    if reset then Splitter.reset node ops tok else Splitter.release node ops tok;
    idx := (!idx - 1) / 3
  done

let release_name t ops lease = unwind ~reset:false t ops lease
let reset_footprint = Some (fun t ops lease -> unwind ~reset:true t ops lease)
let path_string t lease = Array.init (t.k - 1) (fun h -> Splitter.direction (token lease h))
