open Shared_mem

module Mutant_mutex = struct
  type variant = Read_before_write | Turn_lost_on_release | No_yield
  type t = { r : Cell.t array; variant : variant }
  type slot = int

  (* Same register encoding as Pf_mutex: bit 0 = turn, bit 1 = presence;
     the nil of the 3-valued variants is encoded as "absent". *)
  let turn_bit v = v land 1
  let is_present v = v land 2 <> 0
  let present t = 2 lor t

  let create layout variant = { r = Layout.alloc_array layout ~name:"MR" 2 0; variant }

  let enter t (ops : Store.ops) ~dir =
    match t.variant with
    | Read_before_write ->
        (* refuted reconstruction #1: look, then leap *)
        let opp = Store.read ops t.r.(1 - dir) in
        let own = if is_present opp then dir lxor turn_bit opp else dir in
        Store.write ops t.r.(dir) (present own);
        own
    | Turn_lost_on_release ->
        (* publish before reading, but the turn bit does not survive
           release (see [release]) *)
        Store.write ops t.r.(dir) (present dir);
        let opp = Store.read ops t.r.(1 - dir) in
        if is_present opp then begin
          let own = dir lxor turn_bit opp in
          Store.write ops t.r.(dir) (present own);
          own
        end
        else dir
    | No_yield ->
        (* claims the combined turn points at the opponent *)
        let t_own = turn_bit (Store.read ops t.r.(dir)) in
        Store.write ops t.r.(dir) (present t_own);
        let opp = Store.read ops t.r.(1 - dir) in
        let own = (1 - dir) lxor turn_bit opp in
        Store.write ops t.r.(dir) (present own);
        own

  let check t (ops : Store.ops) ~dir own =
    let opp = Store.read ops t.r.(1 - dir) in
    (not (is_present opp)) || own lxor turn_bit opp <> dir

  let release t (ops : Store.ops) ~dir own =
    match t.variant with
    | Turn_lost_on_release -> Store.write ops t.r.(dir) 0 (* drops the turn bit *)
    | Read_before_write | No_yield -> Store.write ops t.r.(dir) (own land 1)
end

module Mutant_splitter = struct
  type variant = No_interference_check | No_advice_flip
  type t = { last : Cell.t; advice1 : Cell.t; advice2 : Cell.t; variant : variant }
  type token = { advice : int; adv2 : bool; direction : int }

  let bottom = 0

  let create layout variant =
    {
      last = Layout.alloc layout ~name:"MLAST" (-1);
      advice1 = Layout.alloc layout ~name:"MADVICE1" 1;
      advice2 = Layout.alloc layout ~name:"MADVICE2" 1;
      variant;
    }

  let enter t (ops : Store.ops) =
    Store.write ops t.last ops.pid;
    let a = Store.read ops t.advice1 in
    let a = if a = bottom then Store.read ops t.advice2 else a in
    let advice_out = match t.variant with No_advice_flip -> a | No_interference_check -> -a in
    Store.write ops t.advice1 advice_out;
    let adv2 = Store.read ops t.last = ops.pid in
    if adv2 then Store.write ops t.advice2 advice_out;
    let direction =
      match t.variant with
      | No_interference_check -> a (* line 7 dropped: never returns 0 *)
      | No_advice_flip -> if Store.read ops t.last = ops.pid then a else 0
    in
    { advice = a; adv2; direction }

  let direction tok = tok.direction

  let release t (ops : Store.ops) tok =
    if Store.read ops t.last = ops.pid then Store.write ops t.advice1 tok.advice;
    if not tok.adv2 then Store.write ops t.advice1 bottom
end

module Mutant_costly = struct
  type variant = Quadratic_rescan
  type t = { ma : Ma.t; pad : Cell.t; extra : int }
  type lease = Ma.lease

  let create layout Quadratic_rescan ~k ~s =
    {
      ma = Ma.create layout ~k ~s;
      pad = Layout.alloc layout ~name:"MPAD" 0;
      (* one past the Moir–Anderson bound k(s+4)+1, so even a
         contention-free GetName lands beyond it *)
      extra = (k * (s + 4)) + 2;
    }

  let name_space t = Ma.name_space t.ma

  let get_name t (ops : Store.ops) =
    let lease = Ma.get_name t.ma ops in
    for _ = 1 to t.extra do
      ignore (Store.read ops t.pad)
    done;
    lease

  let name_of t lease = Ma.name_of t.ma lease
  let release_name t (ops : Store.ops) lease = Ma.release_name t.ma ops lease

  (* mutants model broken deployments: no recovery path *)
  let reset_footprint = None
end

module Mutant_level = struct
  type variant = Torn_claim

  type t = { k : int; bits : Cell.t array }
  type lease = { name : int }

  let create layout Torn_claim ~k =
    if k < 1 then invalid_arg "Mutant_level.create: k must be >= 1";
    { k; bits = Layout.alloc_array layout ~name:"MLVL" k 0 }

  let name_space t = t.k

  (* the probe/claim discipline with the claim torn into a read and a
     write: two probers can both see slot 0 free and both claim it *)
  let get_name t (ops : Store.ops) =
    let rec probe j =
      let s = j mod t.k in
      if Store.read ops t.bits.(s) = 0 then begin
        Store.write ops t.bits.(s) 1;
        { name = s }
      end
      else probe (j + 1)
    in
    probe 0

  let name_of _ lease = lease.name
  let release_name t (ops : Store.ops) lease = Store.write ops t.bits.(lease.name) 0
  let reset_footprint = None
end

module Mutant_compact = struct
  (* the compact cascade wiring over interference-blind cells: lockstep
     entrants read the same advice, take the same side at every level
     and land on the same leaf *)
  module Cell = struct
    type t = Mutant_splitter.t
    type token = Mutant_splitter.token

    let create ?loc:_ layout = Mutant_splitter.create layout No_interference_check
    let enter = Mutant_splitter.enter
    let direction = Mutant_splitter.direction
    let release = Mutant_splitter.release
    let reset = None
  end

  include Compact_split.Make (Cell)
end

module Mutant_ma = struct
  type variant = No_recheck

  type t = { k : int; s : int; x : Cell.t array; y : Cell.t array array; variant : variant }
  type lease = { name : int; row : int; col : int }

  let index ~k ~r ~c = (r * k) - (r * (r - 1) / 2) + c

  let create layout variant ~k ~s =
    let blocks = k * (k + 1) / 2 in
    {
      k;
      s;
      x = Array.init blocks (fun i -> Layout.alloc layout ~name:(Printf.sprintf "MX[%d]" i) (-1));
      y =
        Array.init blocks (fun i ->
            Layout.alloc_array layout ~name:(Printf.sprintf "MY[%d]" i) s 0);
      variant;
    }

  let name_space t = t.k * (t.k + 1) / 2

  let get_name t (ops : Store.ops) =
    let rec move r c =
      let i = index ~k:t.k ~r ~c in
      if r + c = t.k - 1 then begin
        Store.write ops t.y.(i).(ops.pid) 1;
        { name = i; row = r; col = c }
      end
      else begin
        Store.write ops t.x.(i) ops.pid;
        let occupied = ref false in
        for q = 0 to t.s - 1 do
          if Store.read ops t.y.(i).(q) = 1 then occupied := true
        done;
        if !occupied then move r (c + 1)
        else begin
          Store.write ops t.y.(i).(ops.pid) 1;
          match t.variant with
          | No_recheck ->
              (* stop without re-reading X: racing entrants collide *)
              { name = i; row = r; col = c }
        end
      end
    in
    move 0 0

  let name_of _ lease = lease.name

  let release_name t (ops : Store.ops) lease =
    Store.write ops t.y.(index ~k:t.k ~r:lease.row ~c:lease.col).(ops.pid) 0

  let reset_footprint = None
end
