open Shared_mem

type t = {
  k : int;
  s : int;
  x : Cell.t array; (* one per grid block, triangular row-major *)
  y : Cell.t array array; (* presence bits: block x source name *)
}

type lease = { name : int; row : int; col : int }

(* Triangular index of block (r, c), r + c <= k-1: row r starts after
   rows 0..r-1 of lengths k, k-1, ... *)
let index ~k ~r ~c = (r * k) - (r * (r - 1) / 2) + c

let create layout ~k ~s =
  if k < 1 then invalid_arg "Ma.create: k must be >= 1";
  if s < 1 then invalid_arg "Ma.create: s must be >= 1";
  let blocks = k * (k + 1) / 2 in
  {
    k;
    s;
    x = Array.init blocks (fun i -> Layout.alloc layout ~name:(Printf.sprintf "X[%d]" i) (-1));
    y =
      Array.init blocks (fun i ->
          Layout.alloc_array layout ~name:(Printf.sprintf "Y[%d]" i) s 0);
  }

let k t = t.k
let source_space t = t.s
let name_space t = t.k * (t.k + 1) / 2

let get_name t (ops : Store.ops) =
  let p = ops.pid in
  if p < 0 || p >= t.s then invalid_arg "Ma.get_name: pid outside [0,S)";
  let rec move r c =
    let i = index ~k:t.k ~r ~c in
    if r + c = t.k - 1 then begin
      (* diagonal: at most one process can be here at a time *)
      Store.write ops t.y.(i).(p) 1;
      { name = i; row = r; col = c }
    end
    else begin
      Store.write ops t.x.(i) p;
      let occupied = ref false in
      for q = 0 to t.s - 1 do
        if Store.read ops t.y.(i).(q) = 1 then occupied := true
      done;
      if !occupied then move r (c + 1)
      else begin
        Store.write ops t.y.(i).(p) 1;
        if Store.read ops t.x.(i) = p then { name = i; row = r; col = c }
        else begin
          Store.write ops t.y.(i).(p) 0;
          move (r + 1) c
        end
      end
    end
  in
  move 0 0

let name_of _ lease = lease.name

let release_name t (ops : Store.ops) lease =
  Store.write ops t.y.(index ~k:t.k ~r:lease.row ~c:lease.col).(ops.pid) 0

(* the footprint is exactly the presence bit release clears, keyed by
   the (dead) holder's pid *)
let reset_footprint = Some release_name

let grid_position _ lease = (lease.row, lease.col)
