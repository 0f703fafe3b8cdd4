open Shared_mem

type t = {
  k : int;
  x : Cell.t array; (* per block *)
  y : Cell.t array; (* per block, the one-shot "taken" bit *)
}

let index ~k ~r ~c = (r * k) - (r * (r - 1) / 2) + c

let create layout ~k =
  if k < 1 then invalid_arg "One_time.create: k must be >= 1";
  let blocks = k * (k + 1) / 2 in
  {
    k;
    x = Array.init blocks (fun i -> Layout.alloc layout ~name:(Printf.sprintf "OX[%d]" i) (-1));
    y = Array.init blocks (fun i -> Layout.alloc layout ~name:(Printf.sprintf "OY[%d]" i) 0);
  }

let name_space t = t.k * (t.k + 1) / 2

let get_name t (ops : Store.ops) =
  let rec move r c =
    let i = index ~k:t.k ~r ~c in
    if r + c = t.k - 1 then i (* diagonal block: at most one arrival *)
    else begin
      Store.write ops t.x.(i) ops.pid;
      if Store.read ops t.y.(i) = 1 then move r (c + 1)
      else begin
        Store.write ops t.y.(i) 1;
        if Store.read ops t.x.(i) = ops.pid then i else move (r + 1) c
      end
    end
  in
  move 0 0

let grid_position t name =
  let rec find r =
    let row_start = index ~k:t.k ~r ~c:0 in
    let row_len = t.k - r in
    if name < row_start + row_len then (r, name - row_start) else find (r + 1)
  in
  find 0
