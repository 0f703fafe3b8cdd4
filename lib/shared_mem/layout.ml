type t = {
  mutable cells : Cell.t list; (* reversed *)
  mutable count : int;
}

let create () = { cells = []; count = 0 }

let alloc t ?(name = "r") init =
  let c = Cell.make ~id:t.count ~name ~init in
  t.cells <- c :: t.cells;
  t.count <- t.count + 1;
  c

let alloc_array t ?(name = "r") len init =
  Array.init len (fun i -> alloc t ~name:(Printf.sprintf "%s[%d]" name i) init)

let size t = t.count
let cells t = List.rev t.cells (* ids are allocated in order *)

let initial_values t =
  let a = Array.make t.count 0 in
  List.iter (fun c -> a.(Cell.id c) <- Cell.init c) t.cells;
  a

let cell_name t id =
  if id < 0 || id >= t.count then invalid_arg "Layout.cell_name";
  let rec find = function
    | [] -> assert false
    | c :: rest -> if Cell.id c = id then Cell.name c else find rest
  in
  find t.cells
