open Shared_mem

type t = { k : int; bits : Cell.t array }
type lease = { name : int; lease_probes : int }

let create layout ~k =
  if k < 1 then invalid_arg "Tas_baseline.create: k must be >= 1";
  { k; bits = Layout.alloc_array layout ~name:"TAS" k 0 }

let name_space t = t.k

let test_and_set (ops : Store.ops) c = Store.rmw ops c (fun _ -> 1) = 0

let get_name t (ops : Store.ops) =
  (* start the probe cycle at a pid-dependent offset to spread load *)
  let start = ops.pid mod t.k in
  let rec probe n =
    let name = (start + n) mod t.k in
    if test_and_set ops t.bits.(name) then { name; lease_probes = n + 1 } else probe (n + 1)
  in
  probe 0

let name_of _ lease = lease.name
let release_name t (ops : Store.ops) lease = Store.write ops t.bits.(lease.name) 0
let reset_footprint = Some release_name
let probes lease = lease.lease_probes
