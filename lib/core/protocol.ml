module type S = sig
  type t
  type lease

  val name_space : t -> int
  val get_name : t -> Shared_mem.Store.ops -> lease
  val name_of : t -> lease -> int
  val release_name : t -> Shared_mem.Store.ops -> lease -> unit
  val reset_footprint : (t -> Shared_mem.Store.ops -> lease -> unit) option
end

type packed = Packed : (module S with type t = 'a) * 'a -> packed

module Any = struct
  type t = packed
  type lease = Lease : (module S with type t = 'a and type lease = 'l) * 'a * 'l -> lease

  let pack (type a) (m : (module S with type t = a)) (inst : a) = Packed (m, inst)
  let of_packed p = p

  let name_space (Packed ((module P), inst)) = P.name_space inst

  let get_name (Packed ((module P), inst)) ops =
    let l = P.get_name inst ops in
    Lease ((module P), inst, l)

  let name_of _ (Lease ((module P), inst, l)) = P.name_of inst l

  let release_name _ ops (Lease ((module P), inst, l)) = P.release_name inst ops l

  (* Always [Some]: the packed module decides at run time.  Raises
     [Invalid_argument] when the underlying protocol has no recovery
     path — the dynamic analogue of matching on [P.reset_footprint]. *)
  let reset_footprint =
    Some
      (fun _ ops (Lease ((module P), inst, l)) ->
        match P.reset_footprint with
        | Some reset -> reset inst ops l
        | None -> invalid_arg "Protocol.Any.reset_footprint: protocol has no recovery path")

  let reset_available (Packed ((module P), _)) =
    match P.reset_footprint with Some _ -> true | None -> false

  (* Entry [i] sits at [i * table_stride]: one entry a line, so writers
     of different entries never share one.  The array is made by the
     instance's first grant, from that grant's lease, because a
     ['l array] can only be made from an ['l]; the CAS keeps one array
     when two first grants race. *)
  type table =
    | Table : {
        m : (module S with type t = 'a and type lease = 'l);
        inst : 'a;
        slots : int;
        leases : 'l array Atomic.t;
      }
        -> table

  let table_stride = Shared_mem.Pad.line_words

  let table (Packed ((module P), inst)) ~slots =
    if slots < 1 then invalid_arg "Protocol.Any.table: slots < 1";
    Table
      { m = (module P); inst; slots; leases = Shared_mem.Pad.copy_as_padded (Atomic.make [||]) }

  let get_into (Table r) i ops =
    let module P = (val r.m) in
    let l = P.get_name r.inst ops in
    let a = Atomic.get r.leases in
    if Array.length a > 0 then a.(i * table_stride) <- l
    else begin
      if i < 0 || i >= r.slots then invalid_arg "Protocol.Any.get_into: bad entry";
      let fresh = Array.make (r.slots * table_stride) l in
      if not (Atomic.compare_and_set r.leases a fresh) then
        (Atomic.get r.leases).(i * table_stride) <- l
    end;
    P.name_of r.inst l

  let release_from (Table r) i ops ~reset =
    let module P = (val r.m) in
    let l = (Atomic.get r.leases).(i * table_stride) in
    match P.reset_footprint with
    | Some reset_footprint when reset -> reset_footprint r.inst ops l
    | _ -> P.release_name r.inst ops l
end

module Chain (A : S) (B : S) = struct
  type t = { a : A.t; b : B.t }
  type lease = { la : A.lease; lb : B.lease }

  let make a b = { a; b }
  let first t = t.a
  let second t = t.b
  let name_space t = B.name_space t.b

  let get_name t (ops : Shared_mem.Store.ops) =
    let la = A.get_name t.a ops in
    let inner = Shared_mem.Store.with_pid ops (A.name_of t.a la) in
    let lb = B.get_name t.b inner in
    { la; lb }

  let name_of t l = B.name_of t.b l.lb

  let release_name t (ops : Shared_mem.Store.ops) l =
    let inner = Shared_mem.Store.with_pid ops (A.name_of t.a l.la) in
    B.release_name t.b inner l.lb;
    A.release_name t.a ops l.la

  (* Innermost-first like release, with the corpse's [B]-side identity
     being the intermediate name it still held in [A]. *)
  let reset_footprint =
    match (A.reset_footprint, B.reset_footprint) with
    | Some reset_a, Some reset_b ->
        Some
          (fun t (ops : Shared_mem.Store.ops) l ->
            let inner = Shared_mem.Store.with_pid ops (A.name_of t.a l.la) in
            reset_b t.b inner l.lb;
            reset_a t.a ops l.la)
    | _ -> None
end

module Chain_any = Chain (Any) (Any)

(* Same wiring, no recovery hook: the dynamic analogue of the static
   [Chain]'s [| _ -> None].  Packing this (rather than [Chain_any],
   whose [reset_footprint] is unconditionally [Some] and raises at
   reclaim time) makes [Any.reset_available] answer honestly for
   chains with an unrecoverable stage. *)
module Chain_any_norecover = struct
  include Chain_any

  let reset_footprint = None
end

let chain_any a b =
  if Any.reset_available a && Any.reset_available b then
    Any.pack (module Chain_any) (Chain_any.make a b)
  else Any.pack (module Chain_any_norecover) (Chain_any.make a b)

let chain_all = function
  | [] -> invalid_arg "Protocol.chain_all: empty pipeline"
  | first :: rest -> List.fold_left chain_any first rest
