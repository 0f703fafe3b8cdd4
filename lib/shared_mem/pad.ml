(* A padded copy is one block whose fields are the original's, followed
   by at least [line_words - 1] fields that are never read, the whole
   block a whole number of lines long.  The spacing lives inside the
   block, so it moves with it: a minor-heap evacuation copies every
   word into the major pool of the block's size, and compaction never
   shrinks a block.  Two padded blocks' used fields are therefore
   always at least a line apart, so they can never share a 64-byte
   line — wherever the line boundaries fall within the blocks, and
   whichever domain allocated or promoted them.  This is
   multicore-magic's [copy_as_padded] for OCaml < 5.2. *)
let line_words = 8

(* Header included, [n] fields plus [line_words - 1] spare words,
   rounded up to whole lines; never less than two lines. *)
let padded_words n = (n + line_words + line_words - 1) / line_words * line_words

let copy_as_padded (x : 'a) : 'a =
  let o = Obj.repr x in
  if Obj.is_int o || Obj.tag o >= Obj.lazy_tag then
    invalid_arg "Pad.copy_as_padded: not a record, tuple or variant block";
  let n = Obj.size o in
  let b = Obj.new_block (Obj.tag o) (padded_words n - 1) in
  for i = 0 to n - 1 do
    Obj.set_field b i (Obj.field o i)
  done;
  Obj.obj b

type t = int Atomic.t array

let padded v : int Atomic.t = copy_as_padded (Atomic.make v)

let create n v =
  if n < 0 then invalid_arg "Pad.create: negative length";
  Array.init n (fun _ -> padded v)

let cells t = t
let get t i = Atomic.get t.(i)
let length = Array.length
