(* Each cell is one block of [2 * line_words] words, header included,
   whose field 0 is the atomic's value and whose other fields are never
   read.  The spacing lives inside the block, so it moves with it: a
   minor-heap evacuation copies all 16 words into the major pool of
   16-word blocks, and compaction never shrinks a block.  Two cells'
   value words are therefore always at least 128 bytes apart, so they
   can never share a 64-byte line — wherever the line boundaries fall
   within the blocks.  This is multicore-magic's [copy_as_padded]
   construction for OCaml < 5.2, specialised to int cells. *)
let line_words = 8

type t = int Atomic.t array

let padded v : int Atomic.t =
  let b = Obj.new_block 0 ((2 * line_words) - 1) in
  Obj.set_field b 0 (Obj.repr (v : int));
  Obj.obj b

let create n v =
  if n < 0 then invalid_arg "Pad.create: negative length";
  Array.init n (fun _ -> padded v)

let cells t = t
let get t i = Atomic.get t.(i)
let length = Array.length
