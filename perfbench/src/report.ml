(* Minimal JSON emission for the result and context lines. *)

type t =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | List of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec to_string = function
  | Int i -> string_of_int i
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
      else if Float.is_finite f then Printf.sprintf "%.17g" f
      else invalid_arg "Report.to_string: non-finite number"
  | Str s -> "\"" ^ escape s ^ "\""
  | Bool b -> string_of_bool b
  | List l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj kv ->
      "{"
      ^ String.concat ", " (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) kv)
      ^ "}"

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* A readable table, then the context line, then the result as the last
   line of standard output. *)
let print ~context ~correct ~attempted ~failed metrics =
  List.iter (fun m -> Printf.printf "%-40s %20.4f %s\n" m.name m.value m.unit_) metrics;
  print_endline (to_string (Obj [ ("context", context) ]));
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool correct);
            ("attempted", Int attempted);
            ("failed", Int failed);
            ( "metrics",
              Obj
                (List.map
                   (fun m -> (m.name, Obj [ ("value", Float m.value); ("unit", Str m.unit_) ]))
                   metrics) );
          ]))
