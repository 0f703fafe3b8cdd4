open Shared_mem

let test_alloc () =
  let l = Layout.create () in
  let a = Layout.alloc l ~name:"a" 7 in
  let b = Layout.alloc l ~name:"b" (-1) in
  let arr = Layout.alloc_array l ~name:"y" 3 0 in
  Alcotest.(check int) "size" 5 (Layout.size l);
  Alcotest.(check int) "a id" 0 (Cell.id a);
  Alcotest.(check int) "b id" 1 (Cell.id b);
  Alcotest.(check string) "array names" "y[2]" (Cell.name arr.(2));
  Alcotest.(check (array int)) "initials" [| 7; -1; 0; 0; 0 |] (Layout.initial_values l);
  Alcotest.(check string) "cell_name" "b" (Layout.cell_name l 1);
  Alcotest.(check bool) "equal" true (Cell.equal a a);
  Alcotest.(check bool) "distinct" false (Cell.equal a b)

let test_cell_name_out_of_range () =
  let l = Layout.create () in
  Alcotest.check_raises "oob" (Invalid_argument "Layout.cell_name") (fun () ->
      ignore (Layout.cell_name l 0))

let test_seq_store () =
  let l = Layout.create () in
  let a = Layout.alloc l ~name:"a" 5 in
  let mem = Store.seq_create l in
  let ops = Store.seq_ops mem ~pid:3 in
  Alcotest.(check int) "pid" 3 ops.pid;
  Alcotest.(check int) "initial" 5 (ops.read a);
  ops.write a 9;
  Alcotest.(check int) "written" 9 (ops.read a);
  Alcotest.(check int) "peek" 9 (Store.seq_get mem a);
  Store.seq_set mem a 2;
  Alcotest.(check int) "poked" 2 (ops.read a)

let test_counting () =
  let l = Layout.create () in
  let a = Layout.alloc l 0 in
  let mem = Store.seq_create l in
  let c = Store.counter () in
  let ops = Store.counting c (Store.seq_ops mem ~pid:0) in
  ops.write a 1;
  let (_ : int) = ops.read a in
  let (_ : int) = ops.read a in
  Alcotest.(check int) "reads" 2 (Store.reads c);
  Alcotest.(check int) "writes" 1 (Store.writes c);
  Alcotest.(check int) "accesses" 3 (Store.accesses c);
  Store.reset c;
  Alcotest.(check int) "reset" 0 (Store.accesses c)

(* the direct arm counts with unchecked indexing, so a tallied atomic
   store must be given a cell for every register *)
let test_atomic_needs_cells () =
  let l = Layout.create () in
  let cells = Layout.alloc_array l 3 0 in
  let regs = Array.init 3 (fun _ -> Atomic.make 0) in
  Alcotest.check_raises "missing cells"
    (Invalid_argument "Store.atomic: fewer cells than registers") (fun () ->
      ignore (Store.atomic ~tally:(Store.tally ()) ~cells:[||] regs ~pid:0));
  let tally = Store.tally () in
  let ops = Store.atomic ~tally ~cells regs ~pid:0 in
  Store.write ops cells.(2) 4;
  Alcotest.(check int) "direct write lands" 4 (Atomic.get regs.(2));
  Alcotest.(check int) "direct read" 4 (Store.read ops cells.(2));
  Alcotest.(check int) "both counted" 2 (Store.tally_total tally)

let prop_layout_initials =
  Test_util.qtest "initial_values reflects every alloc"
    QCheck2.Gen.(list_size (int_range 1 100) (int_range (-1000) 1000))
    (fun inits ->
      let l = Layout.create () in
      let cells = List.map (fun v -> Layout.alloc l v) inits in
      let snapshot = Layout.initial_values l in
      List.for_all2 (fun c v -> snapshot.(Cell.id c) = v && Cell.init c = v) cells inits)

let prop_seq_store_last_write_wins =
  Test_util.qtest "sequential store: last write wins"
    QCheck2.Gen.(list_size (int_range 1 50) (pair (int_range 0 9) small_int))
    (fun writes ->
      let l = Layout.create () in
      let cells = Layout.alloc_array l 10 0 in
      let mem = Store.seq_create l in
      let ops = Store.seq_ops mem ~pid:0 in
      let expected = Array.make 10 0 in
      List.iter
        (fun (i, v) ->
          ops.write cells.(i) v;
          expected.(i) <- v)
        writes;
      Array.for_all2 (fun c v -> ops.read c = v) cells expected)

let () =
  Alcotest.run "shared_mem"
    [
      ( "layout",
        [
          Alcotest.test_case "alloc" `Quick test_alloc;
          Alcotest.test_case "cell_name out of range" `Quick test_cell_name_out_of_range;
        ] );
      ( "store",
        [
          Alcotest.test_case "seq store" `Quick test_seq_store;
          Alcotest.test_case "counting wrapper" `Quick test_counting;
          Alcotest.test_case "atomic needs every cell" `Quick test_atomic_needs_cells;
        ] );
      ("property", [ prop_layout_initials; prop_seq_store_last_write_wins ]);
    ]
