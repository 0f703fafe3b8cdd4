(* clock_gettime(CLOCK_MONOTONIC) through bechamel's noalloc stub: the
   int64 comes back unboxed, so a read allocates nothing. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
