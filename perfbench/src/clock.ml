(* Host monotonic clock in nanoseconds.  The read is an unboxed,
   non-allocating external, so timing a call leaves the minor-heap
   counters the benchmark reports untouched. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
