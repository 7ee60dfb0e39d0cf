(* Monotonic wall clock in seconds, nanosecond resolution.  Serve round
   trips are tens of microseconds, below what [Unix.gettimeofday]'s
   microsecond ticks resolve steadily. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
