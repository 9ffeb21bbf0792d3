(* CLOCK_MONOTONIC via bechamel's C stub (already a build dependency of the
   bench harness). [Sys.time] must never be used for task accounting: it
   returns process-wide CPU time, so under [--jobs N] every concurrent
   task's reading is inflated by the CPU the other domains burn. *)

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
