(* Host-speed probe.

   The 2-vCPU host the bounds in BENCHMARK.json were measured on changes
   CPU speed by up to 1.8x for tens of seconds at a time.  A fixed piece
   of pure-OCaml work, timed at the start and end of each repetition and
   at fixed points in between, tracks that speed: it allocates
   short-lived blocks like the simulators do and reads a table larger
   than the L2 cache.  A repetition's CPU-bound figures ({!Rep.cpu}) are
   scaled by [ref_ns] over the probe's measured time, so they read as if
   the host ran at its reference speed.  The probe touches nothing the
   benchmark measures. *)

(* the probe's duration at the reference speed, fixed once on that host *)
let ref_ns = 8_000_000.

let table = Array.init (1 lsl 20) (fun i -> i land 0xFF)

let work () =
  let acc = ref 0 and x = ref 12345 in
  for _ = 1 to 300_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let l = [ !x; !acc ] in
    acc := !acc + List.length (Sys.opaque_identity l) + Array.unsafe_get table (!x land 0xFFFFF)
  done;
  !acc

let time_once () =
  let t0 = Clock.now_ns () in
  ignore (Sys.opaque_identity (work ()));
  Float.of_int (Clock.now_ns () - t0)

(* Samples of the current repetition: taken at its start and end and,
   through {!sample}, at fixed points of its work in between, always
   outside the timed windows.  Fixed points, not fixed times: the probe
   allocates, and sampling on a timer would make the GC's schedule, and
   with it peak memory, differ from run to run.  A repetition's speed is
   the mean of its samples. *)
let sum = ref 0.
let n = ref 0

let sample () =
  sum := !sum +. time_once ();
  incr n

let start () =
  sum := 0.;
  n := 0;
  sample ()

let finish () =
  sample ();
  !sum /. Float.of_int !n
