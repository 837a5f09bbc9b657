(* SplitMix64: the only source of randomness in the benchmark.  Every
   input is drawn from a generator seeded from the command-line seed, so
   the same seed gives the same inputs on any host and OCaml version. *)

type t = { mutable s : int64 }

let create seed = { s = Int64.of_int seed }

let next64 t =
  t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
  let z = t.s in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* uniform in [0, bound) *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int";
  Int64.to_int (Int64.unsigned_rem (Int64.shift_right_logical (next64 t) 1) (Int64.of_int bound))

(* uniform in [lo, hi] *)
let range t lo hi = lo + int t (hi - lo + 1)

let bool t = int t 2 = 0

let pick t arr = arr.(int t (Array.length arr))

(* an independent stream for one named input family, so adding draws to
   one family never shifts another *)
let split t = create (Int64.to_int (next64 t))
