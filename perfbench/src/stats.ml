(* Medians, quartiles and the percentile rule.

   Every reported percentile carries its sample count, and a percentile
   with fewer than {!min_beyond} samples above it is refused: its value
   would be set by a handful of outliers. *)

let min_beyond = 10

exception Too_few_samples of { what : string; q : float; n : int }

let () =
  Printexc.register_printer (function
    | Too_few_samples { what; q; n } ->
      Some
        (Printf.sprintf "percentile rule: %s p%g has %d samples, needs %d beyond it" what
           (100. *. q) n min_beyond)
    | _ -> None)

(* samples strictly ranked above the q-quantile *)
let beyond ~q n = int_of_float (Float.of_int n *. (1. -. q) +. 1e-9)

(* the smallest sample count for which [q] may be reported *)
let needed q =
  let n = ref 1 in
  while beyond ~q !n < min_beyond do
    incr n
  done;
  !n

(* linear interpolation between closest ranks (the type-7 estimator) *)
let quantile_sorted (s : float array) q =
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.quantile_sorted: empty";
  let h = q *. Float.of_int (n - 1) in
  let lo = int_of_float (Float.of_int (truncate h)) in
  let hi = min (n - 1) (lo + 1) in
  s.(lo) +. ((h -. Float.of_int lo) *. (s.(hi) -. s.(lo)))

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

type pct = { value : float; n : int }

(* [percentile ~what q samples]: [n = 0] means the layer was not
   exercised and reports 0; otherwise the percentile rule applies *)
let percentile ~what q (samples : float array) =
  let n = Array.length samples in
  if n = 0 then { value = 0.; n = 0 }
  else if beyond ~q n < min_beyond then raise (Too_few_samples { what; q; n })
  else { value = quantile_sorted (sorted samples) q; n }

let median (xs : float list) =
  match xs with
  | [] -> 0.
  | _ -> quantile_sorted (sorted (Array.of_list xs)) 0.5

(* growable int sample buffer (nanoseconds, words): ints, so recording a
   sample never boxes; [add] allocates only when the buffer grows *)
type samples = { mutable a : int array; mutable len : int }

let samples () = { a = Array.make 1024 0; len = 0 }

let add s v =
  if s.len = Array.length s.a then begin
    let b = Array.make (2 * s.len) 0 in
    Array.blit s.a 0 b 0 s.len;
    s.a <- b
  end;
  Array.unsafe_set s.a s.len v;
  s.len <- s.len + 1

let to_floats s = Array.init s.len (fun i -> Float.of_int s.a.(i))
let length s = s.len
