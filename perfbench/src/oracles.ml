(* Reference results for the exec and router workloads, written from the
   programs' specifications in plain OCaml: nothing here calls the code
   generators, the simulators or the classifiers under test.  Results
   are compared as unsigned 32-bit values. *)

let u32 v = v land 0xFFFFFFFF
let sext32 v = (v lsl 31) asr 31

(* alu-loop: acc = 0; for i = 0 to n-1: acc = (acc + i) lor 3 *)
let alu_loop n =
  let acc = ref 0 in
  for i = 0 to n - 1 do
    acc := sext32 (!acc + i) lor 3
  done;
  u32 !acc

(* region-loop: [outer] passes of a 64-step chain of one-operation
   stages, with a rare arm taken when (j + 21) land 63 = 0 *)
let region_loop outer =
  let acc = ref 0 in
  for _ = 1 to outer do
    for j = 0 to 63 do
      acc := sext32 (!acc + j);
      acc := !acc lxor 33;
      acc := sext32 (!acc + 7);
      if (j + 21) land 63 = 0 then acc := sext32 (!acc + 77);
      acc := !acc lor 9;
      acc := !acc lxor 57
    done
  done;
  u32 !acc

(* workloads/josephus.asm: survivor positions for ring sizes 1..n, k = 3 *)
let josephus n =
  let v = ref 0 in
  for size = 1 to n do
    let f = ref 0 in
    for i = 2 to size do
      f := (!f + 3) mod i
    done;
    v := u32 ((!v lxor !f) + (!f lsl 1))
  done;
  !v

(* workloads/sort.asm: n (at most 256) LCG values, sorted, folded *)
let sort n =
  let n = min n 256 in
  let s = ref 12345 in
  let a =
    Array.init n (fun _ ->
        s := u32 ((!s * 1103515245) + 12345);
        !s land 0xFFFF)
  in
  Array.sort compare a;
  let v = ref 0 in
  Array.iteri (fun i x -> v := u32 ((!v lxor x) + i)) a;
  !v

(* workloads/statemach.asm: a 4-state table-driven DFA over n (at most
   4096) generated symbols; handler 4 is the accepting transition *)
let statemach n =
  let n = min n 4096 in
  let table = [| [| 0; 1; 2; 3 |]; [| 1; 2; 3; 4 |]; [| 2; 3; 4; 0 |]; [| 3; 4; 0; 1 |] |] in
  let state = ref 0 and v = ref 0 and g = ref 0x2f in
  for i = 0 to n - 1 do
    g := ((5 * !g) + 7) land 255;
    let sym = (!g lsr 2) land 3 in
    match table.(!state).(sym) with
    | 0 -> state := 1
    | 1 ->
      state := 2;
      v := u32 (!v + 1)
    | 2 ->
      state := 3;
      v := !v lxor i
    | 3 ->
      state := 0;
      v := u32 (!v + 3)
    | _ ->
      state := 0;
      v := u32 (!v + 5)
  done;
  u32 (!v + !state)

(* Table 4's copy+checksum: the 16-bit ones'-complement-style sum of
   both halves of every 32-bit word, folded to 16 bits *)
let checksum (words : int array) n =
  let s = ref 0 in
  for i = 0 to n - 1 do
    let w = u32 words.(i) in
    s := !s + (w land 0xFFFF) + (w lsr 16)
  done;
  while !s lsr 16 <> 0 do
    s := (!s land 0xFFFF) + (!s lsr 16)
  done;
  !s

(* Table 3's classifier: ten TCP/IP connection filters on destination
   ports [base, base + 10); filter i accepts port base + i *)
let table3 ~base port = if port >= base && port < base + 10 then port - base else u32 (-1)
