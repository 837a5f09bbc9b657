(* Frozen absolute pins for the simulators' instruction semantics.

   The lockstep tests compare the engine tiers with one another; they
   cannot notice a change that every tier makes together.  This file
   pins absolute values instead, captured from the interpreter that
   defined each port's semantics before the tiers came to share one
   closure compiler:

   - every evaluation workload ({!Workloads.workload_names}) on every
     port, and every MIPS corpus program: a running hash of all call
     results, the number of calls, simulated cycles, retired
     instructions, and icache and dcache hits and misses;
   - the trap arms: the exact [Machine_error] text, the pc and the
     retired-instruction count at the trap;
   - the two places where the old interpreter and the old closure
     compiler were written differently: an untaken branch executed in
     a delay slot (its fallthrough is the delay slot's successor, not
     the branch's pc + 8), and an interpreted store that invalidates a
     resident block (it must retire normally).

   Every pin is checked on all four engine tiers.  A mismatch prints the
   actual values. *)

module W = Workloads
module E = Vmachine.Engine
module Mem = Vmachine.Mem
module Cache = Vmachine.Cache

let tiers = W.modes

(* ---- a simulator that remembers its timing caches and call results ---- *)

(* the timing caches of the machine created last *)
let last_caches : (Cache.t * Cache.t) option ref = ref None
let calls = ref 0
let rhash = ref 0

let note_result r =
  incr calls;
  rhash := ((!rhash * 31) + (r land 0xFFFFFFFF)) land 0x3FFFFFFF

module Spy (S : E.SIM) : E.SIM with type insn = S.insn and type arch = S.arch = struct
  include S

  let create ?predecode ?blocks ?regions ?telemetry ?trace cfg =
    let m = S.create ?predecode ?blocks ?regions ?telemetry ?trace cfg in
    last_caches := Some (m.E.icache, m.E.dcache);
    m

  let call_ints ?fuel m ~entry vals =
    let r = S.call_ints ?fuel m ~entry vals in
    note_result r;
    r
end

module Mips_spy = Spy (Vmips.Mips_sim)
module Sparc_spy = Spy (Vsparc.Sparc_sim)
module Alpha_spy = Spy (Valpha.Alpha_sim)
module Ppc_spy = Spy (Vppc.Ppc_sim)

let last_caches () =
  match !last_caches with Some c -> c | None -> Alcotest.fail "no machine created"

let ports : (string * (module W.PORT)) list =
  [
    ("mips", (module W.Make_port (Vmips.Mips_backend) (Mips_spy)));
    ("sparc", (module W.Make_port (Vsparc.Sparc_backend) (Sparc_spy)));
    ("alpha", (module W.Make_port (Valpha.Alpha_backend) (Alpha_spy)));
    ("ppc", (module W.Make_port (Vppc.Ppc_backend) (Ppc_spy)));
  ]

(* (result hash, calls, cycles, insns, (icache hits, misses), (dcache hits, misses)) *)
type row = int * int * int * int * (int * int) * (int * int)

let show_row ((h, c, cy, n, (ih, im), (dh, dm)) : row) =
  Printf.sprintf "(%d, %d, %d, %d, (%d, %d), (%d, %d))" h c cy n ih im dh dm

let check_row what (expected : row) (got : row) =
  if expected <> got then
    Alcotest.failf "%s: expected %s, got %s" what (show_row expected) (show_row got)

let iters_of = function
  | "alu-loop" -> 3000
  | "region-loop" -> 2048
  | "dpf-classify" -> 40
  | "table4-ash" -> 250
  | "router" -> 256
  | "asm:fib" -> 15
  | "asm:josephus" -> 48
  | "asm:sort" -> 64
  | _ -> 128

let run_workload (module P : W.PORT) ~workload (predecode, blocks, regions) : row =
  let m = P.create ~predecode ~blocks ~regions () in
  let prep = P.prepare m ~workload ~iters:(iters_of workload) in
  calls := 0;
  rhash := 0;
  P.reset_stats m;
  prep.W.run ();
  let ic, dc = last_caches () in
  (!rhash, !calls, P.cycles m, P.insns m, Cache.stats ic, Cache.stats dc)

(* captured on the off tier of the simulators that still had a
   separate interpreter; every tier matched them *)
let workload_pins : ((string * string) * row) list =
  [
    (("mips", "alu-loop"), (4503003, 1, 24052, 24007, (24004, 3), (0, 0)));
    (("mips", "asm:checksum"), (42848, 1, 5947, 5272, (5260, 12), (223, 161)));
    (("mips", "asm:fib"), (610, 1, 24966, 24666, (24657, 9), (5867, 49)));
    (("mips", "asm:josephus"), (1216, 1, 13904, 13784, (13776, 8), (0, 0)));
    (("mips", "asm:sort"), (62904, 1, 15457, 14228, (14210, 18), (2063, 81)));
    (("mips", "asm:statemach"), (210, 1, 3190, 2935, (2922, 13), (124, 4)));
    (("mips", "asm:strsearch"), (0, 1, 5195, 4850, (4836, 14), (303, 137)));
    (("mips", "dpf-classify"), (65852052, 40, 2500, 1760, (1748, 12), (232, 8)));
    (("mips", "region-loop"), (72064, 1, 47502, 47367, (47358, 9), (0, 0)));
    (("mips", "router"), (759819808, 235, 14245, 8245, (7847, 398), (938, 2)));
    (("mips", "table4-ash"), (63495, 1, 23219, 15374, (15363, 11), (1536, 2560)));
    (("sparc", "alu-loop"), (4503003, 1, 24085, 24010, (24005, 5), (0, 0)));
    (("sparc", "dpf-classify"), (65852052, 40, 3110, 1880, (1867, 13), (219, 21)));
    (("sparc", "region-loop"), (72064, 1, 49583, 49418, (49407, 11), (0, 0)));
    (("sparc", "router"), (759819808, 235, 16290, 9165, (8692, 473), (938, 2)));
    (("sparc", "table4-ash"), (2040, 1, 27382, 19477, (19462, 15), (1536, 2560)));
    (("alpha", "alu-loop"), (4503003, 1, 18051, 18006, (18003, 3), (0, 0)));
    (("alpha", "dpf-classify"), (65852052, 40, 2555, 1960, (1947, 13), (232, 8)));
    (("alpha", "region-loop"), (72064, 1, 33071, 32966, (32959, 7), (0, 0)));
    (("alpha", "router"), (759819808, 235, 13845, 8010, (7623, 387), (938, 2)));
    (("alpha", "table4-ash"), (63495, 1, 33062, 25112, (25094, 18), (1536, 2560)));
    (("ppc", "alu-loop"), (4503003, 1, 18051, 18006, (18003, 3), (0, 0)));
    (("ppc", "dpf-classify"), (65852052, 40, 2010, 1400, (1391, 9), (219, 21)));
    (("ppc", "region-loop"), (72064, 1, 35119, 35014, (35007, 7), (0, 0)));
    (("ppc", "router"), (759819808, 235, 10890, 6345, (6044, 301), (938, 2)));
    (("ppc", "table4-ash"), (2040, 1, 22691, 14861, (14851, 10), (1536, 2560)));
  ]

let test_workload ((port, workload), pin) =
  let p = List.assoc port ports in
  Alcotest.test_case (port ^ " " ^ workload) `Quick (fun () ->
      List.iter
        (fun (tier, flags) ->
          check_row (Printf.sprintf "%s %s (%s)" port workload tier) pin
            (run_workload p ~workload flags))
        tiers)

(* ---- trap arms and the two divergence points ---- *)

(* (error text, pc, insns, cycles) at the raise *)
type trap = string * int * int * int

let show_trap ((s, pc, n, cy) : trap) = Printf.sprintf "(%S, 0x%x, %d, %d)" s pc n cy

let check_trap what (expected : trap) (got : trap) =
  if expected <> got then
    Alcotest.failf "%s: expected %s, got %s" what (show_trap expected) (show_trap got)

let base = 0x1000

(* each port's program runner: load [words] at [base] and each
   [(addr, words)] of [at], call [base] with [args], and report the
   return value or the machine error *)
module Runner (S : E.SIM) = struct
  let load m addr words = List.iteri (fun i w -> Mem.write_u32 m.E.mem (addr + (4 * i)) w) words

  let outcome ?fuel ~tier ~at words args =
    let predecode, blocks, regions = List.assoc tier tiers in
    let m = S.create ~predecode ~blocks ~regions Vmachine.Mconfig.dec5000 in
    List.iter (fun (addr, ws) -> load m addr ws) ((base, words) :: at);
    match S.call_ints ?fuel m ~entry:base args with
    | r -> Ok (r, m.E.insns, m.E.cycles)
    | exception E.Machine_error s -> Error (s, m.E.pc, m.E.insns, m.E.cycles)
end

module MR = Runner (Vmips.Mips_sim)
module SR = Runner (Vsparc.Sparc_sim)
module AR = Runner (Valpha.Alpha_sim)
module PR = Runner (Vppc.Ppc_sim)

let expect_trap what expected = function
  | Ok (r, _, _) -> Alcotest.failf "%s: returned %d, expected a trap" what r
  | Error got -> check_trap what expected got

let expect_ok what expected = function
  | Error t -> Alcotest.failf "%s: trapped %s" what (show_trap t)
  | Ok ((r, n, cy) as got) ->
    let e_r, e_n, e_cy = expected in
    if got <> expected then
      Alcotest.failf "%s: expected (%d, %d, %d), got (%d, %d, %d)" what e_r e_n e_cy r n cy

let each_tier f () = List.iter (fun (tier, _) -> f tier) tiers

module Mi = Vmips.Mips_asm

let mips words = List.map Mi.encode words

let test_mips_break =
  each_tier (fun tier ->
      MR.outcome ~tier ~at:[]
        (mips [ Mi.Addiu (Mi.v0, 0, 5); Mi.Addiu (Mi.v0, Mi.v0, 1); Mi.Break 7; Mi.Nop ])
        []
      |> expect_trap ("mips break, " ^ tier) ("break 7 at 0x1008", 0x1008, 3, 18))

(* an untaken branch in the delay slot of [j]: the fallthrough after
   the branch's own delay slot (0x1100) is 0x1104, not 0x1008 + 8 *)
let test_mips_delay_branch =
  each_tier (fun tier ->
      let tail =
        mips [ Mi.Addiu (Mi.v0, Mi.v0, 10); Mi.Addiu (Mi.v0, Mi.v0, 20); Mi.Jr Mi.ra; Mi.Nop ]
      in
      let taken = mips [ Mi.Addiu (Mi.v0, Mi.v0, 300); Mi.Jr Mi.ra; Mi.Nop ] in
      let prog br =
        mips
          [ Mi.Addiu (Mi.v0, 0, 1); Mi.J (0x1100 / 4); br; Mi.Addiu (Mi.v0, Mi.v0, 100);
            Mi.Addiu (Mi.v0, Mi.v0, 1000); Mi.Jr Mi.ra; Mi.Nop ]
      in
      (* branch at 0x1008 to 0x1200: offset (0x1200 - 0x100c) / 4 *)
      let off = (0x1200 - 0x100c) / 4 in
      MR.outcome ~tier ~at:[ (0x1100, tail); (0x1200, taken) ] (prog (Mi.Bne (0, 0, off))) []
      |> expect_ok ("mips untaken branch in delay slot, " ^ tier) (31, 7, 37);
      MR.outcome ~tier ~at:[ (0x1100, tail); (0x1200, taken) ] (prog (Mi.Beq (0, 0, off))) []
      |> expect_ok ("mips taken branch in delay slot, " ^ tier) (311, 7, 52);
      (* a linking jump whose target is its own link value, pc + 8 *)
      MR.outcome ~tier ~at:[ (0x1100, tail) ] (prog (Mi.Jalr (8, 8))) []
      |> expect_ok ("mips jalr in delay slot, " ^ tier) (1011, 7, 52))

(* fuel 1: the block at 0x1000 is compiled but does not fit, so its
   first instruction — a store into the block's own delay slot — is
   interpreted, invalidating the resident block; it must retire
   normally and leave the out-of-fuel stop on the next instruction *)
let test_mips_interpreted_smc_store =
  each_tier (fun tier ->
      MR.outcome ~fuel:1 ~tier ~at:[]
        (mips [ Mi.Sw (Mi.a1, Mi.a0, 12); Mi.Addiu (Mi.v0, Mi.v0, 1); Mi.Jr Mi.ra; Mi.Nop ])
        [ base; Mi.encode Mi.Nop ]
      |> expect_trap ("mips interpreted self-modifying store, " ^ tier)
           ("out of fuel (infinite loop?)", 0x1004, 1, 16))

module Sp = Vsparc.Sparc_asm

let sparc words = List.map Sp.encode words

let test_sparc_overflow =
  each_tier (fun tier ->
      SR.outcome ~tier ~at:[] (sparc (List.init 8 (fun _ -> Sp.Save (14, 14, Sp.Imm (-96))))) []
      |> expect_trap ("sparc window overflow, " ^ tier)
           ("register window overflow", 0x1018, 7, 37))

let test_sparc_underflow =
  each_tier (fun tier ->
      SR.outcome ~tier ~at:[]
        (sparc [ Sp.Alu (Sp.Or, 8, 0, Sp.Imm 1); Sp.Restore (0, 0, Sp.R 0); Sp.Nop ])
        []
      |> expect_trap ("sparc window underflow, " ^ tier)
           ("register window underflow", 0x1004, 2, 17))

(* the SPARC twin of the MIPS delay-slot case: [bn] never branches, so
   its successor is the instruction after its delay slot *)
let test_sparc_delay_branch =
  each_tier (fun tier ->
      let add k = Sp.Alu (Sp.Add, 8, 8, Sp.Imm k) in
      let ret = Sp.Jmpl (0, 15, Sp.Imm 8) in
      let tail = sparc [ add 10; add 20; ret; Sp.Nop ] in
      let taken = sparc [ add 300; ret; Sp.Nop ] in
      let prog br =
        sparc [ Sp.Alu (Sp.Or, 8, 0, Sp.Imm 1); Sp.Bicc (Sp.BA, (0x1100 - 0x1004) / 4); br;
                add 100; add 1000; ret; Sp.Nop ]
      in
      let disp = (0x1200 - 0x1008) / 4 in
      SR.outcome ~tier ~at:[ (0x1100, tail); (0x1200, taken) ] (prog (Sp.Bicc (Sp.BN, disp))) []
      |> expect_ok ("sparc untaken branch in delay slot, " ^ tier) (31, 7, 37);
      SR.outcome ~tier ~at:[ (0x1100, tail); (0x1200, taken) ] (prog (Sp.Bicc (Sp.BA, disp))) []
      |> expect_ok ("sparc taken branch in delay slot, " ^ tier) (311, 7, 52);
      (* a linking jump whose target is its own link value plus 8 *)
      SR.outcome ~tier ~at:[ (0x1100, tail) ] (prog (Sp.Jmpl (9, 9, Sp.Imm 8))) []
      |> expect_ok ("sparc jmpl in delay slot, " ^ tier) (1011, 7, 52))

module Pp = Vppc.Ppc_asm

let test_ppc_bad_bo =
  each_tier (fun tier ->
      PR.outcome ~tier ~at:[]
        (List.map Pp.encode [ Pp.Addi (3, 0, 1); Pp.Addi (3, 3, 2); Pp.Bc (16, 0, 2); Pp.Blr ])
        []
      |> expect_trap ("ppc unsupported BO, " ^ tier) ("unsupported BO 16 at 0x1008", 0x1008, 3, 18))

(* an illegal word as the first instruction, and a jump to a pc
   outside simulated memory *)
let test_illegal =
  each_tier (fun tier ->
      let what port = Printf.sprintf "%s illegal word, %s" port tier in
      MR.outcome ~tier ~at:[] [ 0xFFFFFFFF ] []
      |> expect_trap (what "mips") ("illegal instruction 0xffffffff at 0x1000", 0x1000, 1, 16);
      SR.outcome ~tier ~at:[] [ 0xFFFFFFFF ] []
      |> expect_trap (what "sparc") ("illegal instruction 0xffffffff at 0x1000", 0x1000, 1, 16);
      AR.outcome ~tier ~at:[] [ 0 ] []
      |> expect_trap (what "alpha") ("illegal instruction 0x00000000 at 0x1000", 0x1000, 1, 16);
      PR.outcome ~tier ~at:[] [ 0 ] []
      |> expect_trap (what "ppc") ("illegal instruction 0x00000000 at 0x1000", 0x1000, 1, 16))

let () =
  Alcotest.run "frozen-oracle"
    [
      ("workloads", List.map test_workload workload_pins);
      ( "traps",
        [
          Alcotest.test_case "mips break" `Quick test_mips_break;
          Alcotest.test_case "sparc window overflow" `Quick test_sparc_overflow;
          Alcotest.test_case "sparc window underflow" `Quick test_sparc_underflow;
          Alcotest.test_case "ppc unsupported BO" `Quick test_ppc_bad_bo;
          Alcotest.test_case "illegal words" `Quick test_illegal;
        ] );
      ( "divergence points",
        [
          Alcotest.test_case "mips branch in delay slot" `Quick test_mips_delay_branch;
          Alcotest.test_case "sparc branch in delay slot" `Quick test_sparc_delay_branch;
          Alcotest.test_case "mips interpreted self-modifying store" `Quick
            test_mips_interpreted_smc_store;
        ] );
    ]
