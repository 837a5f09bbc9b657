(* The exec workload: execution dominated.

   The programs are generated and assembled in setup, then every
   operation runs on each of the four engine tiers back to back, so slow
   phases of the host fall on all tiers alike.  The mix:
   - alu-loop and region-loop, generated through VCODE on all four ports;
   - the MIPS corpus programs josephus, sort and statemach, assembled
     from workloads/*.asm;
   - the Table 3 DPF classifier (a batch of packets per operation) and
     the Table 4 ASH copy+checksum loop, on all four ports.
   Each result is checked against {!Oracles}; retired instructions and
   simulated cycles must match the [Off] tier exactly. *)

module P = Ports
module Mem = Vmachine.Mem

let ops_per_program = 64
let dpf_batch = 400
let pkt_addr = 0x80000
let src_addr = 0x300000
let dst_addr = 0x312000
let ash_words = 2048
let table3_base = 1000

(* The mix is only a few hundred VCODE instructions, too little to time
   alone; set-up generates it this many times and installs the last. *)
let gen_rounds = 20

type prog =
  | Alu of P.isa
  | Rloop of P.isa
  | Corpus of string (* MIPS *)
  | Table3 of P.isa
  | Ash of P.isa

let prog_name = function
  | Alu i -> "alu-loop/" ^ P.isa_name i
  | Rloop i -> "region-loop/" ^ P.isa_name i
  | Corpus n -> n ^ "/mips"
  | Table3 i -> "dpf-classify/" ^ P.isa_name i
  | Ash i -> "table4-ash/" ^ P.isa_name i

let isa_of = function Alu i | Rloop i | Table3 i | Ash i -> i | Corpus _ -> P.Mips

let programs =
  Array.concat
    [
      Array.map (fun i -> Alu i) P.isas;
      Array.map (fun i -> Rloop i) P.isas;
      [| Corpus "josephus"; Corpus "sort"; Corpus "statemach" |];
      Array.map (fun i -> Table3 i) P.isas;
      Array.map (fun i -> Ash i) P.isas;
    ]

type op = {
  prog : int; (* index into [programs] *)
  args : int array; (* the argument; for Table3, the batch's destination ports *)
  expect : int array; (* u32 result per call *)
}

type inputs = { ops : op array; src : int array (* ASH source words *) }

let prepare seed =
  let r = Rng.create seed in
  let ra = Rng.split r and rsh = Rng.split r and rd = Rng.split r in
  let src = Array.init ash_words (fun _ -> Rng.int rd 0x100000000) in
  let one a e = ([| a |], [| e |]) in
  let ops =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun p prog ->
              Array.init ops_per_program (fun _ ->
                  let args, expect =
                    match prog with
                    | Alu _ ->
                      let n = Rng.range ra 2500 3500 in
                      one n (Oracles.alu_loop n)
                    | Rloop _ ->
                      let n = Rng.range ra 16 24 in
                      one n (Oracles.region_loop n)
                    | Corpus "josephus" ->
                      let n = Rng.range ra 50 70 in
                      one n (Oracles.josephus n)
                    | Corpus "sort" ->
                      let n = Rng.range ra 70 100 in
                      one n (Oracles.sort n)
                    | Corpus _ ->
                      let n = Rng.range ra 800 1200 in
                      one n (Oracles.statemach n)
                    | Table3 _ ->
                      let ports = Array.init dpf_batch (fun _ -> Rng.range ra (table3_base - 5) (table3_base + 14)) in
                      (ports, Array.map (Oracles.table3 ~base:table3_base) ports)
                    | Ash _ ->
                      (* the ASH loop is unrolled by four: whole groups only *)
                      let n = 4 * Rng.range ra (ash_words / 8) (ash_words / 4) in
                      one n (Oracles.checksum src n)
                  in
                  { prog = p; args; expect }))
            programs))
  in
  (* a seeded interleaving of the whole mix *)
  for i = Array.length ops - 1 downto 1 do
    let j = Rng.int rsh (i + 1) in
    let t = ops.(i) in
    ops.(i) <- ops.(j);
    ops.(j) <- t
  done;
  { ops; src }

(* ---- the generated programs ---- *)

(* the mixed-ALU loop: acc = (acc + i) | 3 for i < n *)
let gen_alu (module E : P.EMITTER) =
  let open Vcodebase in
  let g, args = E.lambda ~base:0x10000 ~leaf:true "%i" in
  let acc = E.getreg_exn g ~cls:`Temp Vtype.I and i = E.getreg_exn g ~cls:`Temp Vtype.I in
  E.set g Vtype.I acc 0L;
  E.set g Vtype.I i 0L;
  let top = E.genlabel g and out = E.genlabel g in
  E.label g top;
  E.branch g Op.Ge Vtype.I i args.(0) out;
  E.arith g Op.Add Vtype.I acc acc i;
  E.arith_imm g Op.Or Vtype.I acc acc 3;
  E.arith_imm g Op.Add Vtype.I i i 1;
  E.jump g (Gen.Jlabel top);
  E.label g out;
  E.ret g Vtype.I (Some acc);
  E.end_gen g

(* the region-friendly nested loop: a 64-step inner chain of
   one-operation stages linked by direct jumps, with one biased
   conditional stage; [args.(0)] is the outer count *)
let gen_rloop (module E : P.EMITTER) =
  let open Vcodebase in
  let g, args = E.lambda ~base:0x11000 ~leaf:true "%i" in
  let reg () = E.getreg_exn g ~cls:`Temp Vtype.I in
  let acc = reg () and i = reg () and j = reg () and t = reg () in
  E.set g Vtype.I acc 0L;
  E.set g Vtype.I i 0L;
  let outer = E.genlabel g and inner = E.genlabel g and out = E.genlabel g in
  E.label g outer;
  E.branch g Op.Ge Vtype.I i args.(0) out;
  E.set g Vtype.I j 0L;
  E.label g inner;
  let stage f =
    let next = E.genlabel g in
    f ();
    E.jump g (Gen.Jlabel next);
    E.label g next
  in
  stage (fun () -> E.arith g Op.Add Vtype.I acc acc j);
  stage (fun () -> E.arith_imm g Op.Xor Vtype.I acc acc 33);
  stage (fun () -> E.arith_imm g Op.Add Vtype.I acc acc 7);
  let skip = E.genlabel g in
  E.arith_imm g Op.Add Vtype.I t j 21;
  E.arith_imm g Op.And Vtype.I t t 63;
  E.branch_imm g Op.Ne Vtype.I t 0 skip;
  E.arith_imm g Op.Add Vtype.I acc acc 77;
  E.label g skip;
  stage (fun () -> E.arith_imm g Op.Or Vtype.I acc acc 9);
  stage (fun () -> E.arith_imm g Op.Xor Vtype.I acc acc 57);
  E.arith_imm g Op.Add Vtype.I j j 1;
  E.branch_imm g Op.Lt Vtype.I j 64 inner;
  E.arith_imm g Op.Add Vtype.I i i 1;
  E.jump g (Gen.Jlabel outer);
  E.label g out;
  E.ret g Vtype.I (Some acc);
  E.end_gen g

(* workloads/NAME.asm, searched upward from the working directory *)
let corpus_path name =
  let rec up dir n =
    let cand = Filename.concat (Filename.concat dir "workloads") (name ^ ".asm") in
    if Sys.file_exists cand then cand
    else
      let parent = Filename.dirname dir in
      if n >= 4 || parent = dir then failwith ("exec: corpus program not found: " ^ name)
      else up parent (n + 1)
  in
  up (Sys.getcwd ()) 0

let corpus_base = function "josephus" -> 0x20000 | "sort" -> 0x24000 | _ -> 0x28000

let run (r : Rep.t) (inp : inputs) =
  let sp = r.Rep.spans in
  let s_gen = Spans.name sp "emit.generate"
  and s_dpf = Spans.name sp "dpf.compile"
  and s_asm = Spans.name sp "asm.assemble"
  and s_install = Spans.name sp "inval.install_code"
  and s_call = Spans.name sp "engine.call" in
  let gen_ns = ref 0 and gen_insns = ref 0 and gen_words = ref 0. and code_words = ref 0 in
  let asm_ns = ref 0 in
  (* time one generator call; its code is VCODE output for the gen metrics *)
  let generate span f =
    let w0 = Gc.minor_words () in
    let t0 = Clock.now_ns () in
    let h = Spans.enter sp span ~op:(-1) in
    let code = f () in
    Spans.leave sp h;
    gen_ns := !gen_ns + (Clock.now_ns () - t0);
    gen_words := !gen_words +. (Gc.minor_words () -. w0);
    gen_insns := !gen_insns + code.Vcode.gen.Vcodebase.Gen.insn_count;
    code_words := !code_words + (code.Vcode.code_bytes / 4);
    code
  in
  let install m (c : Vcode.code) =
    let h = Spans.enter sp s_install ~op:(-1) in
    P.install m c;
    Spans.leave sp h
  in
  (* ---- setup: simulators, generated code, assembled corpus, data ---- *)
  let by_isa, machines, entries =
    Rep.setup r (fun () ->
        let machines =
          Array.map
            (fun isa ->
              Array.map (fun tier -> P.machine ~tel:r.Rep.tel ~cfg:Vmachine.Mconfig.dec5000 isa tier) P.tiers)
            P.isas
        in
        let corpus =
          List.map
            (fun name ->
              let t0 = Clock.now_ns () in
              let h = Spans.enter sp s_asm ~op:(-1) in
              let img =
                match Vasm.assemble_file ~base:(corpus_base name) (corpus_path name) with
                | Ok img -> img
                | Error d -> failwith (name ^ ": " ^ Vasm.diag_to_string d)
              in
              Spans.leave sp h;
              asm_ns := !asm_ns + (Clock.now_ns () - t0);
              Array.iter
                (fun m ->
                  let h = Spans.enter sp s_install ~op:(-1) in
                  Array.iteri (fun i w -> Mem.write_u32 m.P.mem (img.Vasm.base + (4 * i)) w) img.Vasm.words;
                  Spans.leave sp h)
                machines.(P.isa_index P.Mips);
              (name, img.Vasm.entry))
            [ "josephus"; "sort"; "statemach" ]
        in
        let per_isa =
          Array.mapi
            (fun i kit ->
              let ms = machines.(i) in
              let gen () =
                let alu = generate s_gen (fun () -> gen_alu kit.P.emitter) in
                let rloop = generate s_gen (fun () -> gen_rloop kit.P.emitter) in
                let dpf_c = ref None in
                let dpf =
                  generate s_dpf (fun () ->
                      let c =
                        kit.P.dpf_compile ~base:0x12000 ~table_base:0x200000
                          (Dpf.Filter.tcpip_filters ~base_port:table3_base 10)
                      in
                      dpf_c := Some c;
                      c.Dpf.code)
                in
                let ash = generate s_gen (fun () -> kit.P.ash ~base:0x14000) in
                (alu, rloop, dpf, Option.get !dpf_c, ash)
              in
              for _ = 2 to gen_rounds do
                ignore (gen ())
              done;
              let alu, rloop, dpf, dpf_c, ash = gen () in
              Array.iter
                (fun m ->
                  List.iter (install m) [ alu; rloop; dpf; ash ];
                  kit.P.dpf_tables m.P.mem dpf_c;
                  Dpf.Packet.install m.P.mem ~addr:pkt_addr (Dpf.Packet.tcp ());
                  Array.iteri (fun w v -> Mem.write_u32 m.P.mem (src_addr + (4 * w)) v) inp.src)
                ms;
              (alu.Vcode.entry_addr, rloop.Vcode.entry_addr, dpf_c.Dpf.entry, ash.Vcode.entry_addr))
            P.kits
        in
        let entries =
          Array.map
            (function
              | Alu i -> let a, _, _, _ = per_isa.(P.isa_index i) in a
              | Rloop i -> let _, b, _, _ = per_isa.(P.isa_index i) in b
              | Table3 i -> let _, _, c, _ = per_isa.(P.isa_index i) in c
              | Ash i -> let _, _, _, d = per_isa.(P.isa_index i) in d
              | Corpus n -> List.assoc n corpus)
            programs
        in
        (machines, Array.map (fun p -> machines.(P.isa_index (isa_of p))) programs, entries))
  in
  let fi = Float.of_int !gen_insns in
  Rep.cpu r "gen_ns_per_insn" (Float.of_int !gen_ns /. fi);
  Rep.e2e r "gen_words_per_insn" (!gen_words /. fi);
  Rep.det r "gen.insns" !gen_insns;
  Rep.det r "gen.code_words" !code_words;
  Rep.layer r "emit.code_words_per_insn" (Float.of_int !code_words /. fi);
  Rep.layer r "emit.minor_words_per_insn" (!gen_words /. fi);
  Rep.layer r "asm.assemble_ns" (Float.of_int !asm_ns /. 3.);
  (* ---- main: every operation on every tier, checked ---- *)
  Rep.main r (fun () ->
      let nt = Array.length P.tiers in
      let call_ns = Array.init nt (fun _ -> Stats.samples ()) in
      let tier_ns = Array.make nt 0 and tier_insns = Array.make nt 0 in
      let tier_words = Array.make nt 0. in
      let cycles = ref 0 in
      Array.iteri
        (fun o (op : op) ->
          if o mod 32 = 0 then Probe.sample ();
          let ms = machines.(op.prog) and entry = entries.(op.prog) in
          let prog = programs.(op.prog) in
          let ref_insns = ref 0 and ref_cycles = ref 0 in
          Array.iteri
            (fun t (m : P.machine) ->
              let i0 = m.P.insns () and c0 = m.P.cycles () in
              let bad = ref (-1) and got_bad = ref 0 in
              let w0 = Gc.minor_words () in
              let t0 = Clock.now_ns () in
              let h = Spans.enter sp s_call ~op:o in
              (try
                 match prog with
                 | Table3 _ ->
                   Array.iteri
                     (fun k port ->
                       Mem.write_u8 m.P.mem (pkt_addr + 22) ((port lsr 8) land 0xff);
                       Mem.write_u8 m.P.mem (pkt_addr + 23) (port land 0xff);
                       let v = Oracles.u32 (m.P.call ~entry [ pkt_addr; 40 ]) in
                       if v <> op.expect.(k) && !bad < 0 then begin
                         bad := k;
                         got_bad := v
                       end)
                     op.args
                 | Ash _ ->
                   let v = Oracles.u32 (m.P.call ~entry [ dst_addr; src_addr; op.args.(0) ]) in
                   if v <> op.expect.(0) then begin
                     bad := 0;
                     got_bad := v
                   end
                 | _ ->
                   let v = Oracles.u32 (m.P.call ~entry [ op.args.(0) ]) in
                   if v <> op.expect.(0) then begin
                     bad := 0;
                     got_bad := v
                   end
               with e ->
                 bad := 0;
                 got_bad := -1;
                 Rep.check r false (fun () -> prog_name prog ^ ": " ^ Printexc.to_string e));
              Spans.leave sp h;
              let dt = Clock.now_ns () - t0 in
              tier_words.(t) <- tier_words.(t) +. (Gc.minor_words () -. w0);
              let di = m.P.insns () - i0 and dc = m.P.cycles () - c0 in
              tier_ns.(t) <- tier_ns.(t) + dt;
              tier_insns.(t) <- tier_insns.(t) + di;
              Stats.add call_ns.(t) dt;
              if t = 0 then begin
                ref_insns := di;
                ref_cycles := dc;
                cycles := !cycles + dc
              end;
              (* the ASH copy must have landed: spot-check both ends *)
              let copied =
                match prog with
                | Ash _ ->
                  let n = op.args.(0) in
                  Mem.read_u32 m.P.mem dst_addr = inp.src.(0)
                  && Mem.read_u32 m.P.mem (dst_addr + (4 * (n - 1))) = inp.src.(n - 1)
                | _ -> true
              in
              Rep.check r
                (!bad < 0 && copied && di = !ref_insns && dc = !ref_cycles)
                (fun () ->
                  Printf.sprintf "%s arg %d on %s: result %d (want %d) at call %d, copy %b, insns %d/%d cycles %d/%d"
                    (prog_name prog) op.args.(0) (P.tier_name P.tiers.(t)) !got_bad
                    (if !bad >= 0 then op.expect.(!bad) else 0)
                    !bad copied di !ref_insns dc !ref_cycles))
            ms)
        inp.ops;
      Rep.e2e r "sim_cycles" (Float.of_int !cycles);
      Rep.det r "sim.cycles" !cycles;
      Rep.det r "sim.insns" tier_insns.(0);
      Array.iteri
        (fun t tier ->
          let n = P.tier_name tier in
          Rep.cpu r ("insns_per_s." ^ n) (Float.of_int tier_insns.(t) /. (Float.of_int tier_ns.(t) /. 1e9));
          Rep.layer r ("engine.minor_words_per_insn." ^ n) (tier_words.(t) /. Float.of_int tier_insns.(t));
          Rep.pct r ~into:Rep.layer ("sim.call_ns.p50." ^ n) 0.5 call_ns.(t);
          Rep.pct r ~into:Rep.layer ("sim.call_ns.p99." ^ n) 0.99 call_ns.(t))
        P.tiers;
      Rep.pct r ~into:Rep.cpu "call_ns.p50" 0.5 call_ns.(2);
      Rep.pct r ~into:Rep.cpu "call_ns.p99" 0.99 call_ns.(2);
      Rep.machine_counters r
        (List.concat_map (fun ms -> Array.to_list (Array.mapi (fun t m -> (P.tiers.(t), m)) ms))
           (Array.to_list by_isa));
      Rep.block_compile_p90 r);
  Rep.self_times r
