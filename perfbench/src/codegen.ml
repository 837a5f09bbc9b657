(* The codegen workload: generation only.

   A seeded stream of random VCODE functions (tens to thousands of
   statements) is generated through the checked [Vcode.Make], rotating
   over the four ports and the peephole-wrapped MIPS port.  The timed
   phase is emission alone: [lambda], the emitter calls, [end_gen].  A
   seeded sample of the functions is then installed and run on all four
   engine tiers of its port's simulator, each call checked against the
   OCaml evaluator of the same statement list ({!Progs.eval}); that
   phase is timed apart and supplies the workload's execution metrics. *)

module P = Ports

let n_funcs = 600
let passes = 6 (* the stream is generated this many times per repetition *)
let n_sampled = 120
let calls_per_sample = 10
let data_addr = 0x9000 (* just above the helper, below the code window *)

(* 1MB of simulated memory: the code window, the helper, the data
   words and the stack fit, and sixteen simulators stay small *)
let sim_config = { Vmachine.Mconfig.dec5000 with mem_bytes = 1 lsl 20 }
let code_lo = 0x10000
let code_hi = 0xF0000

type sample = {
  fn : int; (* index into [funcs] *)
  base : int;
  args : (int * int * int array) array; (* a, b, data words *)
  expect : int array; (* oracle result per call *)
}

type inputs = {
  funcs : Progs.func array;
  kit_of : int array; (* index into {!Ports.emit_kits} *)
  samples : sample array;
  sample_of : int array; (* function index -> sample index, or -1 *)
}

let emits = lazy (Array.map P.emit_of P.emit_kits)

(* Function sizes are a fixed log-spaced grid from 10 to 3000
   statements, so every seed generates the same amount of code; the seed
   decides the order, the statements and the arguments.  The sample is
   stratified the same way: every [n_funcs / n_sampled]-th size, so its
   sizes are the same for every seed too. *)
let prepare seed =
  let r = Rng.create seed in
  let rf = Rng.split r and rs = Rng.split r and ra = Rng.split r in
  let size_of rank =
    int_of_float (10. *. (300. ** ((Float.of_int rank +. 0.5) /. Float.of_int n_funcs)))
  in
  (* [rank_at.(i)]: the size rank of the function at stream position i *)
  let rank_at = Array.init n_funcs Fun.id in
  for i = n_funcs - 1 downto 1 do
    let j = Rng.int rs (i + 1) in
    let t = rank_at.(i) in
    rank_at.(i) <- rank_at.(j);
    rank_at.(j) <- t
  done;
  let funcs = Array.map (fun rank -> Progs.gen_func rf ~size:(size_of rank)) rank_at in
  let stride = n_funcs / n_sampled in
  (* ports cycle along the size grid in strides, so every port gets the
     same share of sizes and of the sample *)
  let kit_of = Array.map (fun rank -> rank / stride mod Array.length P.emit_kits) rank_at in
  let offset = stride / 2 in
  let chosen =
    List.filter (fun i -> rank_at.(i) mod stride = offset) (List.init n_funcs Fun.id) |> Array.of_list
  in
  (* lay the sample out downward from the top of the code window, so the
     highest code address, which sizes the engine's translation tables,
     is the same for every seed; a function's size does not depend on its
     base address, so a trial generation sizes its slot *)
  let emits = Lazy.force emits in
  let next = ref code_hi in
  let samples =
    Array.map
      (fun fn ->
        let f = funcs.(fn) in
        let e = emits.(kit_of.(fn)) in
        let g, a = e.Progs.e_lambda ~base:0 f in
        e.Progs.e_body g a f;
        let size = (e.Progs.e_end g).Vcode.code_bytes in
        let base = (!next - size - 64) land lnot 15 in
        if base < code_lo then failwith "codegen: sample does not fit the code window";
        next := base;
        let args =
          Array.init calls_per_sample (fun _ ->
              ( Progs.gen_imm ra,
                Progs.gen_imm ra,
                Array.init Progs.data_words (fun _ -> Rng.int ra 0x100000000) ))
        in
        let expect = Array.map (fun (a, b, data) -> Progs.eval f ~a ~b ~data) args in
        { fn; base; args; expect })
      chosen
  in
  let sample_of = Array.make n_funcs (-1) in
  Array.iteri (fun j s -> sample_of.(s.fn) <- j) samples;
  { funcs; kit_of; samples; sample_of }

let kit_names = Array.map (fun k -> k.P.kname) P.emit_kits

let run (r : Rep.t) (inp : inputs) =
  let emits = Lazy.force emits in
  let nk = Array.length emits in
  (* ---- setup: one simulator per port and tier, each with the helper ---- *)
  let machines =
    Rep.setup r (fun () ->
        Array.map
          (fun (k : P.kit) ->
            let code = (P.emit_of k).Progs.e_helper () in
            Array.map
              (fun tier ->
                let m = P.machine ~tel:r.Rep.tel ~cfg:sim_config k.P.isa tier in
                P.install m code;
                m)
              P.tiers)
          P.kits)
  in
  let sp = r.Rep.spans in
  let s_lambda = Spans.name sp "emit.lambda"
  and s_body = Spans.name sp "emit.body"
  and s_end = Spans.name sp "emit.end_gen"
  and s_install = Spans.name sp "inval.install_code"
  and s_call = Spans.name sp "engine.call" in
  Rep.main r (fun () ->
      (* ---- timed: generation only ---- *)
      let codes = Array.make (Array.length inp.samples) None in
      let insns = ref 0 and words = ref 0 and relocs = ref 0 and nfun = ref 0 in
      let t_lambda = ref 0 and t_body = ref 0 and t_end = ref 0 in
      let per_kit_ns = Array.make nk 0 and per_kit_insns = Array.make nk 0 in
      let traced = r.Rep.traced in
      let gen_ns = ref 0 and gen_words = ref 0. in
      for pass = 1 to passes do
        Probe.sample ();
        let w0 = Gc.minor_words () in
        let t0 = Clock.now_ns () in
        for i = 0 to Array.length inp.funcs - 1 do
          let f = inp.funcs.(i) and k = inp.kit_of.(i) in
          let e = emits.(k) in
          let j = inp.sample_of.(i) in
          let base = if j >= 0 then inp.samples.(j).base else code_lo in
          let code =
            if traced then begin
              let a = Clock.now_ns () in
              let s = Spans.enter sp s_lambda ~op:i in
              let g, args = e.Progs.e_lambda ~base f in
              Spans.leave sp s;
              let b = Clock.now_ns () in
              let s = Spans.enter sp s_body ~op:i in
              e.Progs.e_body g args f;
              Spans.leave sp s;
              let c = Clock.now_ns () in
              let s = Spans.enter sp s_end ~op:i in
              let code = e.Progs.e_end g in
              Spans.leave sp s;
              let d = Clock.now_ns () in
              t_lambda := !t_lambda + (b - a);
              t_body := !t_body + (c - b);
              t_end := !t_end + (d - c);
              per_kit_ns.(k) <- per_kit_ns.(k) + (d - a);
              per_kit_insns.(k) <- per_kit_insns.(k) + code.Vcode.gen.Vcodebase.Gen.insn_count;
              code
            end
            else
              let g, args = e.Progs.e_lambda ~base f in
              e.Progs.e_body g args f;
              e.Progs.e_end g
          in
          let g = code.Vcode.gen in
          insns := !insns + g.Vcodebase.Gen.insn_count;
          words := !words + (code.Vcode.code_bytes / 4);
          relocs := !relocs + Vcodebase.Gen.total_relocs g;
          incr nfun;
          if pass = passes && j >= 0 then codes.(j) <- Some code
        done;
        gen_ns := !gen_ns + (Clock.now_ns () - t0);
        gen_words := !gen_words +. (Gc.minor_words () -. w0)
      done;
      let gen_words = !gen_words in
      let fi = Float.of_int !insns in
      Rep.cpu r "gen_ns_per_insn" (Float.of_int !gen_ns /. fi);
      Rep.e2e r "gen_words_per_insn" (gen_words /. fi);
      Rep.det r "gen.insns" !insns;
      Rep.det r "gen.minor_words" (int_of_float gen_words);
      Rep.det r "gen.code_words" !words;
      Rep.det r "gen.relocs" !relocs;
      Rep.layer r "emit.code_words_per_insn" (Float.of_int !words /. fi);
      Rep.layer r "emit.relocs" (Float.of_int !relocs);
      Rep.layer r "emit.minor_words_per_insn" (gen_words /. fi);
      if traced then begin
        let nf = Float.of_int !nfun in
        Rep.layer r "emit.lambda_ns" (Float.of_int !t_lambda /. nf);
        Rep.layer r "emit.body_ns_per_insn" (Float.of_int !t_body /. fi);
        Rep.layer r "emit.end_gen_ns" (Float.of_int !t_end /. nf);
        Array.iteri
          (fun k name ->
            Rep.layer r
              ("emit." ^ name ^ ".ns_per_insn")
              (Float.of_int per_kit_ns.(k) /. Float.of_int (max 1 per_kit_insns.(k))))
          kit_names
      end;
      Array.iteri (fun j _ -> Rep.check r (codes.(j) <> None) (fun () -> "codegen: lost sample code")) inp.samples;
      (* ---- the sample, run on all four tiers and checked ---- *)
      let nt = Array.length P.tiers in
      let call_ns = Array.init nt (fun _ -> Stats.samples ()) in
      let tier_ns = Array.make nt 0 and tier_insns = Array.make nt 0 in
      let tier_words = Array.make nt 0. in
      let cycles = ref 0 in
      Array.iteri
        (fun j (s : sample) ->
          if j mod 12 = 0 then Probe.sample ();
          match codes.(j) with
          | None -> ()
          | Some code ->
            let ms = machines.(P.isa_index P.emit_kits.(inp.kit_of.(s.fn)).P.isa) in
            Array.iter
              (fun m ->
                let h = Spans.enter sp s_install ~op:s.fn in
                P.install m code;
                Spans.leave sp h)
              ms;
            Array.iteri
              (fun c (a, b, data) ->
                let want = Progs.u32 s.expect.(c) in
                let ref_insns = ref 0 and ref_cycles = ref 0 in
                Array.iteri
                  (fun t m ->
                    Array.iteri (fun w v -> Vmachine.Mem.write_u32 m.P.mem (data_addr + (4 * w)) v) data;
                    let i0 = m.P.insns () and c0 = m.P.cycles () in
                    let w0 = Gc.minor_words () in
                    let t0 = Clock.now_ns () in
                    let h = Spans.enter sp s_call ~op:s.fn in
                    let got =
                      match m.P.call ~entry:code.Vcode.entry_addr [ a; b; data_addr ] with
                      | v -> Some (Progs.u32 v)
                      | exception _ -> None
                    in
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
                    Rep.check r
                      (got = Some want && di = !ref_insns && dc = !ref_cycles)
                      (fun () ->
                        Printf.sprintf
                          "codegen: fn %d (%s) call %d on %s: got %s, want %d; insns %d/%d cycles %d/%d"
                          s.fn kit_names.(inp.kit_of.(s.fn)) c (P.tier_name P.tiers.(t))
                          (match got with Some v -> string_of_int v | None -> "exception")
                          want di !ref_insns dc !ref_cycles))
                  ms)
              s.args)
        inp.samples;
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
           (Array.to_list machines));
      Rep.block_compile_p90 r);
  Rep.self_times r
