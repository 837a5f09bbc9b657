(* The router workload: a multi-tenant filter registry serving packets
   while tenants come and go.

   Setup builds a fleet of [fleet] compiled TCP/IP connection filters in a
   {!Vserver.Server} registry on each engine tier (MIPS).  The timed
   stream then classifies [packets] seeded packets with hot-skewed keys
   (3 in 4 among the newest quarter of tenants, 1 in 16 for a tenant
   already evicted) and, every [churn_every] packets, evicts the oldest
   tenant and installs a new one.  Packet i runs on all four tiers back
   to back.  Every classification is checked against
   [Dpf.Filter.classify] over the live filter set, tracked by the
   benchmark's own model of the registry: a packet for an evicted key is
   a correct drop.  Code here is short, cold and churned, the regime
   where translation cost is not repaid.  A first phase calls the DPF
   compiler directly on [compiles] filters for the dpf layer's cost. *)

module P = Ports
module SV = Vserver.Server.Make (Vmips.Mips_backend)
module D = SV.DP
module Mem = Vmachine.Mem

let fleet = 7_000
let packets = 40_000
let churn_every = 32
let compiles = 5_000 (* direct DPF compiles per repetition *)
let pkt_addr = 0x700000

(* The code window ends below 4MB: the engine's translation tables grow
   by doubling to cover the highest code address run, and a window that
   crossed 4MB left their size, and the process's peak memory, to which
   filters a seed's packets happened to reach. *)
let arena_base = 0x20000
let arena_limit = 0x3F0000
let dst_ip = 0x0A000001
let drop = -2

let port_of_key k = 1000 + (k mod 60000)
let filter_of_key k = Dpf.Filter.tcpip_session ~fid:k ~dst_ip ~dst_port:(port_of_key k)

type inputs = {
  keys : int array; (* per packet *)
  expect : int array; (* per packet: the classifying filter id, or [drop] *)
}

let prepare seed =
  let r = Rng.create seed in
  let oldest = ref 0 and next = ref fleet in
  (* live filters by destination port: the classification reference
     runs over every live filter that could match *)
  let by_port = Hashtbl.create (2 * fleet) in
  for k = 0 to fleet - 1 do
    Hashtbl.add by_port (port_of_key k) (filter_of_key k)
  done;
  let keys = Array.make packets 0 and expect = Array.make packets 0 in
  for i = 1 to packets do
    let span = !next - !oldest in
    let k =
      if !oldest > 0 && Rng.int r 16 = 0 then Rng.int r !oldest
      else if Rng.int r 4 < 3 then !next - 1 - Rng.int r (max 1 (span / 4))
      else !oldest + Rng.int r span
    in
    keys.(i - 1) <- k;
    expect.(i - 1) <-
      (if k < !oldest then drop
       else
         let pkt = Dpf.Packet.to_bytes (Dpf.Packet.tcp ~dst_ip ~dst_port:(port_of_key k) ()) in
         Dpf.Filter.classify (Hashtbl.find_all by_port (port_of_key k)) pkt);
    if i mod churn_every = 0 then begin
      Hashtbl.remove by_port (port_of_key !oldest);
      incr oldest;
      Hashtbl.add by_port (port_of_key !next) (filter_of_key !next);
      incr next
    end
  done;
  { keys; expect }

let run (r : Rep.t) (inp : inputs) =
  let sp = r.Rep.spans in
  let s_install = Spans.name sp "server.install_batch"
  and s_evict = Spans.name sp "server.evict"
  and s_lookup = Spans.name sp "server.lookup"
  and s_call = Spans.name sp "engine.call"
  and s_compile = Spans.name sp "dpf.compile"
  and s_pkt = Spans.name sp "inval.packet_write" in
  let install_batch sv kfs =
    let h = Spans.enter sp s_install ~op:(-1) in
    SV.install_batch sv kfs;
    Spans.leave sp h
  in
  (* ---- setup: a registry holding the fleet, per tier ---- *)
  let tiers =
    Rep.setup r (fun () ->
        Array.map
          (fun tier ->
            let m = P.machine ~tel:r.Rep.tel ~cfg:Vmachine.Mconfig.router P.Mips tier in
            let sv = SV.create ~arena_base ~arena_limit m.P.mem in
            Dpf.Packet.install m.P.mem ~addr:pkt_addr (Dpf.Packet.tcp ~dst_ip ());
            let chunk = 256 in
            let k = ref 0 in
            while !k < fleet do
              let b = !k and c = min chunk (fleet - !k) in
              install_batch sv (List.init c (fun i -> (b + i, filter_of_key (b + i))));
              k := b + c
            done;
            (m, sv))
          P.tiers)
  in
  let nt = Array.length tiers in
  let blocks = P.tier_index P.Blocks in
  Rep.main r (fun () ->
      (* ---- the DPF compiler on its own, over [compiles] fresh filters ---- *)
      let compile_ns = Stats.samples () in
      let insns = ref 0 and words = ref 0 and ns = ref 0 in
      let mw = ref 0. in
      for c = 0 to compiles - 1 do
        if c mod 1000 = 0 then Probe.sample ();
        let f = filter_of_key (fleet + c) in
        let w0 = Gc.minor_words () in
        let t0 = Clock.now_ns () in
        let h = Spans.enter sp s_compile ~op:c in
        let code = (D.compile ~base:0x1000 [ f ]).Dpf.code in
        Spans.leave sp h;
        let dt = Clock.now_ns () - t0 in
        mw := !mw +. (Gc.minor_words () -. w0);
        ns := !ns + dt;
        Stats.add compile_ns dt;
        insns := !insns + code.Vcode.gen.Vcodebase.Gen.insn_count;
        words := !words + (code.Vcode.code_bytes / 4)
      done;
      let fi = Float.of_int !insns in
      Rep.cpu r "gen_ns_per_insn" (Float.of_int !ns /. fi);
      Rep.e2e r "gen_words_per_insn" (!mw /. fi);
      Rep.det r "gen.insns" !insns;
      Rep.det r "gen.code_words" !words;
      Rep.det r "gen.minor_words" (int_of_float !mw);
      Rep.pct r ~into:Rep.layer "dpf.compile_ns.p50" 0.5 compile_ns;
      Rep.pct r ~into:Rep.layer "dpf.compile_ns.p99" 0.99 compile_ns;
      Rep.layer r "dpf.compile_words" (!mw /. Float.of_int (Stats.length compile_ns));
      Rep.layer r "emit.code_words_per_insn" (Float.of_int !words /. fi);
      Rep.layer r "emit.minor_words_per_insn" (!mw /. fi);
      let call_ns = Array.init nt (fun _ -> Stats.samples ()) in
      let install_ns = Stats.samples () and evict_ns = Stats.samples () in
      let tier_ns = Array.make nt 0 and tier_insns = Array.make nt 0 in
      let tier_words = Array.make nt 0. in
      let i0 = Array.map (fun (m, _) -> m.P.insns ()) tiers in
      let c0 = Array.map (fun (m, _) -> m.P.cycles ()) tiers in
      let drops = ref 0 in
      let oldest = ref 0 and next = ref fleet in
      let packets = Array.length inp.keys in
      for i = 1 to packets do
        if i mod 2000 = 0 then Probe.sample ();
        let k = inp.keys.(i - 1) and want = inp.expect.(i - 1) in
        let port = port_of_key k in
        Array.iteri
          (fun t ((m : P.machine), sv) ->
            let h = Spans.enter sp s_pkt ~op:i in
            Mem.write_u8 m.P.mem (pkt_addr + 22) ((port lsr 8) land 0xff);
            Mem.write_u8 m.P.mem (pkt_addr + 23) (port land 0xff);
            Spans.leave sp h;
            let w0 = Gc.minor_words () in
            let t0 = Clock.now_ns () in
            let h = Spans.enter sp s_lookup ~op:i in
            let entry = SV.lookup sv k in
            Spans.leave sp h;
            let got =
              match entry with
              | None -> drop
              | Some entry -> (
                let h = Spans.enter sp s_call ~op:i in
                match m.P.call ~entry [ pkt_addr; 40 ] with
                | v ->
                  Spans.leave sp h;
                  v
                | exception _ ->
                  Spans.leave sp h;
                  -3)
            in
            let dt = Clock.now_ns () - t0 in
            tier_words.(t) <- tier_words.(t) +. (Gc.minor_words () -. w0);
            tier_ns.(t) <- tier_ns.(t) + dt;
            Stats.add call_ns.(t) dt;
            if t = 0 && got = drop then incr drops;
            Rep.check r (got = want) (fun () ->
                Printf.sprintf "router: packet %d for key %d on %s classified %d, want %d" i k
                  (P.tier_name P.tiers.(t)) got want))
          tiers;
        if i mod churn_every = 0 then begin
          let k' = !next in
          Array.iteri
            (fun t (_, sv) ->
              let t0 = Clock.now_ns () in
              let h = Spans.enter sp s_evict ~op:i in
              let ok = SV.evict sv !oldest in
              Spans.leave sp h;
              let t1 = Clock.now_ns () in
              let ok =
                ok
                &&
                match install_batch sv [ (k', filter_of_key k') ] with
                | () -> true
                | exception _ -> false
              in
              let t2 = Clock.now_ns () in
              tier_ns.(t) <- tier_ns.(t) + (t2 - t0);
              if t = blocks then begin
                Stats.add evict_ns (t1 - t0);
                Stats.add install_ns (t2 - t1)
              end;
              Rep.check r ok (fun () ->
                  Printf.sprintf "router: churn at packet %d (evict %d, install %d) failed on %s" i !oldest
                    k' (P.tier_name P.tiers.(t))))
            tiers;
          incr oldest;
          incr next
        end
      done;
      let delta = Array.mapi (fun t (m, _) -> (m.P.insns () - i0.(t), m.P.cycles () - c0.(t))) tiers in
      Array.iteri
        (fun t (di, dc) ->
          tier_insns.(t) <- di;
          Rep.check r (delta.(t) = delta.(0)) (fun () ->
              Printf.sprintf "router: %s retired %d insns in %d cycles, off tier %d in %d"
                (P.tier_name P.tiers.(t)) di dc (fst delta.(0)) (snd delta.(0))))
        delta;
      let cycles = snd delta.(0) in
      Rep.e2e r "sim_cycles" (Float.of_int cycles);
      Rep.det r "sim.cycles" cycles;
      Rep.det r "sim.insns" tier_insns.(0);
      Rep.det r "router.drops" !drops;
      Array.iteri
        (fun t tier ->
          let n = P.tier_name tier in
          let secs = Float.of_int tier_ns.(t) /. 1e9 in
          Rep.cpu r ("insns_per_s." ^ n) (Float.of_int tier_insns.(t) /. secs);
          Rep.note r ("packets_per_s." ^ n) (Float.of_int packets /. secs);
          Rep.layer r ("engine.minor_words_per_insn." ^ n) (tier_words.(t) /. Float.of_int tier_insns.(t));
          Rep.pct r ~into:Rep.layer ("sim.call_ns.p50." ^ n) 0.5 call_ns.(t);
          Rep.pct r ~into:Rep.layer ("sim.call_ns.p99." ^ n) 0.99 call_ns.(t))
        P.tiers;
      (* not {!Rep.cpu}: a packet's few thousand instructions spread over
         four tiers' large translation tables are memory-bound, and their
         latency was measured not to follow the host-speed probe *)
      Rep.pct r ~into:Rep.e2e "call_ns.p50" 0.5 call_ns.(blocks);
      Rep.pct r ~into:Rep.e2e "call_ns.p99" 0.99 call_ns.(blocks);
      Rep.pct r ~into:Rep.layer "server.install_ns.p50" 0.5 install_ns;
      Rep.pct r ~into:Rep.layer "server.install_ns.p99" 0.99 install_ns;
      Rep.pct r ~into:Rep.layer "server.evict_ns.p50" 0.5 evict_ns;
      Rep.pct r ~into:Rep.layer "server.evict_ns.p99" 0.99 evict_ns;
      let _, sv = tiers.(blocks) in
      let st = SV.stats sv and ar = SV.arena_stats sv in
      Rep.det r "server.recompiles" st.SV.recompiles;
      Rep.det r "server.capacity_evictions" st.SV.capacity_evictions;
      Rep.layer r "server.capacity_evictions" (Float.of_int st.SV.capacity_evictions);
      Rep.layer r "server.recompiles" (Float.of_int st.SV.recompiles);
      Rep.layer r "server.lookup_hit_ratio"
        (Rep.ratio st.SV.lookup_hits (st.SV.lookup_hits + st.SV.lookup_misses));
      Rep.layer r "arena.live_slabs" (Float.of_int ar.Vserver.Arena.live_slabs);
      Rep.layer r "arena.free_slabs"
        (Float.of_int
           (Array.fold_left (fun a (c : Vserver.Arena.class_stats) -> a + c.free) 0 ar.Vserver.Arena.classes));
      Rep.machine_counters r (Array.to_list (Array.mapi (fun t (m, _) -> (P.tiers.(t), m)) tiers));
      Rep.block_compile_p90 r);
  Rep.self_times r
