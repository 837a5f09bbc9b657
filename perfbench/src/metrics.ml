(* The metric vocabulary: every workload reports every name below, so the
   three workloads are compared metric by metric.  A per-layer metric of a
   layer a workload does not exercise reads 0 (its sample count is 0).
   BENCHMARK.json lists the same names; the runner checks they agree.
   [peak_mem_mb] is measured by the runner, outside the process. *)

let tier_names = [ "off"; "predecode"; "blocks"; "regions" ]
let per_tier prefix unit = List.map (fun t -> (prefix ^ "." ^ t, unit)) tier_names

(* end-to-end, measured in this process (untraced repetitions) *)
let end_to_end =
  [
    ("setup_s", "s");
    ("gen_ns_per_insn", "ns");
    ("gen_words_per_insn", "words");
    ("sim_cycles", "cycles");
  ]
  @ per_tier "insns_per_s" "insns/s"
  @ [ ("call_ns.p50", "ns"); ("call_ns.p99", "ns") ]

let per_layer =
  [
    ("emit.lambda_ns", "ns");
    ("emit.body_ns_per_insn", "ns");
    ("emit.end_gen_ns", "ns");
    ("emit.mips.ns_per_insn", "ns");
    ("emit.sparc.ns_per_insn", "ns");
    ("emit.alpha.ns_per_insn", "ns");
    ("emit.ppc.ns_per_insn", "ns");
    ("emit.mips_peephole.ns_per_insn", "ns");
    ("emit.code_words_per_insn", "words");
    ("emit.relocs", "count");
    ("emit.minor_words_per_insn", "words");
    ("dpf.compile_ns.p50", "ns");
    ("dpf.compile_ns.p99", "ns");
    ("dpf.compile_words", "words");
    ("server.install_ns.p50", "ns");
    ("server.install_ns.p99", "ns");
    ("server.evict_ns.p50", "ns");
    ("server.evict_ns.p99", "ns");
    ("server.capacity_evictions", "count");
    ("server.recompiles", "count");
    ("server.lookup_hit_ratio", "ratio");
    ("arena.live_slabs", "count");
    ("arena.free_slabs", "count");
    ("inval.predecode", "count");
    ("inval.blocks", "count");
    ("inval.regions", "count");
    ("mem.watchers", "count");
  ]
  @ per_tier "sim.call_ns.p50" "ns"
  @ per_tier "sim.call_ns.p99" "ns"
  @ [
      ("engine.block_compiles", "count");
      ("engine.block_compiles_per_kinsn", "count");
      ("engine.region_promotions", "count");
      ("engine.block_compile_ns.p90", "ns");
    ]
  @ per_tier "engine.minor_words_per_insn" "words"
  @ [
      ("cache.icache_misses", "count");
      ("cache.dcache_misses", "count");
      ("cache.icache_miss_ratio", "ratio");
      ("cache.dcache_miss_ratio", "ratio");
      ("asm.assemble_ns", "ns");
      ("host.probe_ns", "ns");
      ("gc.setup.minor_words", "words");
      ("gc.setup.promoted_words", "words");
      ("gc.setup.major_collections", "count");
      ("gc.main.minor_words", "words");
      ("gc.main.promoted_words", "words");
      ("gc.main.major_collections", "count");
    ]
  @ List.map (fun l -> ("self_ms." ^ l, "ms")) [ "bench"; "emit"; "dpf"; "server"; "inval"; "engine"; "asm" ]
  @ List.map (fun (n, u) -> ("trace_overhead." ^ n, u)) end_to_end
