(* One repetition of a workload: the same seeded inputs run from fresh
   state, set up and measured.  A run repeats it until its time is up and
   reports medians over repetitions; the exact values in [det] must come
   out identical in every repetition (the determinism gate). *)

type t = {
  traced : bool;
  spans : Spans.t; (* {!Spans.disabled} unless [traced] *)
  tel : Vmachine.Telemetry.t; (* the simulators' sink; disabled unless [traced] *)
  mutable setup_ns : int;
  mutable probe_ns : float; (* host-speed probe around this repetition, see {!Probe} *)
  e2e : (string, float) Hashtbl.t; (* end-to-end values measured in this repetition *)
  cpu : (string, unit) Hashtbl.t; (* the end-to-end values that follow host CPU speed *)
  layer : (string, float) Hashtbl.t; (* per-layer values *)
  det : (string, int) Hashtbl.t; (* values that must reproduce exactly *)
  counts : (string, int) Hashtbl.t; (* sample count behind each percentile *)
  notes : (string, float) Hashtbl.t; (* reported alongside, not gated *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list; (* the first few, for the report *)
}

let create ~traced =
  {
    traced;
    spans = (if traced then Spans.create () else Spans.disabled);
    tel = (if traced then Vmachine.Telemetry.create () else Vmachine.Telemetry.disabled);
    setup_ns = 0;
    probe_ns = Probe.ref_ns;
    e2e = Hashtbl.create 16;
    cpu = Hashtbl.create 16;
    layer = Hashtbl.create 64;
    det = Hashtbl.create 32;
    counts = Hashtbl.create 16;
    notes = Hashtbl.create 8;
    attempted = 0;
    failed = 0;
    failures = [];
  }

let e2e r k v = Hashtbl.replace r.e2e k v

(* an end-to-end value of CPU-bound work: reported at the host-speed
   probe's reference speed (see {!Probe}) *)
let cpu r k v =
  e2e r k v;
  Hashtbl.replace r.cpu k ()
let layer r k v = Hashtbl.replace r.layer k v
let det r k v = Hashtbl.replace r.det k v
let note r k v = Hashtbl.replace r.notes k v

(* an operation attempted; [ok = false] counts it failed with [why] *)
let check r ok why =
  r.attempted <- r.attempted + 1;
  if not ok then begin
    r.failed <- r.failed + 1;
    if List.length r.failures < 5 then r.failures <- why () :: r.failures
  end

(* record a percentile of [samples] under [name], obeying the percentile rule *)
let pct r ~into name q samples =
  let p = Stats.percentile ~what:name q (Stats.to_floats samples) in
  Hashtbl.replace r.counts name p.Stats.n;
  into r name p.Stats.value

let ratio a b = if b = 0 then 0. else Float.of_int a /. Float.of_int b

(* ---- phases: setup and main, each with its GC deltas ---- *)

(* GC work of one phase: [Gc.counters] for the word counts (exact at any
   point), [Gc.quick_stat] for the collection count *)
let gc_snapshot () =
  let minor, promoted, _ = Gc.counters () in
  (minor, promoted, (Gc.quick_stat ()).Gc.major_collections)

let gc_add r phase (m0, p0, c0) (m1, p1, c1) =
  layer r ("gc." ^ phase ^ ".minor_words") (m1 -. m0);
  layer r ("gc." ^ phase ^ ".promoted_words") (p1 -. p0);
  layer r ("gc." ^ phase ^ ".major_collections") (Float.of_int (c1 - c0))

(* Each phase starts from a fully collected heap, so the major GC work
   that lands inside it does not depend on what ran before; in a set-up
   of a few milliseconds, one stray major slice doubled the time. *)
let phase r name f =
  Gc.full_major ();
  let id = Spans.name r.spans ("bench." ^ name) in
  let g0 = gc_snapshot () in
  let t0 = Clock.now_ns () in
  let sp = Spans.enter r.spans id ~op:(-1) in
  let v = f () in
  Spans.leave r.spans sp;
  let t1 = Clock.now_ns () in
  gc_add r name g0 (gc_snapshot ());
  (v, t1 - t0)

let setup r f =
  let v, ns = phase r "setup" f in
  r.setup_ns <- ns;
  v

let main r f = fst (phase r "main" f)

(* ---- counters read from the machines ---- *)

(* Engine, invalidation and timing-cache counters summed over [ms], the
   machines of one repetition.  Timing caches are read on the [Off]
   machines only: the tiers are bit-identical there by contract. *)
let machine_counters r (ms : (Ports.tier * Ports.machine) list) =
  let sum f = List.fold_left (fun a (t, m) -> a + f t m) 0 ms in
  let pdc_inv = sum (fun _ m -> snd (m.Ports.pdc_stats ())) in
  let bc_comp = sum (fun _ m -> fst (m.Ports.bc_stats ())) in
  let bc_inv = sum (fun _ m -> snd (m.Ports.bc_stats ())) in
  let rc_prom = sum (fun _ m -> fst (m.Ports.rc_stats ())) in
  let rc_inv = sum (fun _ m -> snd (m.Ports.rc_stats ())) in
  let translated_insns =
    sum (fun t m -> match t with Ports.Blocks | Ports.Regions -> m.Ports.insns () | _ -> 0)
  in
  let off f = sum (fun t m -> if t = Ports.Off then f m else 0) in
  let ih = off (fun m -> fst (Vmachine.Cache.stats m.Ports.icache)) in
  let im = off (fun m -> snd (Vmachine.Cache.stats m.Ports.icache)) in
  let dh = off (fun m -> fst (Vmachine.Cache.stats m.Ports.dcache)) in
  let dm = off (fun m -> snd (Vmachine.Cache.stats m.Ports.dcache)) in
  let watchers = sum (fun _ m -> Vmachine.Mem.watcher_count m.Ports.mem) in
  List.iter
    (fun (k, v) ->
      det r k v;
      layer r k (Float.of_int v))
    [
      ("inval.predecode", pdc_inv);
      ("inval.blocks", bc_inv);
      ("inval.regions", rc_inv);
      ("engine.block_compiles", bc_comp);
      ("engine.region_promotions", rc_prom);
      ("cache.icache_misses", im);
      ("cache.dcache_misses", dm);
    ];
  layer r "mem.watchers" (Float.of_int watchers);
  layer r "engine.block_compiles_per_kinsn" (1000. *. ratio bc_comp translated_insns);
  layer r "cache.icache_miss_ratio" (ratio im (ih + im));
  layer r "cache.dcache_miss_ratio" (ratio dm (dh + dm))

(* p90 of the superblock compile latency the simulators' own telemetry
   sink records ([<port>.bc.compile_ns]), merged over ports.  Only the
   traced run enables the sink.  p90, not p99: the exec workload compiles
   a few hundred blocks per repetition, too few for a p99. *)
let block_compile_p90 r =
  if r.traced then begin
    let merged = ref None in
    Vmachine.Telemetry.iter_dists r.tel (fun name (d : Vmachine.Telemetry.dist_stats) ->
        if Filename.check_suffix name ".bc.compile_ns" && d.count > 0 then
          merged :=
            Some
              (match !merged with
              | None -> { d with buckets = Array.copy d.buckets }
              | Some (m : Vmachine.Telemetry.dist_stats) ->
                {
                  count = m.count + d.count;
                  sum = m.sum + d.sum;
                  min = min m.min d.min;
                  max = max m.max d.max;
                  buckets = Array.mapi (fun i b -> b + d.buckets.(i)) m.buckets;
                }));
    let name = "engine.block_compile_ns.p90" in
    match !merged with
    | None -> layer r name 0.
    | Some d ->
      if Stats.beyond ~q:0.9 d.count < Stats.min_beyond then
        raise (Stats.Too_few_samples { what = name; q = 0.9; n = d.count });
      Hashtbl.replace r.counts name d.count;
      layer r name (Float.of_int (Vmachine.Telemetry.quantile_of_stats d 0.9))
  end

(* self time per layer from the recorded spans, in milliseconds *)
let self_times r =
  if r.traced then
    List.iter
      (fun (l, ns) -> layer r ("self_ms." ^ l) (Float.of_int ns /. 1e6))
      (Spans.self_by_layer r.spans)
