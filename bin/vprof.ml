(* vprof: telemetry profiler for the simulated evaluation workloads.

   Runs a Table 3 / Table 4 workload on one of the four simulated ports
   with an enabled {!Vmachine.Telemetry} sink and prints a sorted
   report: the hottest compiled superblocks (per-entry execution counts
   from {!Vmachine.Block_cache}), every registered counter, the
   distribution summaries, and the tail of the structured event ring.
   [--json FILE] writes the same data machine-readably (schema below);
   bench/json_check.exe validates it in the test suite.

   Examples:
     vprof                                    # dpf-classify, mips, blocks
     vprof -w table4-ash -p sparc -m predecode
     vprof -w alu-loop -p alpha --top 5 --json prof.json

   The port/workload/mode vocabulary and the workload fixtures live in
   {!Workloads} (lib/harness), shared with bench/main.exe and
   bin/vtrace.exe.  EXPERIMENTS.md ("Reading a vprof report") walks
   through the default report line by line. *)

module Tel = Vmachine.Telemetry
module W = Workloads

(* schema version of the --json document; bump when keys change.
   2: added the per-tier "tiers" object (block/region dispatch counts,
   promotions, side exits and the side-exit rate) and the "regions"
   mode.
   3: added the "registry" object (code-region registry and slab-arena
   gauges from the server.* counters) and the "router" workload.
   4: dist objects grew interpolated "p50"/"p90"/"p99"/"p999" keys
   (from {!Vmachine.Telemetry.quantile_of_stats} over the log2
   buckets), matching the latency timers that now feed *_ns dists. *)
let json_schema_version = 4

let json_escape = Report_util.json_escape
let spark = Report_util.spark

type outcome = {
  o_insns : int;
  o_cycles : int;
  o_hot : (int * int) list; (* all entries, hottest first *)
  o_disasm : int -> string; (* first instruction at an entry address *)
  o_counters : (string * int) list; (* registration order *)
  o_dists : (string * Tel.dist_stats) list;
  o_events_seen : int;
}

(* the four-tier dispatch profile, extracted from the port's counters *)
type tiers = {
  t_block_execs : int;     (* tier-2 superblock dispatches *)
  t_block_chains : int;
  t_region_execs : int;    (* tier-3 region dispatches *)
  t_side_exits : int;      (* specialized branches that went the other way *)
  t_promotions : int;      (* superblocks recompiled as regions *)
  t_invalidations : int;   (* region drops from stores into region code *)
}

let tiers_of (o : outcome) ~port =
  let c name = Option.value ~default:0 (List.assoc_opt (port ^ "." ^ name) o.o_counters) in
  {
    t_block_execs = c "block_execs";
    t_block_chains = c "block_chains";
    t_region_execs = c "region_execs";
    t_side_exits = c "region_side_exits";
    t_promotions = c "rc.promotions";
    t_invalidations = c "rc.invalidations";
  }

let side_exit_rate (t : tiers) =
  if t.t_region_execs = 0 then 0.0
  else 100.0 *. float_of_int t.t_side_exits /. float_of_int t.t_region_execs

(* the code-region registry profile (router workload), extracted from
   the server.* counters the {!Vserver.Server} instance registers;
   all zero for workloads that don't run a registry *)
type registry = {
  r_installs : int;
  r_replaces : int;
  r_evictions : int;       (* explicit evicts *)
  r_cap_evictions : int;   (* forced by a full arena or max_live *)
  r_live : int;            (* gauge: resident regions *)
  r_slabs_live : int;      (* gauge: arena slabs in use *)
  r_slabs_free : int;      (* gauge: slabs parked on free lists *)
  r_bump_words : int;      (* gauge: words ever claimed from the frontier *)
  r_hits : int;
  r_misses : int;
}

let registry_of (o : outcome) =
  let c name = Option.value ~default:0 (List.assoc_opt ("server." ^ name) o.o_counters) in
  {
    r_installs = c "install";
    r_replaces = c "replace";
    r_evictions = c "evict";
    r_cap_evictions = c "evict_capacity";
    r_live = c "live_regions";
    r_slabs_live = c "arena.live_slabs";
    r_slabs_free = c "arena.free_slabs";
    r_bump_words = c "arena.bump_words";
    r_hits = c "lookup.hit";
    r_misses = c "lookup.miss";
  }

let registry_active (r : registry) = r.r_installs > 0 || r.r_live > 0

let measure (module P : W.PORT) ~workload ~mode ~iters =
  let predecode, blocks, regions = W.mode_exn ~tool:"vprof" mode in
  let tel = Tel.create () in
  let m = P.create ~telemetry:tel ~predecode ~blocks ~regions () in
  let prep = P.prepare ~tel m ~workload ~iters in
  prep.W.run ();
  let collect iter =
    let acc = ref [] in
    iter tel (fun name v -> acc := (name, v) :: !acc);
    List.rev !acc
  in
  {
    o_insns = P.insns m;
    o_cycles = P.cycles m;
    o_hot = P.hot_blocks ~limit:max_int m;
    o_disasm = (fun addr -> P.disasm ~word:(Vmachine.Mem.read_u32 (P.mem m) addr) ~addr);
    o_counters = collect Tel.iter_counters;
    o_dists = collect Tel.iter_dists;
    o_events_seen = Tel.events_seen tel;
  }

let report ~port ~workload ~mode ~iters ~top (o : outcome) =
  Printf.printf "vprof: %s on %s, %s mode (%d iterations)\n" workload port mode iters;
  Printf.printf "  %d simulated instructions retired in %d cycles\n\n" o.o_insns o.o_cycles;
  (* hottest compiled superblocks *)
  (match o.o_hot with
  | [] ->
    Printf.printf "hot blocks: none (superblock mode off or nothing compiled)\n"
  | all ->
    let total = List.fold_left (fun a (_, n) -> a + n) 0 all in
    let shown = List.filteri (fun i _ -> i < top) all in
    Printf.printf "hot blocks (top %d of %d entries, %d executions):\n"
      (List.length shown) (List.length all) total;
    Printf.printf "  %-10s %12s %7s  %s\n" "entry" "execs" "share" "first instruction";
    List.iter
      (fun (addr, n) ->
        Printf.printf "  0x%08x %12d %6.1f%%  %s\n" addr n
          (100.0 *. float_of_int n /. float_of_int total)
          (o.o_disasm addr))
      shown);
  (* the four-tier dispatch profile *)
  let t = tiers_of o ~port in
  Printf.printf "\ntiers:\n";
  Printf.printf "  %-28s %12d\n" "block execs (tier 2)" t.t_block_execs;
  Printf.printf "  %-28s %12d\n" "block chains" t.t_block_chains;
  Printf.printf "  %-28s %12d\n" "region execs (tier 3)" t.t_region_execs;
  Printf.printf "  %-28s %12d\n" "region promotions" t.t_promotions;
  Printf.printf "  %-28s %12d\n" "region invalidations" t.t_invalidations;
  Printf.printf "  %-28s %12d (%.1f%% of region execs)\n" "region side exits"
    t.t_side_exits (side_exit_rate t);
  (* the code-region registry (router workload only) *)
  let r = registry_of o in
  if registry_active r then begin
    Printf.printf "\nregistry:\n";
    Printf.printf "  %-28s %12d\n" "installs" r.r_installs;
    Printf.printf "  %-28s %12d\n" "replaces" r.r_replaces;
    Printf.printf "  %-28s %12d\n" "evictions" r.r_evictions;
    Printf.printf "  %-28s %12d\n" "capacity evictions" r.r_cap_evictions;
    Printf.printf "  %-28s %12d\n" "live regions" r.r_live;
    Printf.printf "  %-28s %12d live / %d free\n" "arena slabs" r.r_slabs_live
      r.r_slabs_free;
    Printf.printf "  %-28s %12d\n" "arena bump words" r.r_bump_words;
    Printf.printf "  %-28s %12d hit / %d miss\n" "lookups" r.r_hits r.r_misses
  end;
  (* counters, largest first *)
  let cs = List.filter (fun (_, v) -> v > 0) o.o_counters in
  let cs = List.sort (fun (_, a) (_, b) -> compare b a) cs in
  Printf.printf "\ncounters (nonzero, largest first):\n";
  List.iter (fun (k, v) -> Printf.printf "  %-36s %12d\n" k v) cs;
  (* distribution summaries, with interpolated tail percentiles and a
     log2-bucket sparkline *)
  Printf.printf "\ndistributions:\n";
  List.iter
    (fun (k, (st : Tel.dist_stats)) ->
      if st.Tel.count > 0 then begin
        Printf.printf
          "  %-28s count %-9d min %-6d max %-6d avg %-9.1f p50 %-6d p99 %-6d p999 %d\n" k
          st.Tel.count st.Tel.min st.Tel.max
          (float_of_int st.Tel.sum /. float_of_int st.Tel.count)
          (Tel.quantile_of_stats st 0.5) (Tel.quantile_of_stats st 0.99)
          (Tel.quantile_of_stats st 0.999);
        Printf.printf "  %-28s %s\n" "" (spark st)
      end)
    o.o_dists;
  Printf.printf "\nevents recorded: %d\n" o.o_events_seen

let write_json path ~port ~workload ~mode ~iters ~top (o : outcome) =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"schema\": %d,\n  \"tool\": \"vprof\",\n" json_schema_version;
  Printf.fprintf oc "  \"port\": \"%s\",\n  \"mode\": \"%s\",\n  \"workload\": \"%s\",\n"
    (json_escape port) (json_escape mode) (json_escape workload);
  Printf.fprintf oc "  \"iters\": %d,\n  \"insns\": %d,\n  \"cycles\": %d,\n" iters
    o.o_insns o.o_cycles;
  let hot = List.filteri (fun i _ -> i < top) o.o_hot in
  output_string oc "  \"hot_blocks\": [";
  List.iteri
    (fun i (addr, n) ->
      Printf.fprintf oc "%s\n    { \"entry\": %d, \"execs\": %d, \"disasm\": \"%s\" }"
        (if i > 0 then "," else "") addr n
        (json_escape (o.o_disasm addr)))
    hot;
  output_string oc (if hot = [] then "],\n" else "\n  ],\n");
  let emit_obj key kvs payload =
    Printf.fprintf oc "  \"%s\": {" key;
    List.iteri
      (fun i (k, v) ->
        Printf.fprintf oc "%s\n    \"%s\": %s" (if i > 0 then "," else "")
          (json_escape k) (payload v))
      kvs;
    output_string oc (if kvs = [] then "},\n" else "\n  },\n")
  in
  let t = tiers_of o ~port in
  Printf.fprintf oc
    "  \"tiers\": { \"block_execs\": %d, \"block_chains\": %d, \"region_execs\": %d, \
     \"region_promotions\": %d, \"region_invalidations\": %d, \"region_side_exits\": %d, \
     \"side_exit_rate\": %.4f },\n"
    t.t_block_execs t.t_block_chains t.t_region_execs t.t_promotions t.t_invalidations
    t.t_side_exits (side_exit_rate t);
  let r = registry_of o in
  Printf.fprintf oc
    "  \"registry\": { \"installs\": %d, \"replaces\": %d, \"evictions\": %d, \
     \"capacity_evictions\": %d, \"live_regions\": %d, \"slabs_live\": %d, \
     \"slabs_free\": %d, \"bump_words\": %d, \"lookup_hits\": %d, \"lookup_misses\": %d },\n"
    r.r_installs r.r_replaces r.r_evictions r.r_cap_evictions r.r_live r.r_slabs_live
    r.r_slabs_free r.r_bump_words r.r_hits r.r_misses;
  emit_obj "counters" o.o_counters string_of_int;
  emit_obj "dists" o.o_dists (fun (st : Tel.dist_stats) ->
      Printf.sprintf
        "{ \"count\": %d, \"sum\": %d, \"min\": %d, \"max\": %d, \"p50\": %d, \"p90\": %d, \
         \"p99\": %d, \"p999\": %d }"
        st.Tel.count st.Tel.sum st.Tel.min st.Tel.max
        (Tel.quantile_of_stats st 0.5) (Tel.quantile_of_stats st 0.9)
        (Tel.quantile_of_stats st 0.99) (Tel.quantile_of_stats st 0.999));
  Printf.fprintf oc "  \"events_seen\": %d\n}\n" o.o_events_seen;
  close_out oc;
  Printf.printf "\nwrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

open Cmdliner

let port_arg =
  Arg.(value & opt string "mips" & info [ "p"; "port" ] ~docv:"PORT" ~doc:"mips|sparc|alpha|ppc")

let workload_arg =
  Arg.(
    value
    & opt string "dpf-classify"
    & info [ "w"; "workload" ] ~docv:"WORKLOAD"
        ~doc:"dpf-classify|table4-ash|alu-loop|region-loop|router")

let mode_arg =
  Arg.(
    value
    & opt string "blocks"
    & info [ "m"; "mode" ] ~docv:"MODE" ~doc:"off|predecode|blocks|regions")

let top_arg = Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc:"hot-block rows to print")

let iters_arg =
  Arg.(value & opt int 1000 & info [ "iters" ] ~docv:"N" ~doc:"workload iterations")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"also write the report as JSON (schema 4)")

let main port workload mode top iters json =
  let p = W.port_exn ~tool:"vprof" port in
  let workload = W.workload_exn ~tool:"vprof" ~port workload in
  ignore (W.mode_exn ~tool:"vprof" mode);
  let o = measure p ~workload ~mode ~iters in
  report ~port ~workload ~mode ~iters ~top o;
  match json with
  | None -> ()
  | Some path -> write_json path ~port ~workload ~mode ~iters ~top o

let () =
  let info = Cmd.info "vprof" ~doc:"telemetry profiler for the simulated workloads" in
  let term =
    Term.(const main $ port_arg $ workload_arg $ mode_arg $ top_arg $ iters_arg $ json_arg)
  in
  exit (Cmd.eval (Cmd.v info term))
