(* vprof: the one report tool for the simulated workloads.

   Runs a workload on one of the four simulated ports with an enabled
   {!Vmachine.Telemetry} sink and a {!Vmachine.Timeline} attached, and
   prints the hottest compiled superblocks, the four-tier dispatch
   profile, the code-region registry, every counter, one table of
   every distribution (count, min, max, avg, interpolated
   p50/p90/p99/p999 and a log2-bucket sparkline), the router's hottest
   tenants and the timeline summary.

   Examples:
     vprof                                    # dpf-classify, mips, blocks
     vprof -w table4-ash -p sparc -m predecode
     vprof -w router --iters 20000 --top 5 --json r.json --perfetto r.perfetto.json
     vprof -w asm:josephus -m regions --runs 200

   [--json FILE] writes the same data machine-readably (schema below,
   validated by bench/json_check.exe) through {!Report_util};
   [--perfetto FILE] writes the timeline as Chrome trace_event JSON,
   one counter track per gauge plus the event ring as instants (see
   {!Chrome_trace.write_timeline}).  The port/workload/mode vocabulary
   lives in {!Workloads}, shared with bench and vtrace.
   EXPERIMENTS.md ("Reading a vprof report", "Router tail latency with
   vprof") walks through the report. *)

module Tel = Vmachine.Telemetry
module Timeline = Vmachine.Timeline
module W = Workloads
module J = Report_util

(* schema version of the --json document; bump when keys change.
   2: added the per-tier "tiers" object (block/region dispatch counts,
   promotions, side exits and the side-exit rate) and the "regions"
   mode.
   3: added the "registry" object (code-region registry and slab-arena
   gauges from the server.* counters) and the "router" workload.
   4: dist objects grew interpolated "p50"/"p90"/"p99"/"p999" keys
   (from {!Vmachine.Telemetry.quantile_of_stats} over the log2
   buckets), matching the latency timers that now feed *_ns dists.
   5: added "runs", the router's top-K "tenants" array and the
   "timeline" accounting object. *)
let json_schema_version = 5

let tool = "vprof"

(* the timeline's sampling period, in ticks (runs, or router packets) *)
let every = 64

type outcome = {
  o_insns : int;
  o_cycles : int;
  o_hot : (int * int) list; (* all entries, hottest first *)
  o_disasm : int -> string; (* first instruction at an entry address *)
  o_tenants : (int * int * int * int) list; (* key, packets, total_ns, max_ns *)
  o_tel : Tel.t;
  o_tl : Timeline.t;
}

let measure (module P : W.PORT) (predecode, blocks, regions) ~workload ~iters ~runs ~top =
  let tel = Tel.create () in
  let tl = Timeline.create ~every ~rows:4096 () in
  let m = P.create ~telemetry:tel ~predecode ~blocks ~regions () in
  let prep = P.prepare ~tel ~timeline:tl m ~workload ~iters in
  for _ = 1 to runs do
    prep.W.run ()
  done;
  Timeline.sample_now tl;
  {
    o_insns = P.insns m;
    o_cycles = P.cycles m;
    o_hot = P.hot_blocks ~limit:max_int m;
    o_disasm = (fun addr -> P.disasm ~word:(Vmachine.Mem.read_u32 (P.mem m) addr) ~addr);
    o_tenants = prep.W.tenants ~k:top;
    o_tel = tel;
    o_tl = tl;
  }

(* (JSON key, counter) pairs: the four-tier dispatch profile under the
   port's prefix, and the code-region registry under "server." (all
   zero for workloads that run no registry); the report labels a row
   with its key, '_' read as ' ' *)
let tier_rows =
  [ ("block_execs", "block_execs"); ("block_chains", "block_chains");
    ("region_execs", "region_execs"); ("region_promotions", "rc.promotions");
    ("region_invalidations", "rc.invalidations"); ("region_side_exits", "region_side_exits") ]

let registry_rows =
  [ ("installs", "install"); ("replaces", "replace"); ("evictions", "evict");
    ("capacity_evictions", "evict_capacity"); ("live_regions", "live_regions");
    ("slabs_live", "arena.live_slabs"); ("slabs_free", "arena.free_slabs");
    ("bump_words", "arena.bump_words"); ("lookup_hits", "lookup.hit");
    ("lookup_misses", "lookup.miss") ]

(* the rows as (key, value) *)
let section (o : outcome) ~prefix rows =
  let counters = J.collect Tel.iter_counters o.o_tel in
  List.map (fun (k, c) -> (k, Option.value ~default:0 (List.assoc_opt (prefix ^ c) counters))) rows

let side_exit_rate tiers =
  match List.assoc "region_execs" tiers with
  | 0 -> 0.0
  | execs -> 100.0 *. float_of_int (List.assoc "region_side_exits" tiers) /. float_of_int execs

let report ~port ~workload ~mode ~iters ~runs ~top (o : outcome) =
  Printf.printf "vprof: %s on %s, %s mode (%d iterations, %d run%s)\n" workload port mode iters
    runs (if runs = 1 then "" else "s");
  Printf.printf "  %d simulated instructions retired in %d cycles\n\n" o.o_insns o.o_cycles;
  (match o.o_hot with
  | [] -> Printf.printf "hot blocks: none (superblock mode off or nothing compiled)\n"
  | all ->
    let total = List.fold_left (fun a (_, n) -> a + n) 0 all in
    let shown = List.filteri (fun i _ -> i < top) all in
    Printf.printf "hot blocks (top %d of %d entries, %d executions):\n" (List.length shown)
      (List.length all) total;
    Printf.printf "  %-10s %12s %7s  %s\n" "entry" "execs" "share" "first instruction";
    List.iter
      (fun (addr, n) ->
        Printf.printf "  0x%08x %12d %6.1f%%  %s\n" addr n
          (100.0 *. float_of_int n /. float_of_int total)
          (o.o_disasm addr))
      shown);
  let rows title rs =
    Printf.printf "\n%s:\n" title;
    List.iter
      (fun (k, v) -> Printf.printf "  %-28s %12d\n" (String.map (function '_' -> ' ' | c -> c) k) v)
      rs
  in
  let tiers = section o ~prefix:(port ^ ".") tier_rows in
  rows "tiers" tiers;
  Printf.printf "  %-28s %11.1f%%\n" "side exits / region execs" (side_exit_rate tiers);
  let reg = section o ~prefix:"server." registry_rows in
  if List.assoc "installs" reg > 0 || List.assoc "live_regions" reg > 0 then rows "registry" reg;
  Printf.printf "\ncounters (nonzero, largest first):\n";
  J.collect Tel.iter_counters o.o_tel
  |> List.filter (fun (_, v) -> v > 0)
  |> List.stable_sort (fun (_, a) (_, b) -> compare b a)
  |> List.iter (fun (k, v) -> Printf.printf "  %-36s %12d\n" k v);
  Printf.printf "\ndistributions (*_ns in host ns; percentiles interpolated from log2 buckets):\n";
  Printf.printf "  %-26s %8s %8s %9s %10s %8s %8s %8s %8s\n" "name" "count" "min" "max" "avg"
    "p50" "p90" "p99" "p999";
  List.iter
    (fun (k, (st : Tel.dist_stats)) ->
      if st.Tel.count > 0 then begin
        Printf.printf "  %-26s %8d %8d %9d %10.1f" k st.Tel.count st.Tel.min st.Tel.max
          (float_of_int st.Tel.sum /. float_of_int st.Tel.count);
        List.iter (Printf.printf " %8d") (J.percentiles st);
        Printf.printf "\n  %-26s %s\n" "" (J.spark st)
      end)
    (J.collect Tel.iter_dists o.o_tel);
  if workload = "router" then begin
    Printf.printf "\nhottest tenants (top %d of keys seen, by total classification time):\n" top;
    Printf.printf "  %-10s %9s %12s %9s %9s\n" "key" "packets" "total_ns" "avg_ns" "max_ns";
    List.iter
      (fun (key, pkts, total, mx) ->
        Printf.printf "  %-10d %9d %12d %9d %9d\n" key pkts total (total / max 1 pkts) mx)
      o.o_tenants
  end;
  let tl = o.o_tl in
  Printf.printf
    "\ntimeline: %d samples (%d retained, %d dropped), every %d ticks, %d ticks total\n"
    (Timeline.samples_seen tl) (Timeline.retained tl) (Timeline.dropped tl) (Timeline.every tl)
    (Timeline.ticks tl);
  Printf.printf "  gauges: %s\n" (String.concat ", " (Timeline.gauge_names tl));
  Printf.printf "events recorded: %d\n" (Tel.events_seen o.o_tel)

let to_json ~port ~workload ~mode ~iters ~runs ~top (o : outcome) =
  let ints kvs = List.map (fun (k, v) -> (k, J.Int v)) kvs in
  let tiers = section o ~prefix:(port ^ ".") tier_rows in
  let tl = o.o_tl in
  let hot (addr, n) =
    J.Obj [ ("entry", J.Int addr); ("execs", J.Int n); ("disasm", J.String (o.o_disasm addr)) ]
  in
  let tenant (key, pkts, total, mx) =
    J.Obj (ints [ ("key", key); ("packets", pkts); ("total_ns", total); ("max_ns", mx) ])
  in
  J.Obj
    ([ ("schema", J.Int json_schema_version); ("tool", J.String tool); ("port", J.String port);
       ("mode", J.String mode); ("workload", J.String workload) ]
    @ ints [ ("iters", iters); ("runs", runs); ("insns", o.o_insns); ("cycles", o.o_cycles) ]
    @ [ ("hot_blocks", J.List (List.map hot (List.filteri (fun i _ -> i < top) o.o_hot)));
        ("tiers", J.Obj (ints tiers @ [ ("side_exit_rate", J.Float (side_exit_rate tiers)) ]));
        ("registry", J.Obj (ints (section o ~prefix:"server." registry_rows))) ]
    @ J.telemetry_fields o.o_tel
    @ [ ("tenants", J.List (List.map tenant o.o_tenants));
        ( "timeline",
          J.Obj
            (ints
               [ ("every", Timeline.every tl); ("ticks", Timeline.ticks tl);
                 ("samples", Timeline.samples_seen tl); ("retained", Timeline.retained tl);
                 ("dropped", Timeline.dropped tl) ]
            @ [ ("gauges", J.List (List.map (fun n -> J.String n) (Timeline.gauge_names tl))) ]) ) ])

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

open Cmdliner

let opt c d ns docv doc = Arg.(value & opt c d & info ns ~docv ~doc)
let port_arg = opt Arg.string "mips" [ "p"; "port" ] "PORT" "mips|sparc|alpha|ppc"

let workload_arg =
  opt Arg.string "dpf-classify" [ "w"; "workload" ] "WORKLOAD"
    "dpf-classify|table4-ash|alu-loop|region-loop|router|asm:NAME|asm:PATH.asm"

let mode_arg = opt Arg.string "blocks" [ "m"; "mode" ] "MODE" "off|predecode|blocks|regions"
let iters_arg = opt Arg.int 1000 [ "iters" ] "N" "workload iterations (router: packets per run)"
let runs_arg = opt Arg.int 1 [ "runs" ] "N" "times to run the prepared workload"
let top_arg = opt Arg.int 10 [ "top" ] "N" "hot-block rows and router tenant rows to report"

let json_arg =
  opt Arg.(some string) None [ "json" ] "FILE" "also write the report as JSON (schema 5)"

let perfetto_arg =
  opt Arg.(some string) None [ "perfetto" ] "FILE"
    "write the gauge timeline and event ring as Chrome trace_event JSON"

let main port workload mode iters runs top json perfetto =
  let p = W.port_exn ~tool port in
  let workload = W.workload_exn ~tool ~port workload in
  let flags = W.mode_exn ~tool mode in
  let runs = max 1 runs in
  let out_file path = (path, J.open_output ~tool path) in
  let json = Option.map out_file json and perfetto = Option.map out_file perfetto in
  let o =
    W.guard ~tool ~port ~workload ~mode (fun () -> measure p flags ~workload ~iters ~runs ~top)
  in
  report ~port ~workload ~mode ~iters ~runs ~top o;
  Option.iter
    (fun (path, out) ->
      J.write_json out (to_json ~port ~workload ~mode ~iters ~runs ~top o);
      Printf.printf "\nwrote %s\n" path)
    json;
  Option.iter
    (fun (path, out) ->
      J.write_output out (fun oc ->
          let b = Buffer.create 65536 in
          Chrome_trace.write_timeline b ~port ~mode ~workload o.o_tl o.o_tel;
          Buffer.output_buffer oc b);
      Printf.printf "wrote %s (%d timeline rows over %d gauges)\n" path
        (Timeline.retained o.o_tl)
        (List.length (Timeline.gauge_names o.o_tl)))
    perfetto

let () =
  let info = Cmd.info "vprof" ~doc:"profile and latency report for the simulated workloads" in
  let term =
    Term.(
      const main $ port_arg $ workload_arg $ mode_arg $ iters_arg $ runs_arg $ top_arg $ json_arg
      $ perfetto_arg)
  in
  exit (Cmd.eval (Cmd.v info term))
