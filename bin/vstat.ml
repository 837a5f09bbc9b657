(* vstat: tail-latency and timeline statistics for the simulated
   workloads.

   Where vprof answers "how much work ran", vstat answers "how long
   did each operation take, and how did the system's state evolve
   while it ran".  It drives a workload with an enabled
   {!Vmachine.Telemetry} sink and a {!Vmachine.Timeline} attached,
   then reports every latency distribution (the *_ns stopwatch dists:
   server install/replace/evict, per-packet classification, per-call
   simulator runs, block compiles, region promotions) as a histogram
   sparkline with interpolated p50/p90/p99/p999 — plus, on the router
   workload, the top-K hottest tenants by total classification time.

   Examples:
     vstat -w router --iters 20000 --top 10
     vstat -w asm:josephus -m regions --runs 200
     vstat -w router --json stat.json --perfetto stat.perfetto.json

   [--json FILE] writes the same data machine-readably (schema below,
   validated by bench/json_check.exe); [--perfetto FILE] writes the
   merged Chrome trace_event export — one counter track per timeline
   gauge plus the telemetry event ring as instants — loadable in
   Perfetto / chrome://tracing (see {!Chrome_trace.write_timeline}).
   EXPERIMENTS.md ("Router tail latency with vstat") is the worked
   walkthrough. *)

module Tel = Vmachine.Telemetry
module Timeline = Vmachine.Timeline
module W = Workloads

(* schema version of the --json document; bump when keys change.
   1: initial — latency objects (count/sum/min/max + p50/p90/p99/p999
   per *_ns distribution), the per-tenant top-K array, and the
   timeline accounting object. *)
let json_schema_version = 1

let json_escape = Report_util.json_escape
let spark = Report_util.spark

let is_latency_dist name =
  let suffix = "_ns" in
  let nl = String.length name and sl = String.length suffix in
  nl > sl && String.sub name (nl - sl) sl = suffix

type outcome = {
  o_insns : int;
  o_cycles : int;
  o_dists : (string * Tel.dist_stats) list; (* nonzero only *)
  o_tenants : (int * int * int * int) list; (* key, packets, total_ns, max_ns *)
  o_tl : Timeline.t;
  o_tel : Tel.t;
  o_runs : int;
}

let measure (module P : W.PORT) ~workload ~mode ~iters ~runs ~every ~top =
  let predecode, blocks, regions = W.mode_exn ~tool:"vstat" mode in
  let tel = Tel.create () in
  let tl = Timeline.create ~every ~rows:4096 () in
  let m = P.create ~telemetry:tel ~predecode ~blocks ~regions () in
  let tenants =
    if workload = "router" then begin
      (* driven directly (not via [prepare]) so the timeline and the
         per-tenant table are reachable *)
      let r = P.router ~tel ~timeline:tl m in
      let nf = max 16 (min 4096 (iters / 4)) in
      Timeline.sample_now tl; (* baseline row before any install *)
      r.W.rt_install ~n:nf ~batched:true;
      Timeline.sample_now tl;
      r.W.rt_packets ~n:iters ~churn_every:32;
      r.W.rt_sync ();
      Timeline.sample_now tl;
      r.W.rt_top ~k:top
    end
    else begin
      (* non-router workloads: the engine-tier gauges still evolve
         (compiles, promotions); one tick per run call *)
      Timeline.gauge tl "engine.blocks.resident" (fun () -> fst (P.resident m));
      Timeline.gauge tl "engine.regions.resident" (fun () -> snd (P.resident m));
      Timeline.gauge tl "tel.events_seen" (fun () -> Tel.events_seen tel);
      let prep = P.prepare ~tel m ~workload ~iters in
      Timeline.sample_now tl;
      for _ = 1 to runs do
        prep.W.run ();
        Timeline.tick tl
      done;
      Timeline.sample_now tl;
      []
    end
  in
  let dists = ref [] in
  Tel.iter_dists tel (fun name st -> if st.Tel.count > 0 then dists := (name, st) :: !dists);
  {
    o_insns = P.insns m;
    o_cycles = P.cycles m;
    o_dists = List.rev !dists;
    o_tenants = tenants;
    o_tl = tl;
    o_tel = tel;
    o_runs = runs;
  }

let percentiles st =
  ( Tel.quantile_of_stats st 0.5,
    Tel.quantile_of_stats st 0.9,
    Tel.quantile_of_stats st 0.99,
    Tel.quantile_of_stats st 0.999 )

let report ~port ~workload ~mode ~iters ~top (o : outcome) =
  Printf.printf "vstat: %s on %s, %s mode (%d iterations" workload port mode iters;
  if workload <> "router" then Printf.printf ", %d runs" o.o_runs;
  Printf.printf ")\n";
  Printf.printf "  %d simulated instructions retired in %d cycles\n" o.o_insns o.o_cycles;
  let lat = List.filter (fun (n, _) -> is_latency_dist n) o.o_dists in
  Printf.printf "\nlatency (host ns, interpolated from log2 buckets):\n";
  if lat = [] then Printf.printf "  none recorded\n"
  else begin
    Printf.printf "  %-24s %9s %8s %9s %9s %8s %8s %9s %9s\n" "op" "count" "min" "max" "avg"
      "p50" "p90" "p99" "p999";
    List.iter
      (fun (name, (st : Tel.dist_stats)) ->
        let p50, p90, p99, p999 = percentiles st in
        Printf.printf "  %-24s %9d %8d %9d %9.0f %8d %8d %9d %9d\n" name st.Tel.count
          st.Tel.min st.Tel.max
          (float_of_int st.Tel.sum /. float_of_int st.Tel.count)
          p50 p90 p99 p999;
        Printf.printf "  %-24s %s\n" "" (spark st))
      lat
  end;
  (match List.filter (fun (n, _) -> not (is_latency_dist n)) o.o_dists with
  | [] -> ()
  | other ->
    Printf.printf "\nother distributions:\n";
    List.iter
      (fun (name, (st : Tel.dist_stats)) ->
        Printf.printf "  %-24s count %-9d min %-6d max %-6d avg %.1f\n" name st.Tel.count
          st.Tel.min st.Tel.max
          (float_of_int st.Tel.sum /. float_of_int st.Tel.count))
      other);
  if workload = "router" then begin
    Printf.printf "\nhottest tenants (top %d of keys seen, by total classification time):\n" top;
    if o.o_tenants = [] then Printf.printf "  none (no packets classified)\n"
    else begin
      Printf.printf "  %-10s %9s %12s %9s %9s\n" "key" "packets" "total_ns" "avg_ns" "max_ns";
      List.iter
        (fun (key, pkts, total, mx) ->
          Printf.printf "  %-10d %9d %12d %9d %9d\n" key pkts total (total / max 1 pkts) mx)
        o.o_tenants
    end
  end;
  Printf.printf
    "\ntimeline: %d samples (%d retained, %d dropped), every %d ticks, %d ticks total\n"
    (Timeline.samples_seen o.o_tl) (Timeline.retained o.o_tl) (Timeline.dropped o.o_tl)
    (Timeline.every o.o_tl) (Timeline.ticks o.o_tl);
  (match Timeline.gauge_names o.o_tl with
  | [] -> ()
  | names -> Printf.printf "  gauges: %s\n" (String.concat ", " names));
  Printf.printf "events recorded: %d\n" (Tel.events_seen o.o_tel)

let write_json path ~port ~workload ~mode ~iters (o : outcome) =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"schema\": %d,\n  \"tool\": \"vstat\",\n" json_schema_version;
  Printf.fprintf oc "  \"port\": \"%s\",\n  \"mode\": \"%s\",\n  \"workload\": \"%s\",\n"
    (json_escape port) (json_escape mode) (json_escape workload);
  Printf.fprintf oc "  \"iters\": %d,\n  \"runs\": %d,\n  \"insns\": %d,\n  \"cycles\": %d,\n"
    iters o.o_runs o.o_insns o.o_cycles;
  let lat = List.filter (fun (n, _) -> is_latency_dist n) o.o_dists in
  output_string oc "  \"latency\": {";
  List.iteri
    (fun i (name, (st : Tel.dist_stats)) ->
      let p50, p90, p99, p999 = percentiles st in
      Printf.fprintf oc
        "%s\n    \"%s\": { \"count\": %d, \"sum\": %d, \"min\": %d, \"max\": %d, \"p50\": %d, \
         \"p90\": %d, \"p99\": %d, \"p999\": %d }"
        (if i > 0 then "," else "")
        (json_escape name) st.Tel.count st.Tel.sum st.Tel.min st.Tel.max p50 p90 p99 p999)
    lat;
  output_string oc (if lat = [] then "},\n" else "\n  },\n");
  output_string oc "  \"tenants\": [";
  List.iteri
    (fun i (key, pkts, total, mx) ->
      Printf.fprintf oc
        "%s\n    { \"key\": %d, \"packets\": %d, \"total_ns\": %d, \"max_ns\": %d }"
        (if i > 0 then "," else "") key pkts total mx)
    o.o_tenants;
  output_string oc (if o.o_tenants = [] then "],\n" else "\n  ],\n");
  Printf.fprintf oc
    "  \"timeline\": { \"every\": %d, \"ticks\": %d, \"samples\": %d, \"retained\": %d, \
     \"dropped\": %d, \"gauges\": [%s] },\n"
    (Timeline.every o.o_tl) (Timeline.ticks o.o_tl) (Timeline.samples_seen o.o_tl)
    (Timeline.retained o.o_tl) (Timeline.dropped o.o_tl)
    (String.concat ", "
       (List.map (fun n -> "\"" ^ json_escape n ^ "\"") (Timeline.gauge_names o.o_tl)));
  Printf.fprintf oc "  \"events_seen\": %d\n}\n" (Tel.events_seen o.o_tel);
  close_out oc;
  Printf.printf "\nwrote %s\n" path

let write_perfetto path ~port ~workload ~mode (o : outcome) =
  let b = Buffer.create 65536 in
  Chrome_trace.write_timeline b ~port ~mode ~workload o.o_tl o.o_tel;
  let oc = open_out path in
  Buffer.output_buffer oc b;
  close_out oc;
  Printf.printf "wrote %s (%d counter samples over %d gauges)\n" path
    (Timeline.retained o.o_tl * List.length (Timeline.gauge_names o.o_tl))
    (List.length (Timeline.gauge_names o.o_tl))

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

open Cmdliner

let port_arg =
  Arg.(value & opt string "mips" & info [ "p"; "port" ] ~docv:"PORT" ~doc:"mips|sparc|alpha|ppc")

let workload_arg =
  Arg.(
    value
    & opt string "router"
    & info [ "w"; "workload" ] ~docv:"WORKLOAD"
        ~doc:"router|dpf-classify|table4-ash|alu-loop|region-loop|asm:NAME")

let mode_arg =
  Arg.(
    value
    & opt string "blocks"
    & info [ "m"; "mode" ] ~docv:"MODE" ~doc:"off|predecode|blocks|regions")

let iters_arg =
  Arg.(
    value & opt int 8000
    & info [ "iters" ] ~docv:"N" ~doc:"workload iterations (router: packets)")

let runs_arg =
  Arg.(
    value & opt int 50
    & info [ "runs" ] ~docv:"N" ~doc:"repeated run calls for non-router workloads")

let every_arg =
  Arg.(value & opt int 64 & info [ "every" ] ~docv:"N" ~doc:"timeline sampling period in ticks")

let top_arg =
  Arg.(value & opt int 10 & info [ "top" ] ~docv:"K" ~doc:"hottest tenants to report (router)")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"also write the report as JSON (schema 1)")

let perfetto_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "perfetto" ] ~docv:"FILE"
        ~doc:"write the merged counter/instant timeline as Chrome trace_event JSON")

let main port workload mode iters runs every top json perfetto =
  let p = W.port_exn ~tool:"vstat" port in
  let workload = W.workload_exn ~tool:"vstat" ~port workload in
  ignore (W.mode_exn ~tool:"vstat" mode);
  let o = measure p ~workload ~mode ~iters ~runs:(max 1 runs) ~every:(max 1 every) ~top in
  report ~port ~workload ~mode ~iters ~top o;
  (match json with None -> () | Some path -> write_json path ~port ~workload ~mode ~iters o);
  match perfetto with
  | None -> ()
  | Some path -> write_perfetto path ~port ~workload ~mode o

let () =
  let info =
    Cmd.info "vstat" ~doc:"tail-latency and timeline statistics for the simulated workloads"
  in
  let term =
    Term.(
      const main $ port_arg $ workload_arg $ mode_arg $ iters_arg $ runs_arg $ every_arg
      $ top_arg $ json_arg $ perfetto_arg)
  in
  exit (Cmd.eval (Cmd.v info term))
