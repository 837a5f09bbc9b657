(* Runs one workload for a time budget and reduces its repetitions to
   the reported metrics.

   Each repetition sets the workload up afresh and runs its fixed
   work; repetitions continue until the budget is spent (at least
   [min_reps]).  Untraced repetitions give the end-to-end values, as
   medians.  With tracing on, traced and untraced repetitions alternate:
   the traced ones give the per-layer values and the difference between
   the two gives the tracing overhead of each end-to-end metric. *)

type workload =
  | W : { name : string; prepare : int -> 'i; run : Rep.t -> 'i -> unit } -> workload

let workloads =
  [
    W
      {
        name = "codegen";
        prepare = Codegen.prepare;
        run = Codegen.run;
      };
    W
      {
        name = "exec";
        prepare = Exec.prepare;
        run = Exec.run;
      };
    W
      {
        name = "router";
        prepare = Router.prepare;
        run = Router.run;
      };
  ]

let find name = List.find_opt (fun (W w) -> w.name = name) workloads

exception Nondeterministic of { metric : string; first : int; other : int; rep : int }

type result = {
  reps : Rep.t list; (* in run order *)
  metrics : (string * string * float) list; (* name, unit, value *)
  counts : (string * int) list; (* sample count behind each percentile, per repetition *)
  det : (string * int) list;
  notes : (string * float) list; (* medians of the workload's own extra figures *)
  attempted : int;
  failed : int;
  failures : string list;
}

let min_reps ~trace = if trace then 4 else 3
let max_reps = 1000

(* One untimed warm-up repetition first: the heap, the page tables and
   the host caches settle during it, and its figures are not reported.
   Its deterministic values still go through the determinism gate. *)
let run_reps (W w) ~seed ~seconds ~trace =
  let inp = w.prepare seed in
  let once ~traced =
    let r = Rep.create ~traced in
    Probe.start ();
    (try w.run r inp with
    | Stats.Too_few_samples _ as e -> raise e
    | e ->
      let msg = Printexc.to_string e in
      Rep.check r false (fun () -> w.name ^ ": exception " ^ msg));
    r.Rep.probe_ns <- Probe.finish ();
    r
  in
  let warmup = once ~traced:false in
  let t_end = Clock.now_ns () + int_of_float (seconds *. 1e9) in
  let reps = ref [] and i = ref 0 in
  while !i < min_reps ~trace || (Clock.now_ns () < t_end && !i < max_reps) do
    reps := once ~traced:(trace && !i mod 2 = 1) :: !reps;
    incr i
  done;
  (warmup, List.rev !reps)

(* The determinism gate: every value in [det] must be identical in every
   repetition, since each repetition runs the same seeded inputs from
   fresh state.  A repetition cut short by an exception lacks some
   values; its failure is already counted. *)
let check_determinism reps =
  match reps with
  | [] -> []
  | first :: rest ->
    List.iteri
      (fun i (r : Rep.t) ->
        Hashtbl.iter
          (fun k v ->
            match Hashtbl.find_opt r.Rep.det k with
            | Some v' when v' = v -> ()
            | Some v' -> raise (Nondeterministic { metric = k; first = v; other = v'; rep = i + 1 })
            | None -> ())
          first.Rep.det)
      rest;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) first.Rep.det [] |> List.sort compare

(* End-to-end values a workload recorded as CPU-bound ({!Rep.cpu}) are
   reported at the probe's reference host speed: durations scaled by
   [ref / probe], rates by its inverse.  Everything else is reported as
   measured. *)
let host_scale (r : Rep.t) name =
  if not (Hashtbl.mem r.Rep.cpu name) then 1.
  else
    let f = Probe.ref_ns /. r.Rep.probe_ns in
    if List.assoc_opt name Metrics.end_to_end = Some "insns/s" then 1. /. f else f

let raw_value (r : Rep.t) name =
  if name = "setup_s" then Some (Float.of_int r.Rep.setup_ns /. 1e9)
  else if name = "host.probe_ns" then Some r.Rep.probe_ns
  else
    match Hashtbl.find_opt r.Rep.e2e name with
    | Some v -> Some v
    | None -> Hashtbl.find_opt r.Rep.layer name

let value_of (r : Rep.t) name = Option.map (fun v -> v *. host_scale r name) (raw_value r name)

let median_of reps name =
  Stats.median (List.filter_map (fun r -> value_of r name) reps)

let run wl ~seed ~seconds ~trace =
  let warmup, reps = run_reps wl ~seed ~seconds ~trace in
  let det = check_determinism (warmup :: reps) in
  let plain = List.filter (fun r -> not r.Rep.traced) reps in
  let traced = List.filter (fun r -> r.Rep.traced) reps in
  let metrics =
    if not trace then List.map (fun (n, u) -> (n, u, median_of plain n)) Metrics.end_to_end
    else
      let overhead = String.length "trace_overhead." in
      List.map
        (fun (n, u) ->
          if String.starts_with ~prefix:"trace_overhead." n then
            let e = String.sub n overhead (String.length n - overhead) in
            (n, u, median_of traced e -. median_of plain e)
          else (n, u, median_of traced n))
        Metrics.per_layer
  in
  let counts =
    match reps with
    | [] -> []
    | r :: _ -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) r.Rep.counts [] |> List.sort compare
  in
  let notes =
    match plain with
    | [] -> []
    | r :: _ ->
      Hashtbl.fold (fun k _ acc -> k :: acc) r.Rep.notes []
      |> List.sort compare
      |> List.map (fun k -> (k, Stats.median (List.filter_map (fun r -> Hashtbl.find_opt r.Rep.notes k) plain)))
  in
  let sum f = List.fold_left (fun a r -> a + f r) 0 reps in
  {
    reps;
    metrics;
    counts;
    det;
    notes;
    attempted = sum (fun r -> r.Rep.attempted) + warmup.Rep.attempted;
    failed = sum (fun r -> r.Rep.failed) + warmup.Rep.failed;
    failures = List.concat_map (fun r -> List.rev r.Rep.failures) (warmup :: reps);
  }

(* ---- output ---- *)

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_obj kvs = "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) kvs) ^ "}"

let to_json ~workload ~seed ~seconds ~trace (res : result) =
  json_obj
    [
      ("correct", string_of_bool (res.failed = 0));
      ("attempted", string_of_int res.attempted);
      ("failed", string_of_int res.failed);
      ( "metrics",
        json_obj
          (List.map
             (fun (n, u, v) -> (n, json_obj [ ("value", json_float v); ("unit", json_string u) ]))
             res.metrics) );
      ("samples", json_obj (List.map (fun (k, n) -> (k, string_of_int n)) res.counts));
      ( "unscaled_metrics",
        json_obj
          (List.map
             (fun (n, _) ->
               let plain = List.filter (fun r -> not r.Rep.traced) res.reps in
               (n, json_float (Stats.median (List.filter_map (fun r -> raw_value r n) plain))))
             Metrics.end_to_end) );
      ( "repetitions",
        json_obj
          (List.map
             (fun (n, _) ->
               ( n,
                 "["
                 ^ String.concat ", "
                     (List.map
                        (fun r -> match raw_value r n with Some v -> json_float v | None -> "null")
                        res.reps)
                 ^ "]" ))
             (("host.probe_ns", "ns") :: Metrics.end_to_end)) );
      ("notes", json_obj (List.map (fun (k, v) -> (k, json_float v)) res.notes));
      ("deterministic", json_obj (List.map (fun (k, v) -> (k, string_of_int v)) res.det));
      ("failures", "[" ^ String.concat ", " (List.map json_string res.failures) ^ "]");
      ( "method",
        json_obj
          [
            ("workload", json_string workload);
            ("seed", string_of_int seed);
            ("seconds", json_float seconds);
            ("trace", string_of_bool trace);
            ("repetitions", string_of_int (List.length res.reps));
            ("warmup_repetitions", "1");
            ("traced_repetitions", string_of_int (List.length (List.filter (fun r -> r.Rep.traced) res.reps)));
            ("statistic", json_string "median over repetitions");
            ("ocaml", json_string Sys.ocaml_version);
            ("word_size", string_of_int Sys.word_size);
          ] );
    ]

let print_human ~workload (res : result) =
  Printf.printf "perfbench %s: %d repetitions, %d ops attempted, %d failed (failed_op_ratio %.6g)\n"
    workload (List.length res.reps) res.attempted res.failed
    (if res.attempted = 0 then 0. else Float.of_int res.failed /. Float.of_int res.attempted);
  List.iter (fun f -> Printf.printf "  FAILED: %s\n" f) res.failures;
  List.iter
    (fun (n, u, v) ->
      match List.assoc_opt n res.counts with
      | Some c -> Printf.printf "  %-40s %16.6g %-10s (n=%d per repetition)\n" n v u c
      | None -> Printf.printf "  %-40s %16.6g %s\n" n v u)
    res.metrics;
  List.iter (fun (n, v) -> Printf.printf "  %-40s %16.6g (not gated)\n" n v) res.notes
