(* perfbench: the repository's benchmark.

     perfbench --workload codegen|exec|router --seed N --seconds S --trace 0|1
               [--trace-out FILE]

   Runs one seeded, fixed-work workload for S seconds in this process and
   prints every metric by name with its unit, then, as the last line,
   one JSON object with the metrics, their sample counts, the values the
   determinism gate pinned and the method.  Exit codes: 0 done (the JSON
   says whether every output was correct), 2 usage, 3 a deterministic
   value differed between same-seed repetitions, 4 a percentile had too
   few samples to report. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: perfbench --workload codegen|exec|router --seed N --seconds S --trace 0|1 [--trace-out FILE]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let trace_out = ref "" in
  let rec parse = function
    | "--workload" :: v :: rest ->
      workload := v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      if !seed = None then usage ();
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string_opt v;
      if !seconds = None then usage ();
      parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
      trace := Some (v = "1");
      parse rest
    | "--trace-out" :: v :: rest ->
      trace_out := v;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (Runner.find !workload, !seed, !seconds, !trace) with
  | Some wl, Some seed, Some seconds, Some trace -> (
    match Runner.run wl ~seed ~seconds ~trace with
    | res ->
      Runner.print_human ~workload:!workload res;
      (if trace && !trace_out <> "" then
         match List.rev (List.filter (fun r -> r.Rep.traced) res.Runner.reps) with
         | r :: _ ->
           Spans.write_chrome r.Rep.spans ~limit:200_000
             ~meta:[ ("workload", !workload); ("seed", string_of_int seed) ]
             !trace_out
         | [] -> ());
      print_endline (Runner.to_json ~workload:!workload ~seed ~seconds ~trace res)
    | exception Runner.Nondeterministic { metric; first; other; rep } ->
      Printf.eprintf
        "perfbench: determinism gate: %s was %d in repetition 0 but %d in repetition %d of the same seed\n"
        metric first other rep;
      exit 3
    | exception (Stats.Too_few_samples _ as e) ->
      prerr_endline ("perfbench: " ^ Printexc.to_string e);
      exit 4)
  | _ -> usage ()
