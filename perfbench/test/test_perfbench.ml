(* Tests of the benchmark's own machinery: span self time, the
   percentile rule, seed determinism of the input generators, and that
   each workload's oracle rejects a deliberately wrong answer. *)

open Perfbench

(* ---- spans ---- *)

let test_self_time_nested () =
  let t = Spans.create () in
  let id n = Spans.name t n in
  let add name start stop parent = Spans.add t ~name:(id name) ~start ~stop ~parent ~op:0 in
  let root = add "bench.main" 0 100 (-1) in
  let a = add "emit.body" 10 40 root in
  let _a1 = add "engine.call" 15 25 a in
  let _b = add "engine.call" 50 70 root in
  (* overlaps its sibling: coverage is the union, not the sum *)
  let _c = add "server.lookup" 60 80 root in
  Alcotest.(check (array int)) "self time per span" [| 40; 20; 10; 20; 20 |] (Spans.self_times t);
  Alcotest.(check (list (pair string int)))
    "self time per layer"
    [ ("bench", 40); ("emit", 20); ("engine", 30); ("server", 20) ]
    (Spans.self_by_layer t)

let test_enter_leave () =
  let t = Spans.create () in
  let outer = Spans.name t "bench.setup" and inner = Spans.name t "asm.assemble" in
  let o = Spans.enter t outer ~op:1 in
  let i = Spans.enter t inner ~op:1 in
  Spans.leave t i;
  Spans.leave t o;
  Alcotest.(check int) "two spans" 2 (Spans.count t);
  let self = Spans.self_times t in
  Alcotest.(check bool) "self times are non-negative" true (self.(0) >= 0 && self.(1) >= 0);
  (* the disabled recorder records nothing *)
  let d = Spans.disabled in
  Spans.leave d (Spans.enter d 0 ~op:0);
  Alcotest.(check int) "disabled" 0 (Spans.count d)

(* ---- the percentile rule ---- *)

let floats n = Array.init n (fun i -> Float.of_int (i + 1))

let refused q n =
  match Stats.percentile ~what:"x" q (floats n) with
  | _ -> false
  | exception Stats.Too_few_samples _ -> true

let test_percentile_rule () =
  Alcotest.(check int) "p99 needs 1000 samples" 1000 (Stats.needed 0.99);
  Alcotest.(check int) "p50 needs 20 samples" 20 (Stats.needed 0.5);
  Alcotest.(check bool) "p99 of 999 refused" true (refused 0.99 999);
  Alcotest.(check bool) "p99 of 1000 reported" false (refused 0.99 1000);
  Alcotest.(check bool) "p50 of 19 refused" true (refused 0.5 19);
  let p = Stats.percentile ~what:"x" 0.5 (floats 1000) in
  Alcotest.(check (float 1e-9)) "median of 1..1000" 500.5 p.Stats.value;
  Alcotest.(check int) "carries its count" 1000 p.Stats.n;
  let e = Stats.percentile ~what:"x" 0.99 [||] in
  Alcotest.(check int) "no samples: not exercised" 0 e.Stats.n

(* ---- seed determinism of the input generators ---- *)

let test_rng () =
  let draw seed = let r = Rng.create seed in List.init 50 (fun _ -> Rng.int r 1000) in
  Alcotest.(check (list int)) "same seed" (draw 5) (draw 5);
  Alcotest.(check bool) "other seed" true (draw 5 <> draw 6)

let test_inputs_deterministic () =
  let same name f =
    Alcotest.(check bool) (name ^ ": same seed, same inputs") true (f 3 = f 3);
    Alcotest.(check bool) (name ^ ": other seed, other inputs") true (f 3 <> f 4)
  in
  same "codegen" (fun s ->
      let i = Codegen.prepare s in
      (i.Codegen.funcs, i.Codegen.samples));
  same "exec" (fun s -> (Exec.prepare s).Exec.ops);
  same "router" (fun s ->
      let i = Router.prepare s in
      (i.Router.keys, i.Router.expect))

(* ---- each workload's oracle rejects a wrong answer ---- *)

(* Run one repetition on a small slice of the inputs.  The slice is too
   small for the percentile rule, which refuses after the checks have
   all been counted. *)
let failures run inp =
  let r = Rep.create ~traced:false in
  (try run r inp with Stats.Too_few_samples _ -> ());
  (r.Rep.attempted, r.Rep.failed)

let check_rejects name run ~good ~bad =
  let attempted, failed = failures run good in
  Alcotest.(check bool) (name ^ ": ops attempted") true (attempted > 0);
  Alcotest.(check int) (name ^ ": correct answers pass") 0 failed;
  let _, failed = failures run bad in
  (* the wrong expectation fails on each of the four tiers *)
  Alcotest.(check int) (name ^ ": a wrong answer is rejected") 4 failed

let test_codegen_oracle () =
  let inp = Codegen.prepare 9 in
  let k = 40 in
  let small =
    {
      Codegen.funcs = Array.sub inp.Codegen.funcs 0 k;
      kit_of = Array.sub inp.Codegen.kit_of 0 k;
      samples =
        Array.of_list
          (List.filter (fun s -> s.Codegen.fn < k) (Array.to_list inp.Codegen.samples));
      sample_of = Array.make k (-1);
    }
  in
  Array.iteri (fun j s -> small.Codegen.sample_of.(s.Codegen.fn) <- j) small.Codegen.samples;
  Alcotest.(check bool) "slice holds a sample" true (Array.length small.Codegen.samples > 0);
  let s0 = small.Codegen.samples.(0) in
  let wrong = Array.copy s0.Codegen.expect in
  wrong.(0) <- wrong.(0) lxor 1;
  let bad_samples = Array.copy small.Codegen.samples in
  bad_samples.(0) <- { s0 with Codegen.expect = wrong };
  check_rejects "codegen" Codegen.run ~good:small ~bad:{ small with Codegen.samples = bad_samples }

let test_exec_oracle () =
  let inp = Exec.prepare 9 in
  let ops = Array.sub inp.Exec.ops 0 6 in
  let bad = Array.copy ops in
  let op0 = ops.(0) in
  let wrong = Array.copy op0.Exec.expect in
  wrong.(0) <- wrong.(0) lxor 1;
  bad.(0) <- { op0 with Exec.expect = wrong };
  check_rejects "exec" Exec.run ~good:{ inp with Exec.ops } ~bad:{ inp with Exec.ops = bad }

let test_router_oracle () =
  let inp = Router.prepare 9 in
  let n = 100 in
  let small = { Router.keys = Array.sub inp.Router.keys 0 n; expect = Array.sub inp.Router.expect 0 n } in
  let wrong = Array.copy small.Router.expect in
  (* a live packet claimed to be a drop *)
  let i = ref 0 in
  while wrong.(!i) = Router.drop do
    incr i
  done;
  wrong.(!i) <- Router.drop;
  check_rejects "router" Router.run ~good:small ~bad:{ small with Router.expect = wrong }

let test_oracles_match_corpus_spec () =
  (* spot values of the plain-OCaml references, fixed once from their
     specifications; a change to an oracle must show up here *)
  Alcotest.(check int) "alu_loop 4" 15 (Oracles.alu_loop 4);
  Alcotest.(check int) "table3 miss" 0xFFFFFFFF (Oracles.table3 ~base:1000 999);
  Alcotest.(check int) "table3 hit" 3 (Oracles.table3 ~base:1000 1003);
  Alcotest.(check int) "checksum folds" 0x0002 (Oracles.checksum [| 0xFFFF0001; 0x00010000 |] 2)

let () =
  Alcotest.run "perfbench"
    [
      ( "spans",
        [
          Alcotest.test_case "self time on nested spans" `Quick test_self_time_nested;
          Alcotest.test_case "enter/leave" `Quick test_enter_leave;
        ] );
      ("stats", [ Alcotest.test_case "percentile rule" `Quick test_percentile_rule ]);
      ( "inputs",
        [
          Alcotest.test_case "rng" `Quick test_rng;
          Alcotest.test_case "seed determinism" `Quick test_inputs_deterministic;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "reference values" `Quick test_oracles_match_corpus_spec;
          Alcotest.test_case "codegen rejects a wrong answer" `Quick test_codegen_oracle;
          Alcotest.test_case "exec rejects a wrong answer" `Quick test_exec_oracle;
          Alcotest.test_case "router rejects a wrong answer" `Quick test_router_oracle;
        ] );
    ]
