(* In-memory span recorder for the traced run.

   A span brackets one call from the benchmark into a layer's public
   function: its name says the layer ("emit.body" belongs to "emit"),
   and it records start, end, the enclosing span and the operation id
   it served.  Storage is a set of growable int arrays, so recording
   allocates nothing on the minor heap; the disabled recorder is a
   single flag test per call.  Spans are written out when the run ends
   and reduced to self time per layer: a span's duration minus the
   part of it covered by its child spans. *)

type t = {
  enabled : bool;
  mutable names : string array; (* interned span names, by id *)
  mutable name_n : int;
  mutable name_id : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable op : int array;
  mutable n : int;
  mutable stack : int array;
  mutable depth : int;
}

let make enabled =
  let cap = if enabled then 1 lsl 16 else 1 in
  {
    enabled;
    names = Array.make 64 "";
    name_n = 0;
    name_id = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap 0;
    op = Array.make cap 0;
    n = 0;
    stack = Array.make 64 0;
    depth = 0;
  }

let create () = make true
let disabled = make false
let count t = t.n

(* intern a span name (cold: call once per name, keep the id) *)
let name t s =
  let rec find i = if i = t.name_n then None else if t.names.(i) = s then Some i else find (i + 1) in
  match find 0 with
  | Some i -> i
  | None ->
    if t.name_n = Array.length t.names then
      t.names <- Array.append t.names (Array.make t.name_n "");
    t.names.(t.name_n) <- s;
    t.name_n <- t.name_n + 1;
    t.name_n - 1

let grow t =
  let cap = 2 * Array.length t.start in
  let g a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.name_id <- g t.name_id;
  t.start <- g t.start;
  t.stop <- g t.stop;
  t.parent <- g t.parent;
  t.op <- g t.op

(* record a finished span with explicit times; [parent] is a span index
   or -1.  Returns the span's index. *)
let add t ~name:id ~start ~stop ~parent ~op =
  if t.n = Array.length t.start then grow t;
  let i = t.n in
  t.name_id.(i) <- id;
  t.start.(i) <- start;
  t.stop.(i) <- stop;
  t.parent.(i) <- parent;
  t.op.(i) <- op;
  t.n <- i + 1;
  i

(* open a span now, as a child of the innermost open span *)
let enter t id ~op =
  if not t.enabled then -1
  else begin
    let parent = if t.depth = 0 then -1 else t.stack.(t.depth - 1) in
    let i = add t ~name:id ~start:(Clock.now_ns ()) ~stop:0 ~parent ~op in
    if t.depth = Array.length t.stack then t.stack <- Array.append t.stack t.stack;
    t.stack.(t.depth) <- i;
    t.depth <- t.depth + 1;
    i
  end

let leave t i =
  if t.enabled then begin
    t.stop.(i) <- Clock.now_ns ();
    t.depth <- t.depth - 1
  end

let layer_of s = match String.index_opt s '.' with Some k -> String.sub s 0 k | None -> s

(* Self time of every span: its duration minus the union of its
   children's intervals clipped to it. *)
let self_times t =
  let n = t.n in
  let kids = Array.make n [] in
  for i = n - 1 downto 0 do
    let p = t.parent.(i) in
    if p >= 0 then kids.(p) <- i :: kids.(p)
  done;
  Array.init n (fun i ->
      let s0 = t.start.(i) and s1 = t.stop.(i) in
      let ivs =
        List.filter_map
          (fun c ->
            let a = max s0 t.start.(c) and b = min s1 t.stop.(c) in
            if b > a then Some (a, b) else None)
          kids.(i)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if b > a then (acc + (b - a), b) else (acc, reach))
          (0, min_int) ivs
      in
      s1 - s0 - covered)

(* self nanoseconds summed per layer, in first-seen order *)
let self_by_layer t =
  let self = self_times t in
  let tbl = Hashtbl.create 16 and order = ref [] in
  for i = 0 to t.n - 1 do
    let l = layer_of t.names.(t.name_id.(i)) in
    match Hashtbl.find_opt tbl l with
    | Some v -> Hashtbl.replace tbl l (v + self.(i))
    | None ->
      order := l :: !order;
      Hashtbl.add tbl l self.(i)
  done;
  List.rev_map (fun l -> (l, Hashtbl.find tbl l)) !order

(* Perfetto/Chrome trace export of the first [limit] spans: one "X"
   event per span, microsecond timestamps relative to the first span,
   with the op id and parent index as args *)
let write_chrome t ~limit ~meta path =
  let b = Buffer.create (1 lsl 20) in
  let w = Chrome_trace.start b ~tool:"perfbench" ~schema:1 ~meta ~meta_ints:[ ("spans", t.n) ] in
  let t0 = if t.n > 0 then t.start.(0) else 0 in
  for i = 0 to min t.n limit - 1 do
    Chrome_trace.complete w ~name:t.names.(t.name_id.(i))
      ~ts:((t.start.(i) - t0) / 1000)
      ~dur:(max 1 ((t.stop.(i) - t.start.(i)) / 1000))
      ~tid:1
      ~args:(Printf.sprintf "{\"op\": %d, \"parent\": %d}" t.op.(i) t.parent.(i))
      ()
  done;
  Chrome_trace.finish w;
  let oc = open_out_bin path in
  Buffer.output_buffer oc b;
  close_out oc
