(* The one JSON document writer behind vprof --json and bench --json,
   the shared output-file helper, and the text helpers the report and
   the Chrome trace writer share. *)

module Tel = Vmachine.Telemetry

let add_json_escaped b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

type json =
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

(* Nested containers of at most eight scalars (a dist summary, a
   tenant row) print on one line; the document itself and anything
   larger or nested print one member per line, so a document diffs
   line by line. *)
let inline_max = 8

let rec add_json b ~indent v =
  let str s =
    Buffer.add_char b '"';
    add_json_escaped b s;
    Buffer.add_char b '"'
  in
  let container opn cls items =
    let scalar = function _, (List _ | Obj _) -> false | _ -> true in
    let one (k, v) =
      Option.iter (fun k -> str k; Buffer.add_string b ": ") k;
      add_json b ~indent:(indent + 2) v
    in
    if items = [] then (Buffer.add_char b opn; Buffer.add_char b cls)
    else if indent > 0 && List.length items <= inline_max && List.for_all scalar items then begin
      Buffer.add_string b (if opn = '{' then "{ " else "[");
      List.iteri (fun i it -> if i > 0 then Buffer.add_string b ", "; one it) items;
      Buffer.add_string b (if cls = '}' then " }" else "]")
    end
    else begin
      let pad = String.make (indent + 2) ' ' in
      Buffer.add_char b opn;
      List.iteri
        (fun i it ->
          Buffer.add_string b (if i > 0 then ",\n" else "\n");
          Buffer.add_string b pad;
          one it)
        items;
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make indent ' ');
      Buffer.add_char b cls
    end
  in
  match v with
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f when Float.is_finite f -> Buffer.add_string b (Printf.sprintf "%.6g" f)
  | Float _ -> Buffer.add_string b "null"
  | String s -> str s
  | List vs -> container '[' ']' (List.map (fun v -> (None, v)) vs)
  | Obj kvs -> container '{' '}' (List.map (fun (k, v) -> (Some k, v)) kvs)

type output = { tool : string; path : string; oc : out_channel }

let cannot_write ~tool path reason =
  (* Sys_error messages usually lead with the path already *)
  let pre = String.length path + 2 in
  let reason =
    if String.starts_with ~prefix:(path ^ ": ") reason then
      String.sub reason pre (String.length reason - pre)
    else reason
  in
  Printf.eprintf "%s: cannot write %s: %s\n" tool path reason;
  exit 1

let open_output ~tool ?(binary = false) path =
  try { tool; path; oc = (if binary then open_out_bin else open_out) path }
  with Sys_error reason -> cannot_write ~tool path reason

let write_output { tool; path; oc } f =
  try
    f oc;
    close_out oc
  with Sys_error reason ->
    close_out_noerr oc;
    cannot_write ~tool path reason

let write_json o v =
  let b = Buffer.create 4096 in
  add_json b ~indent:0 v;
  Buffer.add_char b '\n';
  write_output o (fun oc -> Buffer.output_buffer oc b)

let percentiles (st : Tel.dist_stats) =
  List.map (Tel.quantile_of_stats st) [ 0.5; 0.9; 0.99; 0.999 ]

let collect iter tel =
  let acc = ref [] in
  iter tel (fun name v -> acc := (name, v) :: !acc);
  List.rev !acc

let telemetry_fields tel =
  let ints kvs = Obj (List.map (fun (k, v) -> (k, Int v)) kvs) in
  let dist (k, (st : Tel.dist_stats)) =
    ( k,
      ints
        ([ ("count", st.Tel.count); ("sum", st.Tel.sum); ("min", st.Tel.min); ("max", st.Tel.max) ]
        @ List.combine [ "p50"; "p90"; "p99"; "p999" ] (percentiles st)) )
  in
  [
    ("counters", ints (collect Tel.iter_counters tel));
    ("dists", Obj (List.map dist (collect Tel.iter_dists tel)));
    ("events_seen", Int (Tel.events_seen tel));
  ]

let spark (st : Tel.dist_stats) =
  let b = st.Tel.buckets in
  let lo = ref (-1) and hi = ref (-1) and peak = ref 0 in
  Array.iteri
    (fun i n ->
      if n > 0 then begin
        if !lo < 0 then lo := i;
        hi := i;
        if n > !peak then peak := n
      end)
    b;
  if !lo < 0 then ""
  else begin
    let glyphs = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
                    "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |] in
    let buf = Buffer.create 64 in
    Buffer.add_string buf (Printf.sprintf "[2^%d..2^%d] " !lo (!hi + 1));
    for i = !lo to !hi do
      if b.(i) = 0 then Buffer.add_char buf ' '
      else Buffer.add_string buf glyphs.(((b.(i) * 7) + !peak - 1) / !peak)
    done;
    Buffer.contents buf
  end
