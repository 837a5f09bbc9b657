(* Text helpers shared by the report tools and the Chrome trace
   writer. *)

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

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  add_json_escaped b s;
  Buffer.contents b

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
