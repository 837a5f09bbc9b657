(* Byte-addressable simulated memory.

   One flat region starting at address 0; both endiannesses supported so
   the same substrate serves the little-endian DECstation MIPS and Alpha
   simulators and the big-endian SPARC simulator.  All multi-byte
   accessors take naturally aligned addresses; misalignment raises
   [Fault], which the simulators surface as a machine check — the same
   discipline the paper's targets enforce in hardware. *)

exception Fault of string

type t = {
  data : Bytes.t;
  size : int;
  big_endian : bool;
  mutable on_write : int -> int -> unit;
      (* called as [f addr len] after every mutation of [data]; the
         shared no-op until a watcher is set *)
}

let ignore_write _ _ = ()

let create ?(big_endian = false) ~size () =
  { data = Bytes.make size '\000'; size; big_endian; on_write = ignore_write }

let size t = t.size
let big_endian t = t.big_endian
let set_write_watcher t f = t.on_write <- f
let watcher_count t = if t.on_write == ignore_write then 0 else 1

(* Fault construction lives out of line so the bounds checks inlined
   into the simulators' load/store path stay a couple of compares. *)
let[@inline never] bounds_fail t addr len what =
  raise
    (Fault
       (Printf.sprintf "%s of %d bytes at 0x%x out of bounds (mem size 0x%x)" what len addr
          t.size))

let[@inline never] misalign_fail addr what =
  raise (Fault (Printf.sprintf "misaligned %s at 0x%x" what addr))

(* bounds check for bulk operations; a zero-length operation is a no-op
   permitted anywhere in [0, size] *)
let check_bounds t addr len what =
  if len < 0 then
    raise (Fault (Printf.sprintf "%s at 0x%x with negative length %d" what addr len));
  if addr < 0 || addr + len > t.size then bounds_fail t addr len what

(* scalar accesses additionally require natural alignment; [len] is a
   compile-time constant at every call site *)
let[@inline] check t addr len what =
  if addr < 0 || addr + len > t.size then bounds_fail t addr len what;
  if len > 1 && addr land (len - 1) <> 0 then misalign_fail addr what

let[@inline] read_u8 t addr =
  check t addr 1 "load8";
  Char.code (Bytes.unsafe_get t.data addr)

let write_u8 t addr v =
  check t addr 1 "store8";
  Bytes.unsafe_set t.data addr (Char.unsafe_chr (v land 0xff));
  t.on_write addr 1

let[@inline] read_u16 t addr =
  check t addr 2 "load16";
  let b0 = Char.code (Bytes.unsafe_get t.data addr) in
  let b1 = Char.code (Bytes.unsafe_get t.data (addr + 1)) in
  if t.big_endian then (b0 lsl 8) lor b1 else (b1 lsl 8) lor b0

let write_u16 t addr v =
  check t addr 2 "store16";
  let lo = v land 0xff and hi = (v lsr 8) land 0xff in
  if t.big_endian then begin
    Bytes.unsafe_set t.data addr (Char.unsafe_chr hi);
    Bytes.unsafe_set t.data (addr + 1) (Char.unsafe_chr lo)
  end
  else begin
    Bytes.unsafe_set t.data addr (Char.unsafe_chr lo);
    Bytes.unsafe_set t.data (addr + 1) (Char.unsafe_chr hi)
  end;
  t.on_write addr 2

let[@inline] read_u32 t addr =
  check t addr 4 "load32";
  let b i = Char.code (Bytes.unsafe_get t.data (addr + i)) in
  if t.big_endian then (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3
  else (b 3 lsl 24) lor (b 2 lsl 16) lor (b 1 lsl 8) lor b 0

let write_u32 t addr v =
  check t addr 4 "store32";
  let set i x = Bytes.unsafe_set t.data (addr + i) (Char.unsafe_chr (x land 0xff)) in
  if t.big_endian then begin
    set 0 (v lsr 24); set 1 (v lsr 16); set 2 (v lsr 8); set 3 v
  end
  else begin
    set 0 v; set 1 (v lsr 8); set 2 (v lsr 16); set 3 (v lsr 24)
  end;
  t.on_write addr 4

let read_u64 t addr : int64 =
  check t addr 8 "load64";
  let lo, hi =
    if t.big_endian then (read_u32 t (addr + 4), read_u32 t addr)
    else (read_u32 t addr, read_u32 t (addr + 4))
  in
  Int64.logor (Int64.of_int lo |> Int64.logand 0xFFFFFFFFL)
    (Int64.shift_left (Int64.of_int hi) 32)

let write_u64 t addr (v : int64) =
  check t addr 8 "store64";
  let lo = Int64.to_int (Int64.logand v 0xFFFFFFFFL) in
  let hi = Int64.to_int (Int64.logand (Int64.shift_right_logical v 32) 0xFFFFFFFFL) in
  if t.big_endian then begin
    write_u32 t addr hi;
    write_u32 t (addr + 4) lo
  end
  else begin
    write_u32 t addr lo;
    write_u32 t (addr + 4) hi
  end

(* Bulk helpers used by workload setup.  All are bounds-checked against
   the true operation length; zero-length operations are no-ops. *)
let blit_string t ~addr s =
  let len = String.length s in
  check_bounds t addr len "blit_string";
  if len > 0 then begin
    Bytes.blit_string s 0 t.data addr len;
    t.on_write addr len
  end

let blit_bytes t ~addr b =
  let len = Bytes.length b in
  check_bounds t addr len "blit_bytes";
  if len > 0 then begin
    Bytes.blit b 0 t.data addr len;
    t.on_write addr len
  end

let read_string t ~addr ~len =
  check_bounds t addr len "read_string";
  Bytes.sub_string t.data addr len

let fill t ~addr ~len c =
  check_bounds t addr len "fill";
  if len > 0 then begin
    Bytes.fill t.data addr len c;
    t.on_write addr len
  end

(* Load a code buffer at [addr], honoring this memory's endianness. *)
let install_code t ~addr (buf : Vcodebase.Codebuf.t) =
  let len = 4 * Vcodebase.Codebuf.length buf in
  check_bounds t addr len "install_code";
  if addr land 3 <> 0 then raise (Fault (Printf.sprintf "misaligned install_code at 0x%x" addr));
  if len > 0 then begin
    Vcodebase.Codebuf.blit_to_bytes buf ~big_endian:t.big_endian t.data addr;
    t.on_write addr len
  end
