(* MIPS-I simulator.

   Executes the binary code emitted by the VCODE MIPS port.  This is the
   execution substrate that replaces the paper's DECstation hardware: a
   little-endian R2000/R3000-style core with one branch delay slot, one
   load delay cycle, HI/LO multiply/divide results, 32 single-precision
   FP registers paired for doubles, and direct-mapped I/D caches with
   configurable miss penalties (see {!Vmachine.Mconfig}).

   Register values are OCaml ints holding sign-extended 32-bit values;
   every write goes through [sext32] so the invariant is maintained.
   Cycle accounting: 1 cycle per issued instruction, plus cache miss
   penalties, plus multi-cycle costs for mult/div and FP ops (rough R3000
   latencies).

   This file holds the ISA only; the execution tiers are
   {!Vmachine.Engine}'s, in its delay-slot shape. *)

open Vmachine
include Engine.Core

type insn = Mips_asm.t

type arch = {
  regs : int array;   (* 32, sign-extended 32-bit *)
  fregs : int array;  (* 32, raw 32-bit patterns; doubles use even pairs *)
  mutable hi : int;
  mutable lo : int;
  mutable fcc : bool;
  mutable stack_top : int;
}

type t = (insn, arch) machine

(* branchless sign-extension from bit 31 (OCaml ints are 63-bit, so the
   shift pair drops bits 32+ and replicates bit 31 upward) *)
let[@inline] sext32 v = (v lsl 31) asr 31

let u32 v = v land 0xFFFFFFFF

(* register numbers come out of [Mips_asm.decode] masked to 5 bits, so
   the array bounds check is dead weight on the per-step path *)
let[@inline] set_reg st r v = if r <> 0 then Array.unsafe_set st.regs r (sext32 v)
let[@inline] rget st n = Array.unsafe_get st.regs n

(* Doubles live in even/odd pairs, low word in the even register
   (little-endian pairing). *)
let get_double st f =
  let lo = st.fregs.(f) land 0xFFFFFFFF and hi = st.fregs.(f + 1) land 0xFFFFFFFF in
  Int64.float_of_bits
    (Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32))

let set_double st f v =
  let bits = Int64.bits_of_float v in
  st.fregs.(f) <- Int64.to_int (Int64.logand bits 0xFFFFFFFFL);
  st.fregs.(f + 1) <- Int64.to_int (Int64.logand (Int64.shift_right_logical bits 32) 0xFFFFFFFFL)

let get_single st f = Int32.float_of_bits (Int32.of_int st.fregs.(f))
let set_single st f v = st.fregs.(f) <- Int32.to_int (Int32.bits_of_float v) land 0xFFFFFFFF

let get_fmt st fmt f =
  match fmt with
  | Mips_asm.FS -> get_single st f
  | Mips_asm.FD -> get_double st f
  | Mips_asm.FW -> float_of_int (sext32 st.fregs.(f))

let set_fmt st fmt f v =
  match fmt with
  | Mips_asm.FS -> set_single st f v
  | Mips_asm.FD -> set_double st f v
  | Mips_asm.FW -> st.fregs.(f) <- u32 (int_of_float v)

let[@inline] daccess m addr =
  let p = Cache.access m.dcache addr in
  if p <> 0 then m.cycles <- m.cycles + p
(* write-through: always 0 penalty, but the hit/miss stats must tick *)
let[@inline] waccess m addr = ignore (Cache.write_access m.dcache addr : int)

(* the target of [j]/[jal] at [pc]: a word index within the 256MB
   region of the delay slot *)
let jump_target pc t = (u32 (pc + 4) land 0xF0000000) lor (t * 4)

(* ------------------------------------------------------------------ *)
(* The instruction semantics: [sem m pc ft insn] is the closure that
   executes [insn] at [pc] on every tier of {!Vmachine.Engine}.  A
   control transfer leaves its target in [m.btarget], or [ft] when an
   untaken branch falls through; the delay slot runs next and the
   engine moves btarget into pc.  Store closures test the block cache's
   dirty flag after writing: a store that invalidated a resident block —
   possibly the very one running — aborts the rest of the run with
   [Block_cache.Retired]. *)
let sem (m : t) pc ft (insn : insn) : unit -> unit =
  let st = m.arch in
  match insn with
  | Nop -> fun () -> ()
  | Sll (rd, rt, sh) -> fun () -> set_reg st rd (rget st rt lsl sh)
  | Srl (rd, rt, sh) -> fun () -> set_reg st rd (u32 (rget st rt) lsr sh)
  | Sra (rd, rt, sh) -> fun () -> set_reg st rd (rget st rt asr sh)
  | Sllv (rd, rt, rs) -> fun () -> set_reg st rd (rget st rt lsl (rget st rs land 31))
  | Srlv (rd, rt, rs) -> fun () -> set_reg st rd (u32 (rget st rt) lsr (rget st rs land 31))
  | Srav (rd, rt, rs) -> fun () -> set_reg st rd (rget st rt asr (rget st rs land 31))
  | Mfhi rd -> fun () -> set_reg st rd st.hi
  | Mflo rd -> fun () -> set_reg st rd st.lo
  | Mult (rs, rt) ->
    fun () ->
      m.cycles <- m.cycles + 11;
      let p = Int64.mul (Int64.of_int (rget st rs)) (Int64.of_int (rget st rt)) in
      st.lo <- sext32 (Int64.to_int (Int64.logand p 0xFFFFFFFFL));
      st.hi <- sext32 (Int64.to_int (Int64.logand (Int64.shift_right_logical p 32) 0xFFFFFFFFL))
  | Multu (rs, rt) ->
    fun () ->
      m.cycles <- m.cycles + 11;
      let p = Int64.mul (Int64.of_int (u32 (rget st rs))) (Int64.of_int (u32 (rget st rt))) in
      st.lo <- sext32 (Int64.to_int (Int64.logand p 0xFFFFFFFFL));
      st.hi <- sext32 (Int64.to_int (Int64.logand (Int64.shift_right_logical p 32) 0xFFFFFFFFL))
  | Div (rs, rt) ->
    fun () ->
      m.cycles <- m.cycles + 34;
      let a = rget st rs and b = rget st rt in
      if b = 0 then begin st.lo <- 0; st.hi <- 0 end
      else begin
        (* C-style truncating division *)
        let q = if (a < 0) <> (b < 0) then -(abs a / abs b) else abs a / abs b in
        let rm = a - (q * b) in
        st.lo <- sext32 q;
        st.hi <- sext32 rm
      end
  | Divu (rs, rt) ->
    fun () ->
      m.cycles <- m.cycles + 34;
      let a = u32 (rget st rs) and b = u32 (rget st rt) in
      if b = 0 then begin st.lo <- 0; st.hi <- 0 end
      else begin
        st.lo <- sext32 (a / b);
        st.hi <- sext32 (a mod b)
      end
  | Addu (rd, rs, rt) -> fun () -> set_reg st rd (rget st rs + rget st rt)
  | Subu (rd, rs, rt) -> fun () -> set_reg st rd (rget st rs - rget st rt)
  | And (rd, rs, rt) -> fun () -> set_reg st rd (rget st rs land rget st rt)
  | Or (rd, rs, rt) -> fun () -> set_reg st rd (rget st rs lor rget st rt)
  | Xor (rd, rs, rt) -> fun () -> set_reg st rd (rget st rs lxor rget st rt)
  | Nor (rd, rs, rt) -> fun () -> set_reg st rd (lnot (rget st rs lor rget st rt))
  | Slt (rd, rs, rt) -> fun () -> set_reg st rd (if rget st rs < rget st rt then 1 else 0)
  | Sltu (rd, rs, rt) ->
    fun () -> set_reg st rd (if u32 (rget st rs) < u32 (rget st rt) then 1 else 0)
  | Addiu (rt, rs, i) -> fun () -> set_reg st rt (rget st rs + i)
  | Slti (rt, rs, i) -> fun () -> set_reg st rt (if rget st rs < i then 1 else 0)
  | Sltiu (rt, rs, i) ->
    fun () -> set_reg st rt (if u32 (rget st rs) < u32 (sext32 i) then 1 else 0)
  | Andi (rt, rs, i) -> fun () -> set_reg st rt (rget st rs land i)
  | Ori (rt, rs, i) -> fun () -> set_reg st rt (rget st rs lor i)
  | Xori (rt, rs, i) -> fun () -> set_reg st rt (rget st rs lxor i)
  | Lui (rt, i) -> fun () -> set_reg st rt (i lsl 16)
  | Jr rs -> fun () -> m.btarget <- u32 (rget st rs)
  | Jalr (rd, rs) ->
    fun () ->
      set_reg st rd (pc + 8);
      m.btarget <- u32 (rget st rs)
  | J t ->
    let tgt = jump_target pc t in
    fun () -> m.btarget <- tgt
  | Jal t ->
    let tgt = jump_target pc t in
    fun () ->
      set_reg st 31 (pc + 8);
      m.btarget <- tgt
  | Beq (rs, rt, off) ->
    let tk = pc + 4 + (4 * off) in
    fun () -> m.btarget <- (if rget st rs = rget st rt then tk else ft)
  | Bne (rs, rt, off) ->
    let tk = pc + 4 + (4 * off) in
    fun () -> m.btarget <- (if rget st rs <> rget st rt then tk else ft)
  | Blez (rs, off) ->
    let tk = pc + 4 + (4 * off) in
    fun () -> m.btarget <- (if rget st rs <= 0 then tk else ft)
  | Bgtz (rs, off) ->
    let tk = pc + 4 + (4 * off) in
    fun () -> m.btarget <- (if rget st rs > 0 then tk else ft)
  | Bltz (rs, off) ->
    let tk = pc + 4 + (4 * off) in
    fun () -> m.btarget <- (if rget st rs < 0 then tk else ft)
  | Bgez (rs, off) ->
    let tk = pc + 4 + (4 * off) in
    fun () -> m.btarget <- (if rget st rs >= 0 then tk else ft)
  | Bc1t off ->
    let tk = pc + 4 + (4 * off) in
    fun () -> m.btarget <- (if st.fcc then tk else ft)
  | Bc1f off ->
    let tk = pc + 4 + (4 * off) in
    fun () -> m.btarget <- (if not st.fcc then tk else ft)
  | Lb (rt, b, o) ->
    fun () ->
      let a = u32 (rget st b) + o in
      daccess m a;
      let v = Mem.read_u8 m.mem a in
      set_reg st rt (if v land 0x80 <> 0 then v - 0x100 else v)
  | Lbu (rt, b, o) ->
    fun () ->
      let a = u32 (rget st b) + o in
      daccess m a;
      set_reg st rt (Mem.read_u8 m.mem a)
  | Lh (rt, b, o) ->
    fun () ->
      let a = u32 (rget st b) + o in
      daccess m a;
      let v = Mem.read_u16 m.mem a in
      set_reg st rt (if v land 0x8000 <> 0 then v - 0x10000 else v)
  | Lhu (rt, b, o) ->
    fun () ->
      let a = u32 (rget st b) + o in
      daccess m a;
      set_reg st rt (Mem.read_u16 m.mem a)
  | Lw (rt, b, o) ->
    fun () ->
      let a = u32 (rget st b) + o in
      daccess m a;
      set_reg st rt (Mem.read_u32 m.mem a)
  | Sb (rt, b, o) ->
    fun () ->
      let a = u32 (rget st b) + o in
      waccess m a;
      Mem.write_u8 m.mem a (rget st rt);
      if Block_cache.dirty m.bc then raise Block_cache.Retired
  | Sh (rt, b, o) ->
    fun () ->
      let a = u32 (rget st b) + o in
      waccess m a;
      Mem.write_u16 m.mem a (rget st rt);
      if Block_cache.dirty m.bc then raise Block_cache.Retired
  | Sw (rt, b, o) ->
    fun () ->
      let a = u32 (rget st b) + o in
      waccess m a;
      Mem.write_u32 m.mem a (u32 (rget st rt));
      if Block_cache.dirty m.bc then raise Block_cache.Retired
  | Lwc1 (ft, b, o) ->
    fun () ->
      let a = u32 (rget st b) + o in
      daccess m a;
      st.fregs.(ft) <- Mem.read_u32 m.mem a
  | Swc1 (ft, b, o) ->
    fun () ->
      let a = u32 (rget st b) + o in
      waccess m a;
      Mem.write_u32 m.mem a st.fregs.(ft);
      if Block_cache.dirty m.bc then raise Block_cache.Retired
  | Ldc1 (ft, b, o) ->
    fun () ->
      let a = u32 (rget st b) + o in
      daccess m a;
      st.fregs.(ft) <- Mem.read_u32 m.mem a;
      st.fregs.(ft + 1) <- Mem.read_u32 m.mem (a + 4)
  | Sdc1 (ft, b, o) ->
    fun () ->
      let a = u32 (rget st b) + o in
      waccess m a;
      Mem.write_u32 m.mem a st.fregs.(ft);
      Mem.write_u32 m.mem (a + 4) st.fregs.(ft + 1);
      if Block_cache.dirty m.bc then raise Block_cache.Retired
  | Mtc1 (rt, fs) -> fun () -> st.fregs.(fs) <- u32 (rget st rt)
  | Mfc1 (rt, fs) -> fun () -> set_reg st rt st.fregs.(fs)
  | Fadd (fmt, fd, fs, ft) ->
    fun () ->
      m.cycles <- m.cycles + 1;
      set_fmt st fmt fd (get_fmt st fmt fs +. get_fmt st fmt ft)
  | Fsub (fmt, fd, fs, ft) ->
    fun () ->
      m.cycles <- m.cycles + 1;
      set_fmt st fmt fd (get_fmt st fmt fs -. get_fmt st fmt ft)
  | Fmul (fmt, fd, fs, ft) ->
    let c = match fmt with FS -> 3 | _ -> 4 in
    fun () ->
      m.cycles <- m.cycles + c;
      set_fmt st fmt fd (get_fmt st fmt fs *. get_fmt st fmt ft)
  | Fdiv (fmt, fd, fs, ft) ->
    let c = match fmt with FS -> 11 | _ -> 18 in
    fun () ->
      m.cycles <- m.cycles + c;
      set_fmt st fmt fd (get_fmt st fmt fs /. get_fmt st fmt ft)
  | Fsqrt (fmt, fd, fs) ->
    let c = match fmt with FS -> 13 | _ -> 25 in
    fun () ->
      m.cycles <- m.cycles + c;
      set_fmt st fmt fd (sqrt (get_fmt st fmt fs))
  | Fabs (fmt, fd, fs) -> fun () -> set_fmt st fmt fd (abs_float (get_fmt st fmt fs))
  | Fmov ((FS | FW), fd, fs) -> fun () -> st.fregs.(fd) <- st.fregs.(fs)
  | Fmov (FD, fd, fs) ->
    fun () ->
      st.fregs.(fd) <- st.fregs.(fs);
      st.fregs.(fd + 1) <- st.fregs.(fs + 1)
  | Fneg (fmt, fd, fs) -> fun () -> set_fmt st fmt fd (-.get_fmt st fmt fs)
  | Truncw (fmt, fd, fs) ->
    fun () -> st.fregs.(fd) <- u32 (int_of_float (Float.trunc (get_fmt st fmt fs)))
  | Cvt (to_, from, fd, fs) -> fun () -> set_fmt st to_ fd (get_fmt st from fs)
  | Fcmp (CEq, fmt, fs, ft) -> fun () -> st.fcc <- get_fmt st fmt fs = get_fmt st fmt ft
  | Fcmp (CLt, fmt, fs, ft) -> fun () -> st.fcc <- get_fmt st fmt fs < get_fmt st fmt ft
  | Fcmp (CLe, fmt, fs, ft) -> fun () -> st.fcc <- get_fmt st fmt fs <= get_fmt st fmt ft
  | Break code -> fun () -> raise (Machine_error (Printf.sprintf "break %d at 0x%x" code pc))

(* Break is a trap: blocks stop before it and the interpreter raises *)
let kind : insn -> Engine.kind = function
  | Jr _ | Jalr _ | J _ | Jal _ | Beq _ | Bne _ | Blez _ | Bgtz _ | Bltz _ | Bgez _
  | Bc1t _ | Bc1f _ -> Term
  | Break _ -> Trap
  | _ -> Body

(* Only closures for these instructions can raise: a memory fault from
   a load/store, or [Block_cache.Retired] from a store that invalidated
   a resident block.  Everything else is pure OCaml arithmetic that
   cannot raise (the division arms are zero-guarded), and MIPS
   terminators only write [m.btarget], so the per-instruction
   [m.blk_i] bookkeeping is baked in at compile time for can-raise
   instructions alone and elided everywhere else. *)
let act_raises (insn : insn) : bool =
  match insn with
  | Lb _ | Lbu _ | Lh _ | Lhu _ | Lw _ | Sb _ | Sh _ | Sw _
  | Lwc1 _ | Swc1 _ | Ldc1 _ | Sdc1 _ -> true
  | _ -> false

include Engine.Make (struct
  type nonrec insn = insn
  type nonrec arch = arch

  let port = "mips"
  let big_endian = false
  let delay = true

  let init (cfg : Mconfig.t) _ =
    { regs = Array.make 32 0; fregs = Array.make 32 0; hi = 0; lo = 0; fcc = false;
      stack_top = cfg.mem_bytes - 256 }

  exception Bad_insn = Mips_asm.Bad_insn

  let decode = Mips_asm.decode
  let sem = sem
  let kind = kind
  let act_raises = act_raises
  let term_raises = false

  let static_target tpc : insn -> int option = function
    | J t | Jal t -> Some (jump_target tpc t)
    | _ -> None

  let is_nop : insn -> bool = function Nop -> true | _ -> false
end)

(* ------------------------------------------------------------------ *)
(* The simplified O32-like argument convention shared with the backend:
   each argument consumes one slot (doubles two, even-aligned); the first
   four slots of integer-class args go in $a0..$a3; the first two FP args
   go in $f12/$f14 (if their slot < 4); everything else is on the stack
   at [16 + 4*slot] above the entry $sp. *)
type arg = Int of int | Single of float | Double of float

(* allocation-free: plain recursion over the list with slot/fargs as
   accumulators, so a hot caller (the throughput bench) pays no per-call
   ref cells or iteration closure *)
let rec place_rest m sp args slot fargs =
  match args with
  | [] -> ()
  | Int v :: rest ->
    if slot < 4 then set_reg m.arch (4 + slot) v
    else Mem.write_u32 m.mem (sp + 16 + (4 * slot)) (u32 v);
    place_rest m sp rest (slot + 1) fargs
  | Single v :: rest ->
    if fargs < 2 && slot < 4 then set_single m.arch (12 + (2 * fargs)) v
    else
      Mem.write_u32 m.mem
        (sp + 16 + (4 * slot))
        (Int32.to_int (Int32.bits_of_float v) land 0xFFFFFFFF);
    place_rest m sp rest (slot + 1) (fargs + 1)
  | Double v :: rest ->
    let slot = slot + (slot land 1) in
    if fargs < 2 && slot < 4 then set_double m.arch (12 + (2 * fargs)) v
    else Mem.write_u64 m.mem (sp + 16 + (4 * slot)) (Int64.bits_of_float v);
    place_rest m sp rest (slot + 2) (fargs + 1)

let place_args (m : t) ~sp args = place_rest m sp args 0 0

(* Call the generated function at [entry] with [args]; returns after the
   function executes its epilogue (jr $ra to the halt address). *)
let call ?fuel (m : t) ~entry args =
  let st = m.arch in
  let sp = st.stack_top land lnot 7 in
  st.regs.(Mips_asm.sp) <- sp;
  st.regs.(Mips_asm.ra) <- halt_addr;
  place_args m ~sp args;
  m.pc <- entry;
  m.npc <- entry + 4;
  run ?fuel m

let ret_int (m : t) = m.arch.regs.(Mips_asm.v0)
let ret_single (m : t) = get_single m.arch 0
let ret_double (m : t) = get_double m.arch 0

let call_ints ?fuel m ~entry vals =
  call ?fuel m ~entry (List.map (fun v -> Int v) vals);
  ret_int m
