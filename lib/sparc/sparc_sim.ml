(* SPARC-V8 simulator.

   Big-endian core with register windows (NWINDOWS = 8), one branch
   delay slot, integer condition codes, the Y register for the 64-bit
   multiply/divide results, and paired FP registers (doubles in
   even/odd pairs, most-significant word in the even register).

   Window model: window [w] owns 16 registers (8 locals + 8 ins); the
   outs of window [w] are the ins of window [w-1] (save decrements the
   current window pointer).  Overflow/underflow traps are not modeled —
   call depth beyond NWINDOWS-1 is a machine error, which the VCODE
   experiments never approach (the paper's SPARC port runs under the
   same restriction in practice since trap handling lives in the OS).

   This file holds the ISA only; the execution tiers are
   {!Vmachine.Engine}'s, in its delay-slot shape. *)

open Vmachine
include Engine.Core

let nwindows = 8

type insn = Sparc_asm.t

type arch = {
  globals : int array;              (* g0-g7; g0 pinned to 0 *)
  wins : int array;                 (* nwindows * 16: locals + ins *)
  mutable cwp : int;
  mutable depth : int;              (* save depth, for overflow checking *)
  fregs : int array;                (* 32 x 32-bit patterns *)
  mutable y : int;
  mutable icc_n : bool;
  mutable icc_z : bool;
  mutable icc_v : bool;
  mutable icc_c : bool;
  mutable fcc : int;                (* 0 =, 1 <, 2 > *)
  mutable stack_top : int;
}

type t = (insn, arch) machine

(* branchless sign-extension from bit 31 (OCaml ints are 63-bit, so the
   shift pair drops bits 32+ and replicates bit 31 upward) *)
let[@inline] sext32 v = (v lsl 31) asr 31

let u32 v = v land 0xFFFFFFFF

(* window-relative register access: outs of window w live as ins of
   window (w-1) mod nwindows *)
let win_slot st r =
  if r < 16 then (* outs *) ((st.cwp - 1 + nwindows) mod nwindows * 16) + 8 + (r - 8)
  else if r < 24 then (st.cwp * 16) + (r - 16) (* locals *)
  else (st.cwp * 16) + 8 + (r - 24) (* ins *)

let get_reg st r =
  if r = 0 then 0
  else if r < 8 then st.globals.(r)
  else st.wins.(win_slot st r)

let set_reg st r v =
  if r = 0 then ()
  else if r < 8 then st.globals.(r) <- sext32 v
  else st.wins.(win_slot st r) <- sext32 v

(* doubles: even register holds the most-significant word *)
let get_double st f =
  let hi = st.fregs.(f) land 0xFFFFFFFF and lo = st.fregs.(f + 1) land 0xFFFFFFFF in
  Int64.float_of_bits
    (Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32))

let set_double st f v =
  let bits = Int64.bits_of_float v in
  st.fregs.(f + 1) <- Int64.to_int (Int64.logand bits 0xFFFFFFFFL);
  st.fregs.(f) <- Int64.to_int (Int64.logand (Int64.shift_right_logical bits 32) 0xFFFFFFFFL)

let get_single st f = Int32.float_of_bits (Int32.of_int st.fregs.(f))
let set_single st f v = st.fregs.(f) <- Int32.to_int (Int32.bits_of_float v) land 0xFFFFFFFF

let ri_val st = function Sparc_asm.R r -> get_reg st r | Sparc_asm.Imm v -> v

let[@inline] daccess m addr =
  let p = Cache.access m.dcache addr in
  if p <> 0 then m.cycles <- m.cycles + p
(* write-through: always 0 penalty, but the hit/miss stats must tick *)
let[@inline] waccess m addr = ignore (Cache.write_access m.dcache addr : int)

let set_icc_sub st a b r =
  st.icc_z <- u32 r = 0;
  st.icc_n <- r land 0x80000000 <> 0;
  st.icc_v <- (a lxor b) land (a lxor r) land 0x80000000 <> 0;
  st.icc_c <- u32 a < u32 b

(* ------------------------------------------------------------------ *)
(* The instruction semantics: [sem m pc ft insn] is the closure that
   executes [insn] at [pc] on every tier of {!Vmachine.Engine}.  A
   control transfer leaves its target in [m.btarget], or [ft] when an
   untaken branch falls through; the delay slot runs next and the
   engine moves btarget into pc.  Save/Restore are body instructions:
   their window overflow/underflow checks raise before touching state,
   which the engine's fault fixup handles like any other trap.  Store
   closures test the block cache's dirty flag after writing and abort
   with [Block_cache.Retired]. *)
let sem (m : t) pc ft (insn : insn) : unit -> unit =
  let st = m.arch in
  match insn with
  | Sparc_asm.Nop -> fun () -> ()
  | Sparc_asm.Sethi (rd, imm22) -> fun () -> set_reg st rd (imm22 lsl 10)
  | Sparc_asm.Alu (a, rd, rs1, ri) -> (
    match a with
    | Sparc_asm.Add -> fun () -> set_reg st rd (get_reg st rs1 + ri_val st ri)
    | Sparc_asm.Sub -> fun () -> set_reg st rd (get_reg st rs1 - ri_val st ri)
    | Sparc_asm.And -> fun () -> set_reg st rd (get_reg st rs1 land ri_val st ri)
    | Sparc_asm.Or -> fun () -> set_reg st rd (get_reg st rs1 lor ri_val st ri)
    | Sparc_asm.Xor -> fun () -> set_reg st rd (get_reg st rs1 lxor ri_val st ri)
    | Sparc_asm.Andn -> fun () -> set_reg st rd (get_reg st rs1 land lnot (ri_val st ri))
    | Sparc_asm.Orn -> fun () -> set_reg st rd (get_reg st rs1 lor lnot (ri_val st ri))
    | Sparc_asm.Xnor -> fun () -> set_reg st rd (lnot (get_reg st rs1 lxor ri_val st ri))
    | Sparc_asm.Addx ->
      fun () -> set_reg st rd (get_reg st rs1 + ri_val st ri + if st.icc_c then 1 else 0)
    | Sparc_asm.Sll -> fun () -> set_reg st rd (get_reg st rs1 lsl (ri_val st ri land 31))
    | Sparc_asm.Srl -> fun () -> set_reg st rd (u32 (get_reg st rs1) lsr (ri_val st ri land 31))
    | Sparc_asm.Sra -> fun () -> set_reg st rd (get_reg st rs1 asr (ri_val st ri land 31))
    | Sparc_asm.Umul ->
      fun () ->
        m.cycles <- m.cycles + 18;
        let x = get_reg st rs1 and y = ri_val st ri in
        let p = Int64.mul (Int64.of_int (u32 x)) (Int64.of_int (u32 y)) in
        st.y <- Int64.to_int (Int64.shift_right_logical p 32) land 0xFFFFFFFF;
        set_reg st rd (Int64.to_int (Int64.logand p 0xFFFFFFFFL))
    | Sparc_asm.Smul ->
      fun () ->
        m.cycles <- m.cycles + 18;
        let x = get_reg st rs1 and y = ri_val st ri in
        let p = Int64.mul (Int64.of_int x) (Int64.of_int y) in
        st.y <- Int64.to_int (Int64.shift_right_logical p 32) land 0xFFFFFFFF;
        set_reg st rd (Int64.to_int (Int64.logand p 0xFFFFFFFFL))
    | Sparc_asm.Udiv ->
      fun () ->
        m.cycles <- m.cycles + 36;
        let x = get_reg st rs1 and y = ri_val st ri in
        let dividend =
          Int64.logor
            (Int64.shift_left (Int64.of_int (u32 st.y)) 32)
            (Int64.of_int (u32 x))
        in
        let dv = u32 y in
        if dv = 0 then set_reg st rd 0
        else set_reg st rd (Int64.to_int (Int64.div dividend (Int64.of_int dv)))
    | Sparc_asm.Sdiv ->
      fun () ->
        m.cycles <- m.cycles + 36;
        let x = get_reg st rs1 and y = ri_val st ri in
        let dividend =
          Int64.logor
            (Int64.shift_left (Int64.of_int (u32 st.y)) 32)
            (Int64.of_int (u32 x))
        in
        if y = 0 then set_reg st rd 0
        else set_reg st rd (Int64.to_int (Int64.div dividend (Int64.of_int y)))
    | Sparc_asm.Addcc ->
      fun () ->
        let x = get_reg st rs1 and y = ri_val st ri in
        let r = x + y in
        st.icc_z <- u32 r = 0;
        st.icc_n <- r land 0x80000000 <> 0;
        st.icc_v <- lnot (x lxor y) land (x lxor r) land 0x80000000 <> 0;
        st.icc_c <- u32 r < u32 x;
        set_reg st rd r
    | Sparc_asm.Subcc ->
      fun () ->
        let x = get_reg st rs1 and y = ri_val st ri in
        let r = x - y in
        set_icc_sub st x y r;
        set_reg st rd r)
  | Sparc_asm.Bicc (c, disp) -> (
    let tk = pc + (4 * disp) in
    let open Sparc_asm in
    match c with
    | BA -> fun () -> m.btarget <- tk
    | BN -> fun () -> m.btarget <- ft
    | BNE -> fun () -> m.btarget <- (if not st.icc_z then tk else ft)
    | BE -> fun () -> m.btarget <- (if st.icc_z then tk else ft)
    | BG -> fun () -> m.btarget <- (if not (st.icc_z || st.icc_n <> st.icc_v) then tk else ft)
    | BLE -> fun () -> m.btarget <- (if st.icc_z || st.icc_n <> st.icc_v then tk else ft)
    | BGE -> fun () -> m.btarget <- (if st.icc_n = st.icc_v then tk else ft)
    | BL -> fun () -> m.btarget <- (if st.icc_n <> st.icc_v then tk else ft)
    | BGU -> fun () -> m.btarget <- (if (not st.icc_c) && not st.icc_z then tk else ft)
    | BLEU -> fun () -> m.btarget <- (if st.icc_c || st.icc_z then tk else ft)
    | BCC -> fun () -> m.btarget <- (if not st.icc_c then tk else ft)
    | BCS -> fun () -> m.btarget <- (if st.icc_c then tk else ft)
    | BPOS -> fun () -> m.btarget <- (if not st.icc_n then tk else ft)
    | BNEG -> fun () -> m.btarget <- (if st.icc_n then tk else ft))
  | Sparc_asm.Fbfcc (c, disp) -> (
    let tk = pc + (4 * disp) in
    let open Sparc_asm in
    match c with
    | FBE -> fun () -> m.btarget <- (if st.fcc = 0 then tk else ft)
    | FBNE -> fun () -> m.btarget <- (if st.fcc <> 0 then tk else ft)
    | FBL -> fun () -> m.btarget <- (if st.fcc = 1 then tk else ft)
    | FBG -> fun () -> m.btarget <- (if st.fcc = 2 then tk else ft)
    | FBLE -> fun () -> m.btarget <- (if st.fcc = 0 || st.fcc = 1 then tk else ft)
    | FBGE -> fun () -> m.btarget <- (if st.fcc = 0 || st.fcc = 2 then tk else ft))
  | Sparc_asm.Call disp ->
    let tk = pc + (4 * disp) in
    fun () ->
      set_reg st 15 pc;
      m.btarget <- tk
  | Sparc_asm.Jmpl (rd, rs1, ri) ->
    fun () ->
      set_reg st rd pc;
      m.btarget <- u32 (get_reg st rs1 + ri_val st ri)
  | Sparc_asm.Save (rd, rs1, ri) ->
    fun () ->
      if st.depth >= nwindows - 2 then raise (Machine_error "register window overflow");
      let v = get_reg st rs1 + ri_val st ri in
      st.cwp <- (st.cwp - 1 + nwindows) mod nwindows;
      st.depth <- st.depth + 1;
      set_reg st rd v
  | Sparc_asm.Restore (rd, rs1, ri) ->
    fun () ->
      if st.depth <= 0 then raise (Machine_error "register window underflow");
      let v = get_reg st rs1 + ri_val st ri in
      st.cwp <- (st.cwp + 1) mod nwindows;
      st.depth <- st.depth - 1;
      set_reg st rd v
  | Sparc_asm.Rdy rd -> fun () -> set_reg st rd st.y
  | Sparc_asm.Wry (rs1, ri) -> fun () -> st.y <- u32 (get_reg st rs1 lxor ri_val st ri)
  | Sparc_asm.Ld (rd, rs1, ri) ->
    fun () ->
      let a = u32 (get_reg st rs1 + ri_val st ri) in
      daccess m a;
      set_reg st rd (Mem.read_u32 m.mem a)
  | Sparc_asm.Ldsb (rd, rs1, ri) ->
    fun () ->
      let a = u32 (get_reg st rs1 + ri_val st ri) in
      daccess m a;
      let v = Mem.read_u8 m.mem a in
      set_reg st rd (if v land 0x80 <> 0 then v - 0x100 else v)
  | Sparc_asm.Ldub (rd, rs1, ri) ->
    fun () ->
      let a = u32 (get_reg st rs1 + ri_val st ri) in
      daccess m a;
      set_reg st rd (Mem.read_u8 m.mem a)
  | Sparc_asm.Ldsh (rd, rs1, ri) ->
    fun () ->
      let a = u32 (get_reg st rs1 + ri_val st ri) in
      daccess m a;
      let v = Mem.read_u16 m.mem a in
      set_reg st rd (if v land 0x8000 <> 0 then v - 0x10000 else v)
  | Sparc_asm.Lduh (rd, rs1, ri) ->
    fun () ->
      let a = u32 (get_reg st rs1 + ri_val st ri) in
      daccess m a;
      set_reg st rd (Mem.read_u16 m.mem a)
  | Sparc_asm.St (rd, rs1, ri) ->
    fun () ->
      let a = u32 (get_reg st rs1 + ri_val st ri) in
      waccess m a;
      Mem.write_u32 m.mem a (u32 (get_reg st rd));
      if Block_cache.dirty m.bc then raise Block_cache.Retired
  | Sparc_asm.Stb (rd, rs1, ri) ->
    fun () ->
      let a = u32 (get_reg st rs1 + ri_val st ri) in
      waccess m a;
      Mem.write_u8 m.mem a (get_reg st rd);
      if Block_cache.dirty m.bc then raise Block_cache.Retired
  | Sparc_asm.Sth (rd, rs1, ri) ->
    fun () ->
      let a = u32 (get_reg st rs1 + ri_val st ri) in
      waccess m a;
      Mem.write_u16 m.mem a (get_reg st rd);
      if Block_cache.dirty m.bc then raise Block_cache.Retired
  | Sparc_asm.Ldf (rd, rs1, ri) ->
    fun () ->
      let a = u32 (get_reg st rs1 + ri_val st ri) in
      daccess m a;
      st.fregs.(rd) <- Mem.read_u32 m.mem a
  | Sparc_asm.Lddf (rd, rs1, ri) ->
    fun () ->
      let a = u32 (get_reg st rs1 + ri_val st ri) in
      daccess m a;
      st.fregs.(rd) <- Mem.read_u32 m.mem a;
      st.fregs.(rd + 1) <- Mem.read_u32 m.mem (a + 4)
  | Sparc_asm.Stf (rd, rs1, ri) ->
    fun () ->
      let a = u32 (get_reg st rs1 + ri_val st ri) in
      waccess m a;
      Mem.write_u32 m.mem a st.fregs.(rd);
      if Block_cache.dirty m.bc then raise Block_cache.Retired
  | Sparc_asm.Stdf (rd, rs1, ri) ->
    fun () ->
      let a = u32 (get_reg st rs1 + ri_val st ri) in
      waccess m a;
      Mem.write_u32 m.mem a st.fregs.(rd);
      Mem.write_u32 m.mem (a + 4) st.fregs.(rd + 1);
      if Block_cache.dirty m.bc then raise Block_cache.Retired
  | Sparc_asm.Fpop (p, rd, rs1, rs2) -> (
    let open Sparc_asm in
    match p with
    | Fadds ->
      fun () ->
        m.cycles <- m.cycles + 1;
        set_single st rd (get_single st rs1 +. get_single st rs2)
    | Faddd ->
      fun () ->
        m.cycles <- m.cycles + 1;
        set_double st rd (get_double st rs1 +. get_double st rs2)
    | Fsubs ->
      fun () ->
        m.cycles <- m.cycles + 1;
        set_single st rd (get_single st rs1 -. get_single st rs2)
    | Fsubd ->
      fun () ->
        m.cycles <- m.cycles + 1;
        set_double st rd (get_double st rs1 -. get_double st rs2)
    | Fmuls ->
      fun () ->
        m.cycles <- m.cycles + 3;
        set_single st rd (get_single st rs1 *. get_single st rs2)
    | Fmuld ->
      fun () ->
        m.cycles <- m.cycles + 4;
        set_double st rd (get_double st rs1 *. get_double st rs2)
    | Fdivs ->
      fun () ->
        m.cycles <- m.cycles + 12;
        set_single st rd (get_single st rs1 /. get_single st rs2)
    | Fdivd ->
      fun () ->
        m.cycles <- m.cycles + 18;
        set_double st rd (get_double st rs1 /. get_double st rs2)
    | Fmovs -> fun () -> st.fregs.(rd) <- st.fregs.(rs2)
    | Fnegs -> fun () -> set_single st rd (-.get_single st rs2)
    | Fabss -> fun () -> set_single st rd (abs_float (get_single st rs2))
    | Fsqrts ->
      fun () ->
        m.cycles <- m.cycles + 13;
        set_single st rd (sqrt (get_single st rs2))
    | Fsqrtd ->
      fun () ->
        m.cycles <- m.cycles + 25;
        set_double st rd (sqrt (get_double st rs2))
    | Fitos -> fun () -> set_single st rd (float_of_int (sext32 st.fregs.(rs2)))
    | Fitod -> fun () -> set_double st rd (float_of_int (sext32 st.fregs.(rs2)))
    | Fstoi -> fun () -> st.fregs.(rd) <- u32 (int_of_float (Float.trunc (get_single st rs2)))
    | Fdtoi -> fun () -> st.fregs.(rd) <- u32 (int_of_float (Float.trunc (get_double st rs2)))
    | Fstod -> fun () -> set_double st rd (get_single st rs2)
    | Fdtos -> fun () -> set_single st rd (get_double st rs2))
  | Sparc_asm.Fcmps (rs1, rs2) ->
    fun () ->
      let a = get_single st rs1 and b = get_single st rs2 in
      st.fcc <- (if a = b then 0 else if a < b then 1 else 2)
  | Sparc_asm.Fcmpd (rs1, rs2) ->
    fun () ->
      let a = get_double st rs1 and b = get_double st rs2 in
      st.fcc <- (if a = b then 0 else if a < b then 1 else 2)

let kind : insn -> Engine.kind = function
  | Sparc_asm.Bicc _ | Sparc_asm.Fbfcc _ | Sparc_asm.Call _ | Sparc_asm.Jmpl _ -> Term
  | _ -> Body

(* Only closures for these instructions can raise: a memory fault from
   a load/store, a window spill/fill from Save/Restore, or
   [Block_cache.Retired] from a store that invalidated a resident
   block.  Everything else is pure OCaml arithmetic that cannot raise
   (the division arms are zero-guarded), and SPARC terminators only
   write [m.btarget], so the per-instruction [m.blk_i] bookkeeping is
   baked in at compile time for can-raise instructions alone and elided
   everywhere else. *)
let act_raises (insn : insn) : bool =
  match insn with
  | Sparc_asm.Save _ | Sparc_asm.Restore _
  | Sparc_asm.Ld _ | Sparc_asm.Ldsb _ | Sparc_asm.Ldub _ | Sparc_asm.Ldsh _ | Sparc_asm.Lduh _
  | Sparc_asm.St _ | Sparc_asm.Stb _ | Sparc_asm.Sth _
  | Sparc_asm.Ldf _ | Sparc_asm.Lddf _ | Sparc_asm.Stf _ | Sparc_asm.Stdf _ -> true
  | _ -> false

include Engine.Make (struct
  type nonrec insn = insn
  type nonrec arch = arch

  let port = "sparc"
  let big_endian = true
  let delay = true

  let init (cfg : Mconfig.t) _ =
    { globals = Array.make 8 0; wins = Array.make (nwindows * 16) 0; cwp = 0; depth = 0;
      fregs = Array.make 32 0; y = 0; icc_n = false; icc_z = false; icc_v = false;
      icc_c = false; fcc = 0; stack_top = cfg.mem_bytes - 256 }

  exception Bad_insn = Sparc_asm.Bad_insn

  let decode = Sparc_asm.decode
  let sem = sem
  let kind = kind
  let act_raises = act_raises
  let term_raises = false

  let static_target tpc : insn -> int option = function
    | Sparc_asm.Bicc (Sparc_asm.BA, disp) | Sparc_asm.Call disp -> Some (tpc + (4 * disp))
    | _ -> None

  let is_nop : insn -> bool = function Sparc_asm.Nop -> true | _ -> false
end)

(* ------------------------------------------------------------------ *)
(* Harness: the VCODE SPARC convention — first six word-class args in
   %o0-%o5, floats/doubles and further args on the stack at sp+92;
   doubles take an 8-aligned pair of slots.                            *)

type arg = Int of int | Single of float | Double of float

let arg_bias = 92 (* window save (64) + hidden (4) + o0-o5 home (24) *)

let place_args (m : t) ~sp args =
  let slot = ref 0 in
  List.iter
    (fun a ->
      match a with
      | Int v ->
        let s = !slot in
        if s < 6 then set_reg m.arch (8 + s) v
        else Mem.write_u32 m.mem (sp + arg_bias + (4 * s)) (u32 v);
        incr slot
      | Single v ->
        let s = !slot in
        Mem.write_u32 m.mem (sp + arg_bias + (4 * s))
          (Int32.to_int (Int32.bits_of_float v) land 0xFFFFFFFF);
        incr slot
      | Double v ->
        if (!slot + (arg_bias / 4)) land 1 = 1 then incr slot;
        let s = !slot in
        Mem.write_u64 m.mem (sp + arg_bias + (4 * s)) (Int64.bits_of_float v);
        slot := s + 2)
    args

let call ?fuel (m : t) ~entry args =
  let st = m.arch in
  let sp = st.stack_top land lnot 7 in
  set_reg st 14 sp; (* %sp = %o6 *)
  set_reg st 15 (halt_addr - 8); (* %o7: ret = jmpl %i7+8 *)
  place_args m ~sp args;
  m.pc <- entry;
  m.npc <- entry + 4;
  run ?fuel m

let ret_int (m : t) = get_reg m.arch 8 (* %o0 after the callee's restore *)
let ret_single (m : t) = get_single m.arch 0
let ret_double (m : t) = get_double m.arch 0

let call_ints ?fuel m ~entry vals =
  call ?fuel m ~entry (List.map (fun v -> Int v) vals);
  ret_int m
