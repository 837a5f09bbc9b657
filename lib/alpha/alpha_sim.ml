(* Alpha simulator.

   64-bit little-endian core, no delay slots.  Integer registers hold
   Int64 values ($31 pinned to zero); FP registers hold raw 64-bit
   T-format bit patterns ($f31 pinned to +0.0), which models the real
   machine: S-format loads expand to T-format in the register, and
   cvttq leaves an *integer* bit pattern in an FP register.

   The division millicode (see {!Alpha_runtime}) is installed at its
   fixed address by [create].

   This file holds the ISA only; the execution tiers are
   {!Vmachine.Engine}'s, in its no-delay shape ([btarget] is the next-pc
   scratch every instruction writes). *)

open Vmachine
include Engine.Core
module A = Alpha_asm

type insn = A.t

type arch = {
  regs : int64 array;
  fregs : int64 array; (* bit patterns *)
  mutable stack_top : int;
}

type t = (insn, arch) machine

(* register numbers come out of [Alpha_asm.decode] masked to 5 bits *)
let[@inline] get_reg st r = if r = 31 then 0L else Array.unsafe_get st.regs r
let[@inline] set_reg st r v = if r <> 31 then Array.unsafe_set st.regs r v

let get_f st f = if f = 31 then 0L else st.fregs.(f)
let set_f st f v = if f <> 31 then st.fregs.(f) <- v

let fval st f = Int64.float_of_bits (get_f st f)
let set_fval st f v = set_f st f (Int64.bits_of_float v)

(* round a double result to single precision (S-format ops) *)
let single v = Int32.float_of_bits (Int32.bits_of_float v)

let sext32_64 (v : int64) : int64 =
  Int64.shift_right (Int64.shift_left v 32) 32

let lit_val st = function A.R r -> get_reg st r | A.L v -> Int64.of_int v

let addr_of (v : int64) = Int64.to_int (Int64.logand v 0x7FFFFFFFL)

let[@inline] daccess m addr =
  let p = Cache.access m.dcache addr in
  if p <> 0 then m.cycles <- m.cycles + p
(* write-through: always 0 penalty, but the hit/miss stats must tick *)
let[@inline] waccess m addr = ignore (Cache.write_access m.dcache addr : int)

let bool64 b = if b then 1L else 0L

(* ------------------------------------------------------------------ *)
(* The instruction semantics: [sem m pc ft insn] is the closure that
   executes [insn] at [pc] on every tier of {!Vmachine.Engine}.  Alpha
   has no delay slots: a control transfer leaves its target in
   [m.btarget], or [ft] when an untaken branch falls through, and the
   engine moves btarget into pc.  Store closures test the block cache's
   dirty flag after writing and abort with [Block_cache.Retired]. *)
let sem (m : t) pc ft (insn : insn) : unit -> unit =
  let st = m.arch in
  match insn with
  | A.Lda (ra, rb, d) ->
    fun () -> set_reg st ra (Int64.add (get_reg st rb) (Int64.of_int d))
  | A.Ldah (ra, rb, d) ->
    let dd = d * 65536 in
    fun () -> set_reg st ra (Int64.add (get_reg st rb) (Int64.of_int dd))
  | A.Ldl (ra, rb, d) ->
    fun () ->
      let a = addr_of (get_reg st rb) + d in
      daccess m a;
      set_reg st ra (Int64.of_int (Int32.to_int (Int32.of_int (Mem.read_u32 m.mem a))))
  | A.Ldq (ra, rb, d) ->
    fun () ->
      let a = addr_of (get_reg st rb) + d in
      daccess m a;
      set_reg st ra (Mem.read_u64 m.mem a)
  | A.Ldq_u (ra, rb, d) ->
    fun () ->
      let a = (addr_of (get_reg st rb) + d) land lnot 7 in
      daccess m a;
      set_reg st ra (Mem.read_u64 m.mem a)
  | A.Stl (ra, rb, d) ->
    fun () ->
      let a = addr_of (get_reg st rb) + d in
      waccess m a;
      Mem.write_u32 m.mem a (Int64.to_int (Int64.logand (get_reg st ra) 0xFFFFFFFFL));
      if Block_cache.dirty m.bc then raise Block_cache.Retired
  | A.Stq (ra, rb, d) ->
    fun () ->
      let a = addr_of (get_reg st rb) + d in
      waccess m a;
      Mem.write_u64 m.mem a (get_reg st ra);
      if Block_cache.dirty m.bc then raise Block_cache.Retired
  | A.Stq_u (ra, rb, d) ->
    fun () ->
      let a = (addr_of (get_reg st rb) + d) land lnot 7 in
      waccess m a;
      Mem.write_u64 m.mem a (get_reg st ra);
      if Block_cache.dirty m.bc then raise Block_cache.Retired
  | A.Lds (fa, rb, d) ->
    fun () ->
      let a = addr_of (get_reg st rb) + d in
      daccess m a;
      let bits32 = Mem.read_u32 m.mem a in
      set_fval st fa (Int32.float_of_bits (Int32.of_int bits32))
  | A.Ldt (fa, rb, d) ->
    fun () ->
      let a = addr_of (get_reg st rb) + d in
      daccess m a;
      set_f st fa (Mem.read_u64 m.mem a)
  | A.Sts (fa, rb, d) ->
    fun () ->
      let a = addr_of (get_reg st rb) + d in
      waccess m a;
      Mem.write_u32 m.mem a (Int32.to_int (Int32.bits_of_float (fval st fa)) land 0xFFFFFFFF);
      if Block_cache.dirty m.bc then raise Block_cache.Retired
  | A.Stt (fa, rb, d) ->
    fun () ->
      let a = addr_of (get_reg st rb) + d in
      waccess m a;
      Mem.write_u64 m.mem a (get_f st fa);
      if Block_cache.dirty m.bc then raise Block_cache.Retired
  | A.Intop (o, ra, rb, rc) -> (
    match o with
    | A.Addq -> fun () -> set_reg st rc (Int64.add (get_reg st ra) (lit_val st rb))
    | A.Subq -> fun () -> set_reg st rc (Int64.sub (get_reg st ra) (lit_val st rb))
    | A.Addl -> fun () -> set_reg st rc (sext32_64 (Int64.add (get_reg st ra) (lit_val st rb)))
    | A.Subl -> fun () -> set_reg st rc (sext32_64 (Int64.sub (get_reg st ra) (lit_val st rb)))
    | A.Mull ->
      fun () ->
        m.cycles <- m.cycles + 7;
        set_reg st rc (sext32_64 (Int64.mul (get_reg st ra) (lit_val st rb)))
    | A.Mulq ->
      fun () ->
        m.cycles <- m.cycles + 11;
        set_reg st rc (Int64.mul (get_reg st ra) (lit_val st rb))
    | A.Umulh ->
      fun () ->
        m.cycles <- m.cycles + 11;
        let x = get_reg st ra and y = lit_val st rb in
        let lo_mask = 0xFFFFFFFFL in
        let xl = Int64.logand x lo_mask and xh = Int64.shift_right_logical x 32 in
        let yl = Int64.logand y lo_mask and yh = Int64.shift_right_logical y 32 in
        let ll = Int64.mul xl yl in
        let lh = Int64.mul xl yh in
        let hl = Int64.mul xh yl in
        let hh = Int64.mul xh yh in
        let s1 = Int64.add lh hl in
        let c1 = if Int64.unsigned_compare s1 lh < 0 then 0x100000000L else 0L in
        let s2 = Int64.add s1 (Int64.shift_right_logical ll 32) in
        let c2 = if Int64.unsigned_compare s2 s1 < 0 then 0x100000000L else 0L in
        set_reg st rc
          (Int64.add hh (Int64.add (Int64.shift_right_logical s2 32) (Int64.add c1 c2)))
    | A.Cmpeq -> fun () -> set_reg st rc (bool64 (Int64.equal (get_reg st ra) (lit_val st rb)))
    | A.Cmplt ->
      fun () -> set_reg st rc (bool64 (Int64.compare (get_reg st ra) (lit_val st rb) < 0))
    | A.Cmple ->
      fun () -> set_reg st rc (bool64 (Int64.compare (get_reg st ra) (lit_val st rb) <= 0))
    | A.Cmpult ->
      fun () -> set_reg st rc (bool64 (Int64.unsigned_compare (get_reg st ra) (lit_val st rb) < 0))
    | A.Cmpule ->
      fun () ->
        set_reg st rc (bool64 (Int64.unsigned_compare (get_reg st ra) (lit_val st rb) <= 0))
    | A.And -> fun () -> set_reg st rc (Int64.logand (get_reg st ra) (lit_val st rb))
    | A.Bic -> fun () -> set_reg st rc (Int64.logand (get_reg st ra) (Int64.lognot (lit_val st rb)))
    | A.Bis -> fun () -> set_reg st rc (Int64.logor (get_reg st ra) (lit_val st rb))
    | A.Ornot ->
      fun () -> set_reg st rc (Int64.logor (get_reg st ra) (Int64.lognot (lit_val st rb)))
    | A.Xor -> fun () -> set_reg st rc (Int64.logxor (get_reg st ra) (lit_val st rb))
    | A.Eqv -> fun () -> set_reg st rc (Int64.lognot (Int64.logxor (get_reg st ra) (lit_val st rb)))
    | A.Cmoveq -> fun () -> if get_reg st ra = 0L then set_reg st rc (lit_val st rb)
    | A.Cmovne -> fun () -> if get_reg st ra <> 0L then set_reg st rc (lit_val st rb)
    | A.Cmovlt -> fun () -> if Int64.compare (get_reg st ra) 0L < 0 then set_reg st rc (lit_val st rb)
    | A.Cmovge ->
      fun () -> if Int64.compare (get_reg st ra) 0L >= 0 then set_reg st rc (lit_val st rb)
    | A.Sll ->
      fun () ->
        let shamt = Int64.to_int (Int64.logand (lit_val st rb) 63L) in
        set_reg st rc (Int64.shift_left (get_reg st ra) shamt)
    | A.Srl ->
      fun () ->
        let shamt = Int64.to_int (Int64.logand (lit_val st rb) 63L) in
        set_reg st rc (Int64.shift_right_logical (get_reg st ra) shamt)
    | A.Sra ->
      fun () ->
        let shamt = Int64.to_int (Int64.logand (lit_val st rb) 63L) in
        set_reg st rc (Int64.shift_right (get_reg st ra) shamt)
    | A.Extbl ->
      fun () ->
        let sh = 8 * Int64.to_int (Int64.logand (lit_val st rb) 7L) in
        set_reg st rc (Int64.logand (Int64.shift_right_logical (get_reg st ra) sh) 0xFFL)
    | A.Extwl ->
      fun () ->
        let sh = 8 * Int64.to_int (Int64.logand (lit_val st rb) 7L) in
        set_reg st rc (Int64.logand (Int64.shift_right_logical (get_reg st ra) sh) 0xFFFFL)
    | A.Insbl ->
      fun () ->
        let sh = 8 * Int64.to_int (Int64.logand (lit_val st rb) 7L) in
        set_reg st rc (Int64.shift_left (Int64.logand (get_reg st ra) 0xFFL) sh)
    | A.Inswl ->
      fun () ->
        let sh = 8 * Int64.to_int (Int64.logand (lit_val st rb) 7L) in
        set_reg st rc (Int64.shift_left (Int64.logand (get_reg st ra) 0xFFFFL) sh)
    | A.Mskbl ->
      fun () ->
        let sh = 8 * Int64.to_int (Int64.logand (lit_val st rb) 7L) in
        set_reg st rc (Int64.logand (get_reg st ra) (Int64.lognot (Int64.shift_left 0xFFL sh)))
    | A.Mskwl ->
      fun () ->
        let sh = 8 * Int64.to_int (Int64.logand (lit_val st rb) 7L) in
        set_reg st rc (Int64.logand (get_reg st ra) (Int64.lognot (Int64.shift_left 0xFFFFL sh))))
  | A.Fpop (o, fa, fb, fc) -> (
    match o with
    | A.Adds ->
      fun () ->
        m.cycles <- m.cycles + 3;
        set_fval st fc (single (fval st fa +. fval st fb))
    | A.Addt ->
      fun () ->
        m.cycles <- m.cycles + 3;
        set_fval st fc (fval st fa +. fval st fb)
    | A.Subs ->
      fun () ->
        m.cycles <- m.cycles + 3;
        set_fval st fc (single (fval st fa -. fval st fb))
    | A.Subt ->
      fun () ->
        m.cycles <- m.cycles + 3;
        set_fval st fc (fval st fa -. fval st fb)
    | A.Muls ->
      fun () ->
        m.cycles <- m.cycles + 3;
        set_fval st fc (single (fval st fa *. fval st fb))
    | A.Mult ->
      fun () ->
        m.cycles <- m.cycles + 3;
        set_fval st fc (fval st fa *. fval st fb)
    | A.Divs ->
      fun () ->
        m.cycles <- m.cycles + 15;
        set_fval st fc (single (fval st fa /. fval st fb))
    | A.Divt ->
      fun () ->
        m.cycles <- m.cycles + 22;
        set_fval st fc (fval st fa /. fval st fb)
    | A.Cmpteq -> fun () -> set_fval st fc (if fval st fa = fval st fb then 2.0 else 0.0)
    | A.Cmptlt -> fun () -> set_fval st fc (if fval st fa < fval st fb then 2.0 else 0.0)
    | A.Cmptle -> fun () -> set_fval st fc (if fval st fa <= fval st fb then 2.0 else 0.0)
    | A.Cvtqs -> fun () -> set_fval st fc (single (Int64.to_float (get_f st fb)))
    | A.Cvtqt -> fun () -> set_fval st fc (Int64.to_float (get_f st fb))
    | A.Cvttq -> fun () -> set_f st fc (Int64.of_float (Float.trunc (fval st fb)))
    | A.Cvtts -> fun () -> set_fval st fc (single (fval st fb))
    | A.Cpys ->
      fun () ->
        let sa = Int64.logand (get_f st fa) Int64.min_int in
        let rest = Int64.logand (get_f st fb) Int64.max_int in
        set_f st fc (Int64.logor sa rest)
    | A.Cpysn ->
      fun () ->
        let sa = Int64.logand (Int64.lognot (get_f st fa)) Int64.min_int in
        let rest = Int64.logand (get_f st fb) Int64.max_int in
        set_f st fc (Int64.logor sa rest)
    | A.Sqrts ->
      fun () ->
        m.cycles <- m.cycles + 15;
        set_fval st fc (single (sqrt (fval st fb)))
    | A.Sqrtt ->
      fun () ->
        m.cycles <- m.cycles + 30;
        set_fval st fc (sqrt (fval st fb)))
  | A.Br (ra, d) | A.Bsr (ra, d) ->
    let tk = pc + 4 + (4 * d) in
    fun () ->
      set_reg st ra (Int64.of_int (pc + 4));
      m.btarget <- tk
  | A.Beq (ra, d) ->
    let tk = pc + 4 + (4 * d) in
    fun () -> m.btarget <- (if get_reg st ra = 0L then tk else ft)
  | A.Bne (ra, d) ->
    let tk = pc + 4 + (4 * d) in
    fun () -> m.btarget <- (if get_reg st ra <> 0L then tk else ft)
  | A.Blt (ra, d) ->
    let tk = pc + 4 + (4 * d) in
    fun () -> m.btarget <- (if Int64.compare (get_reg st ra) 0L < 0 then tk else ft)
  | A.Ble (ra, d) ->
    let tk = pc + 4 + (4 * d) in
    fun () -> m.btarget <- (if Int64.compare (get_reg st ra) 0L <= 0 then tk else ft)
  | A.Bgt (ra, d) ->
    let tk = pc + 4 + (4 * d) in
    fun () -> m.btarget <- (if Int64.compare (get_reg st ra) 0L > 0 then tk else ft)
  | A.Bge (ra, d) ->
    let tk = pc + 4 + (4 * d) in
    fun () -> m.btarget <- (if Int64.compare (get_reg st ra) 0L >= 0 then tk else ft)
  | A.Fbeq (fa, d) ->
    let tk = pc + 4 + (4 * d) in
    fun () -> m.btarget <- (if fval st fa = 0.0 then tk else ft)
  | A.Fbne (fa, d) ->
    let tk = pc + 4 + (4 * d) in
    fun () -> m.btarget <- (if fval st fa <> 0.0 then tk else ft)
  | A.Jmp (ra, rb) | A.Jsr (ra, rb) | A.Retj (ra, rb) ->
    fun () ->
      let t = addr_of (get_reg st rb) land lnot 3 in
      set_reg st ra (Int64.of_int (pc + 4));
      m.btarget <- t

let kind : insn -> Engine.kind = function
  | A.Br _ | A.Bsr _ | A.Beq _ | A.Bne _ | A.Blt _ | A.Ble _ | A.Bgt _ | A.Bge _ | A.Fbeq _
  | A.Fbne _ | A.Jmp _ | A.Jsr _ | A.Retj _ -> Term
  | _ -> Body

(* Only closures for these instructions can raise: a memory fault from
   a load/store (the unaligned [Ldq_u]/[Stq_u] included), or
   [Block_cache.Retired] from a store that invalidated a resident block
   ([Lda]/[Ldah] are pure address arithmetic).  Everything else is pure
   OCaml arithmetic that cannot raise, and Alpha terminators only write
   [m.btarget], so the per-instruction [m.blk_i] bookkeeping is baked
   in at compile time for can-raise instructions alone and elided
   everywhere else. *)
let act_raises (insn : insn) : bool =
  match insn with
  | A.Ldl _ | A.Ldq _ | A.Ldq_u _ | A.Stl _ | A.Stq _ | A.Stq_u _ | A.Lds _ | A.Ldt _ | A.Sts _
  | A.Stt _ -> true
  | _ -> false

include Engine.Make (struct
  type nonrec insn = insn
  type nonrec arch = arch

  let port = "alpha"
  let big_endian = false
  let delay = false

  let init (cfg : Mconfig.t) mem =
    Alpha_runtime.install mem;
    { regs = Array.make 32 0L; fregs = Array.make 32 0L; stack_top = cfg.mem_bytes - 512 }

  exception Bad_insn = A.Bad_insn

  let decode = A.decode
  let sem = sem
  let kind = kind
  let act_raises = act_raises
  let term_raises = false

  let static_target tpc : insn -> int option = function
    | A.Br (_, d) | A.Bsr (_, d) -> Some (tpc + 4 + (4 * d))
    | _ -> None

  (* no delay slots, so no padding nops worth eliding *)
  let is_nop (_ : insn) = false
end)

(* ------------------------------------------------------------------ *)
(* Harness: args in $16-$21 / $f16-$f21 by slot; further args on the
   stack at sp+0, 8 bytes per slot.                                    *)

type arg = Int of int | Int64 of int64 | Double of float | Single of float

let place_args (m : t) ~sp args =
  let st = m.arch in
  let slot = ref 0 in
  List.iter
    (fun a ->
      let s = !slot in
      incr slot;
      match a with
      | Int v ->
        if s < 6 then set_reg st (16 + s) (Int64.of_int v)
        else Mem.write_u64 m.mem (sp + (8 * (s - 6))) (Int64.of_int v)
      | Int64 v ->
        if s < 6 then set_reg st (16 + s) v else Mem.write_u64 m.mem (sp + (8 * (s - 6))) v
      | Double v ->
        if s < 6 then set_fval st (16 + s) v
        else Mem.write_u64 m.mem (sp + (8 * (s - 6))) (Int64.bits_of_float v)
      | Single v ->
        if s < 6 then set_fval st (16 + s) v
        else
          Mem.write_u64 m.mem
            (sp + (8 * (s - 6)))
            (Int64.bits_of_float (Int32.float_of_bits (Int32.bits_of_float v))))
    args

let call ?fuel (m : t) ~entry args =
  let st = m.arch in
  let sp = st.stack_top land lnot 15 in
  set_reg st 30 (Int64.of_int sp);
  set_reg st 26 (Int64.of_int halt_addr);
  place_args m ~sp args;
  m.pc <- entry;
  run ?fuel m

let ret_int64 (m : t) = m.arch.regs.(0)
let ret_int (m : t) = Int64.to_int m.arch.regs.(0)
let ret_double (m : t) = fval m.arch 0
let ret_single (m : t) = fval m.arch 0

let call_ints ?fuel m ~entry vals =
  call ?fuel m ~entry (List.map (fun v -> Int v) vals);
  ret_int m
