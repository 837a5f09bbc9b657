(* PowerPC (32-bit) simulator.

   Big-endian core, no delay slots.  Integer registers hold
   sign-extended 32-bit values in OCaml ints; FP registers hold 64-bit
   IEEE bit patterns (fctiwz leaves an integer word in an FP register,
   as on hardware).  CR0's lt/gt/eq bits, LR and CTR are modeled; other
   CR fields, XER and the record forms are not needed by the VCODE
   port.

   This file holds the ISA only; the execution tiers are
   {!Vmachine.Engine}'s, in its no-delay shape ([btarget] is the next-pc
   scratch every instruction writes). *)

open Vmachine
include Engine.Core
module A = Ppc_asm

type insn = A.t

type arch = {
  regs : int array;    (* 32, sign-extended 32-bit *)
  fregs : int64 array; (* 32, raw bit patterns *)
  mutable lr : int;
  mutable ctr : int;
  mutable cr_lt : bool;
  mutable cr_gt : bool;
  mutable cr_eq : bool;
  mutable stack_top : int;
}

type t = (insn, arch) machine

(* branchless sign-extension from bit 31 (OCaml ints are 63-bit, so the
   shift pair drops bits 32+ and replicates bit 31 upward) *)
let[@inline] sext32 v = (v lsl 31) asr 31

let u32 v = v land 0xFFFFFFFF

(* register numbers come out of [Ppc_asm.decode] masked to 5 bits *)
let[@inline] get st r = Array.unsafe_get st.regs r
let[@inline] set st r v = Array.unsafe_set st.regs r (sext32 v)

(* RA = 0 means literal zero in D-form address/operand computation *)
let[@inline] get0 st r = if r = 0 then 0 else Array.unsafe_get st.regs r

let fval st f = Int64.float_of_bits st.fregs.(f)
let set_fval st f v = st.fregs.(f) <- Int64.bits_of_float v
let single v = Int32.float_of_bits (Int32.bits_of_float v)

let[@inline] daccess m addr =
  let p = Cache.access m.dcache addr in
  if p <> 0 then m.cycles <- m.cycles + p
(* write-through: always 0 penalty, but the hit/miss stats must tick *)
let[@inline] waccess m addr = ignore (Cache.write_access m.dcache addr : int)

let set_cr_signed st a b =
  st.cr_lt <- a < b;
  st.cr_gt <- a > b;
  st.cr_eq <- a = b

let set_cr_unsigned st a b =
  let a = u32 a and b = u32 b in
  st.cr_lt <- a < b;
  st.cr_gt <- a > b;
  st.cr_eq <- a = b

let rlwinm_mask mb me =
  let mask = ref 0 in
  let i = ref mb in
  let stop = ref false in
  while not !stop do
    mask := !mask lor (1 lsl (31 - !i));
    if !i = me then stop := true else i := (!i + 1) land 31
  done;
  !mask

let rotl32 v sh = u32 ((u32 v lsl sh) lor (u32 v lsr (32 - sh land 31)))

(* ------------------------------------------------------------------ *)
(* The instruction semantics: [sem m pc ft insn] is the closure that
   executes [insn] at [pc] on every tier of {!Vmachine.Engine}.  PPC has
   no delay slots: a control transfer leaves its target in [m.btarget],
   or [ft] when an untaken branch falls through, and the engine moves
   btarget into pc.  A [Bc] with an unsupported BO field compiles to a
   closure raising the machine error.  Store closures test the block
   cache's dirty flag after writing and abort with
   [Block_cache.Retired]. *)
let sem (m : t) pc ft (insn : insn) : unit -> unit =
  let st = m.arch in
  match insn with
  | A.Addi (rt, ra, si) -> fun () -> set st rt (get0 st ra + si)
  | A.Addis (rt, ra, si) ->
    let v = si * 65536 in
    fun () -> set st rt (get0 st ra + v)
  | A.Mulli (rt, ra, si) ->
    fun () ->
      m.cycles <- m.cycles + 4;
      set st rt (get st ra * si)
  | A.Cmpi (ra, si) -> fun () -> set_cr_signed st (get st ra) si
  | A.Cmpli (ra, ui) -> fun () -> set_cr_unsigned st (get st ra) ui
  | A.Ori (ra, rs, ui) -> fun () -> set st ra (get st rs lor ui)
  | A.Oris (ra, rs, ui) ->
    let v = ui lsl 16 in
    fun () -> set st ra (get st rs lor v)
  | A.Xori (ra, rs, ui) -> fun () -> set st ra (get st rs lxor ui)
  | A.Andi (ra, rs, ui) ->
    fun () ->
      let v = get st rs land ui in
      set st ra v;
      set_cr_signed st (sext32 v) 0
  | A.Add (rt, ra, rb) -> fun () -> set st rt (get st ra + get st rb)
  | A.Subf (rt, ra, rb) -> fun () -> set st rt (get st rb - get st ra)
  | A.Mullw (rt, ra, rb) ->
    fun () ->
      m.cycles <- m.cycles + 4;
      set st rt (get st ra * get st rb)
  | A.Divw (rt, ra, rb) ->
    fun () ->
      m.cycles <- m.cycles + 19;
      let a = get st ra and b = get st rb in
      if b = 0 then set st rt 0 else set st rt (Int.div a b)
  | A.Divwu (rt, ra, rb) ->
    fun () ->
      m.cycles <- m.cycles + 19;
      let a = u32 (get st ra) and b = u32 (get st rb) in
      if b = 0 then set st rt 0 else set st rt (a / b)
  | A.Neg (rt, ra) -> fun () -> set st rt (-get st ra)
  | A.And (ra, rs, rb) -> fun () -> set st ra (get st rs land get st rb)
  | A.Or (ra, rs, rb) -> fun () -> set st ra (get st rs lor get st rb)
  | A.Xor (ra, rs, rb) -> fun () -> set st ra (get st rs lxor get st rb)
  | A.Nor (ra, rs, rb) -> fun () -> set st ra (lnot (get st rs lor get st rb))
  | A.Slw (ra, rs, rb) ->
    fun () ->
      let sh = get st rb land 63 in
      set st ra (if sh > 31 then 0 else get st rs lsl sh)
  | A.Srw (ra, rs, rb) ->
    fun () ->
      let sh = get st rb land 63 in
      set st ra (if sh > 31 then 0 else u32 (get st rs) lsr sh)
  | A.Sraw (ra, rs, rb) ->
    fun () ->
      let sh = get st rb land 63 in
      set st ra (get st rs asr min sh 31)
  | A.Srawi (ra, rs, sh) -> fun () -> set st ra (get st rs asr sh)
  | A.Cntlzw (ra, rs) ->
    fun () ->
      let v = u32 (get st rs) in
      let rec go n bit =
        if bit < 0 || v land (1 lsl bit) <> 0 then n else go (n + 1) (bit - 1)
      in
      set st ra (if v = 0 then 32 else go 0 31)
  | A.Cmp (ra, rb) -> fun () -> set_cr_signed st (get st ra) (get st rb)
  | A.Cmpl (ra, rb) -> fun () -> set_cr_unsigned st (get st ra) (get st rb)
  | A.Rlwinm (ra, rs, sh, mb, me) ->
    let mask = rlwinm_mask mb me in
    fun () -> set st ra (rotl32 (get st rs) sh land mask)
  | A.Lbz (rt, ra, d) ->
    fun () ->
      let a = u32 (get0 st ra) + d in
      daccess m a;
      set st rt (Mem.read_u8 m.mem a)
  | A.Lhz (rt, ra, d) ->
    fun () ->
      let a = u32 (get0 st ra) + d in
      daccess m a;
      set st rt (Mem.read_u16 m.mem a)
  | A.Lha (rt, ra, d) ->
    fun () ->
      let a = u32 (get0 st ra) + d in
      daccess m a;
      let v = Mem.read_u16 m.mem a in
      set st rt (if v land 0x8000 <> 0 then v - 0x10000 else v)
  | A.Lwz (rt, ra, d) ->
    fun () ->
      let a = u32 (get0 st ra) + d in
      daccess m a;
      set st rt (Mem.read_u32 m.mem a)
  | A.Stb (rt, ra, d) ->
    fun () ->
      let a = u32 (get0 st ra) + d in
      waccess m a;
      Mem.write_u8 m.mem a (get st rt);
      if Block_cache.dirty m.bc then raise Block_cache.Retired
  | A.Sth (rt, ra, d) ->
    fun () ->
      let a = u32 (get0 st ra) + d in
      waccess m a;
      Mem.write_u16 m.mem a (get st rt);
      if Block_cache.dirty m.bc then raise Block_cache.Retired
  | A.Stw (rt, ra, d) ->
    fun () ->
      let a = u32 (get0 st ra) + d in
      waccess m a;
      Mem.write_u32 m.mem a (u32 (get st rt));
      if Block_cache.dirty m.bc then raise Block_cache.Retired
  | A.Lfs (t, ra, d) ->
    fun () ->
      let a = u32 (get0 st ra) + d in
      daccess m a;
      set_fval st t (Int32.float_of_bits (Int32.of_int (Mem.read_u32 m.mem a)))
  | A.Lfd (t, ra, d) ->
    fun () ->
      let a = u32 (get0 st ra) + d in
      daccess m a;
      st.fregs.(t) <- Mem.read_u64 m.mem a
  | A.Stfs (t, ra, d) ->
    fun () ->
      let a = u32 (get0 st ra) + d in
      waccess m a;
      Mem.write_u32 m.mem a (Int32.to_int (Int32.bits_of_float (fval st t)) land 0xFFFFFFFF);
      if Block_cache.dirty m.bc then raise Block_cache.Retired
  | A.Stfd (t, ra, d) ->
    fun () ->
      let a = u32 (get0 st ra) + d in
      waccess m a;
      Mem.write_u64 m.mem a st.fregs.(t);
      if Block_cache.dirty m.bc then raise Block_cache.Retired
  | A.Mflr rt -> fun () -> set st rt st.lr
  | A.Mtlr rs -> fun () -> st.lr <- u32 (get st rs)
  | A.Mtctr rs -> fun () -> st.ctr <- u32 (get st rs)
  | A.Fadd (t, a, b) ->
    fun () ->
      m.cycles <- m.cycles + 2;
      set_fval st t (fval st a +. fval st b)
  | A.Fsub (t, a, b) ->
    fun () ->
      m.cycles <- m.cycles + 2;
      set_fval st t (fval st a -. fval st b)
  | A.Fmul (t, a, c) ->
    fun () ->
      m.cycles <- m.cycles + 3;
      set_fval st t (fval st a *. fval st c)
  | A.Fdiv (t, a, b) ->
    fun () ->
      m.cycles <- m.cycles + 17;
      set_fval st t (fval st a /. fval st b)
  | A.Fadds (t, a, b) ->
    fun () ->
      m.cycles <- m.cycles + 2;
      set_fval st t (single (fval st a +. fval st b))
  | A.Fsubs (t, a, b) ->
    fun () ->
      m.cycles <- m.cycles + 2;
      set_fval st t (single (fval st a -. fval st b))
  | A.Fmuls (t, a, c) ->
    fun () ->
      m.cycles <- m.cycles + 3;
      set_fval st t (single (fval st a *. fval st c))
  | A.Fdivs (t, a, b) ->
    fun () ->
      m.cycles <- m.cycles + 17;
      set_fval st t (single (fval st a /. fval st b))
  | A.Fneg (t, b) -> fun () -> set_fval st t (-.fval st b)
  | A.Fmr (t, b) -> fun () -> st.fregs.(t) <- st.fregs.(b)
  | A.Frsp (t, b) -> fun () -> set_fval st t (single (fval st b))
  | A.Fctiwz (t, b) ->
    fun () ->
      let v = Int64.of_float (Float.trunc (fval st b)) in
      st.fregs.(t) <- Int64.logand v 0xFFFFFFFFL
  | A.Fcmpu (a, b) ->
    fun () ->
      let x = fval st a and y = fval st b in
      st.cr_lt <- x < y;
      st.cr_gt <- x > y;
      st.cr_eq <- x = y
  | A.B li ->
    let tk = pc + (4 * li) in
    fun () -> m.btarget <- tk
  | A.Bl li ->
    let tk = pc + (4 * li) in
    fun () ->
      st.lr <- pc + 4;
      m.btarget <- tk
  | A.Bc (bo, bi, bd) -> (
    let tk = pc + (4 * bd) in
    let bit () = match bi with 0 -> st.cr_lt | 1 -> st.cr_gt | 2 -> st.cr_eq | _ -> false in
    match bo with
    | 12 -> fun () -> m.btarget <- (if bit () then tk else ft)
    | 4 -> fun () -> m.btarget <- (if not (bit ()) then tk else ft)
    | 20 -> fun () -> m.btarget <- tk
    | _ -> fun () -> raise (Machine_error (Printf.sprintf "unsupported BO %d at 0x%x" bo pc)))
  | A.Blr -> fun () -> m.btarget <- u32 st.lr
  | A.Bctr -> fun () -> m.btarget <- u32 st.ctr
  | A.Bctrl ->
    fun () ->
      st.lr <- pc + 4;
      m.btarget <- u32 st.ctr

let kind : insn -> Engine.kind = function
  | A.B _ | A.Bl _ | A.Bc _ | A.Blr | A.Bctr | A.Bctrl -> Term
  | _ -> Body

(* Only closures for these instructions can raise: a memory fault from
   a load/store, or [Block_cache.Retired] from a store that invalidated
   a resident block.  Everything else is pure OCaml arithmetic that
   cannot raise (the division arms are zero-guarded), so the
   per-instruction [m.blk_i] bookkeeping is baked in at compile time
   for can-raise instructions alone and elided everywhere else.  The
   terminator is always classified can-raise: the unsupported-BO trap
   raises from inside its closure. *)
let act_raises (insn : insn) : bool =
  match insn with
  | A.Lbz _ | A.Lhz _ | A.Lha _ | A.Lwz _ | A.Stb _ | A.Sth _ | A.Stw _
  | A.Lfs _ | A.Lfd _ | A.Stfs _ | A.Stfd _ -> true
  | _ -> false

include Engine.Make (struct
  type nonrec insn = insn
  type nonrec arch = arch

  let port = "ppc"
  let big_endian = true
  let delay = false

  let init (cfg : Mconfig.t) _ =
    { regs = Array.make 32 0; fregs = Array.make 32 0L; lr = 0; ctr = 0; cr_lt = false;
      cr_gt = false; cr_eq = false; stack_top = cfg.mem_bytes - 256 }

  exception Bad_insn = A.Bad_insn

  let decode = A.decode
  let sem = sem
  let kind = kind
  let act_raises = act_raises

  (* the unsupported-BO trap raises from inside the terminator closure *)
  let term_raises = true

  let static_target tpc : insn -> int option = function
    | A.B li | A.Bl li -> Some (tpc + (4 * li))
    | A.Bc (20, _, bd) -> Some (tpc + (4 * bd))
    | _ -> None

  (* no delay slots, so no padding nops worth eliding *)
  let is_nop (_ : insn) = false
end)

(* ------------------------------------------------------------------ *)
(* Harness: args in r3-r10 / f1-f8 by class; further args on the stack
   at sp+8, 4 bytes per word slot (doubles 8-aligned pairs).           *)

type arg = Int of int | Single of float | Double of float

let arg_base = 8

let place_args (m : t) ~sp args =
  let st = m.arch in
  let islot = ref 0 and fslot = ref 0 and stack = ref 0 in
  List.iter
    (fun a ->
      match a with
      | Int v ->
        if !islot < 8 then begin
          set st (3 + !islot) v;
          incr islot
        end
        else begin
          Mem.write_u32 m.mem (sp + arg_base + (4 * !stack)) (u32 v);
          incr stack
        end
      | Single v | Double v ->
        let v = match a with Single v -> single v | _ -> v in
        if !fslot < 8 then begin
          set_fval st (1 + !fslot) v;
          incr fslot
        end
        else begin
          if !stack land 1 = 1 then incr stack;
          Mem.write_u64 m.mem (sp + arg_base + (4 * !stack)) (Int64.bits_of_float v);
          stack := !stack + 2
        end)
    args

let call ?fuel (m : t) ~entry args =
  let st = m.arch in
  let sp = st.stack_top land lnot 7 in
  set st 1 sp;
  st.lr <- halt_addr;
  place_args m ~sp args;
  m.pc <- entry;
  run ?fuel m

let ret_int (m : t) = m.arch.regs.(3)
let ret_double (m : t) = fval m.arch 1
let ret_single (m : t) = fval m.arch 1

let call_ints ?fuel m ~entry vals =
  call ?fuel m ~entry (List.map (fun v -> Int v) vals);
  ret_int m
