(* Seeded random VCODE functions for the codegen workload, with an
   OCaml evaluator of the same statement list as their oracle.

   A function has signature [int f(int a, int b, void *p)].  It works in
   [nslots] callee-saved integer slots (slot 0 = a, slot 1 = b, the rest
   seeded constants), a 16-word data area at [p], and returns slot 0.
   The statement mix covers ALU operations on registers and immediates,
   loads and stores at fixed and register offsets, forward branches
   (an [If] skips its body when its condition holds), counted loops
   (backward branches) and calls to a two-argument helper.  Integer
   arithmetic is 32-bit two's complement on every port; only
   operations whose 32-bit results agree across the four ISAs are used
   (no division, immediate-count shifts only). *)

open Vcodebase

let nslots = 4
let data_words = 16

(* where every port's copy of the call helper lives *)
let helper_addr = 0x8000

type operand = R of int | K of int

type stmt =
  | Bin of Op.binop * int * int * int (* d <- a op b *)
  | Bini of Op.binop * int * int * int (* d <- a op imm *)
  | Un of Op.unop * int * int
  | Set of int * int
  | Ld of int * int (* d <- p[k] *)
  | St of int * int (* p[k] <- s *)
  | Ldx of int * int (* d <- p[x land 15] *)
  | Stx of int * int (* p[x land 15] <- s *)
  | If of Op.cond * int * operand * stmt list (* skip body when (a cond o) *)
  | Loop of int * stmt list (* run body n >= 1 times *)
  | Call of int * int * int (* d <- helper(a, b) *)

type func = {
  body : stmt list;
  init : int array; (* initial values of slots 2 .. nslots-1 *)
  has_call : bool;
}

(* ---- generation ---- *)

let reg_binops = Op.[| Add; Sub; Mul; And; Or; Xor |]
let imm_binops = Op.[| Add; Sub; Mul; And; Or; Xor; Lsh; Rsh |]
let unops = Op.[| Com; Neg; Mov; Not |]
let conds = Op.[| Lt; Le; Gt; Ge; Eq; Ne |]

let gen_imm r =
  match Rng.int r 4 with
  | 0 -> Rng.range r (-16) 16
  | 1 -> Rng.range r (-2000) 2000
  | 2 -> Rng.range r (-100000) 100000
  | _ -> Rng.range r (-0x7FFFFFFF) 0x7FFFFFFF

let slot r = Rng.int r nslots

let gen_simple r =
  match Rng.int r 20 with
  | 0 | 1 | 2 | 3 | 4 -> Bin (Rng.pick r reg_binops, slot r, slot r, slot r)
  | 5 | 6 | 7 | 8 | 9 ->
    let op = Rng.pick r imm_binops in
    let imm =
      match op with Op.Lsh | Op.Rsh -> Rng.int r 32 | Op.Mul -> Rng.range r (-300) 300 | _ -> gen_imm r
    in
    Bini (op, slot r, slot r, imm)
  | 10 | 11 -> Un (Rng.pick r unops, slot r, slot r)
  | 12 -> Set (slot r, gen_imm r)
  | 13 | 14 -> Ld (slot r, Rng.int r data_words)
  | 15 | 16 -> St (slot r, Rng.int r data_words)
  | 17 -> Ldx (slot r, slot r)
  | _ -> Stx (slot r, slot r)

let gen_if r body =
  let o = if Rng.bool r then R (slot r) else K (gen_imm r) in
  If (Rng.pick r conds, slot r, o, body)

(* straight-line statements plus forward branches: loop bodies *)
let rec gen_inner r budget acc =
  if budget <= 0 then List.rev acc
  else if Rng.int r 8 = 0 && budget >= 3 then
    let k = Rng.range r 1 (min 5 (budget - 1)) in
    gen_inner r (budget - k - 1) (gen_if r (gen_inner r k []) :: acc)
  else gen_inner r (budget - 1) (gen_simple r :: acc)

(* [size] statements at top level *)
let gen_func r ~size =
  let has_call = ref false in
  let rec go budget acc =
    if budget <= 0 then List.rev acc
    else
      match Rng.int r 40 with
      | 0 | 1 when budget >= 4 ->
        let k = Rng.range r 2 (min 10 (budget - 1)) in
        (* trip counts vary little, so a function's run time follows its size *)
        go (budget - k - 1) (Loop (Rng.range r 6 8, gen_inner r k []) :: acc)
      | 2 | 3 | 4 when budget >= 3 ->
        let k = Rng.range r 1 (min 6 (budget - 1)) in
        go (budget - k - 1) (gen_if r (gen_inner r k []) :: acc)
      | 5 ->
        has_call := true;
        go (budget - 1) (Call (slot r, slot r, slot r) :: acc)
      | _ -> go (budget - 1) (gen_simple r :: acc)
  in
  let body = go size [] in
  { body; init = Array.init (nslots - 2) (fun _ -> gen_imm r); has_call = !has_call }

let rec count_stmts l =
  List.fold_left
    (fun n s ->
      match s with If (_, _, _, b) | Loop (_, b) -> n + 1 + count_stmts b | _ -> n + 1)
    0 l

(* ---- evaluation: the oracle ---- *)

let sext32 v = (v lsl 31) asr 31
let u32 v = v land 0xFFFFFFFF

(* the helper every [Call] targets *)
let helper_fn x y = sext32 ((x * 3) + y)

let eval_binop op a b =
  match op with
  | Op.Add -> sext32 (a + b)
  | Op.Sub -> sext32 (a - b)
  | Op.Mul -> sext32 (a * b)
  | Op.And -> a land b
  | Op.Or -> a lor b
  | Op.Xor -> a lxor b
  | Op.Lsh -> sext32 (a lsl (b land 31))
  | Op.Rsh -> a asr (b land 31)
  | Op.Div | Op.Mod -> invalid_arg "eval_binop"

let eval_cond c a b =
  match c with
  | Op.Lt -> a < b
  | Op.Le -> a <= b
  | Op.Gt -> a > b
  | Op.Ge -> a >= b
  | Op.Eq -> a = b
  | Op.Ne -> a <> b

(* [eval f ~a ~b ~data] runs [f] on a copy of the data words [data]
   (32-bit values) and returns slot 0 *)
let eval (f : func) ~a ~b ~(data : int array) =
  let s = Array.make nslots 0 in
  s.(0) <- sext32 a;
  s.(1) <- sext32 b;
  Array.iteri (fun i v -> s.(i + 2) <- sext32 v) f.init;
  let mem = Array.map u32 data in
  let rec run l = List.iter step l
  and step = function
    | Bin (op, d, x, y) -> s.(d) <- eval_binop op s.(x) s.(y)
    | Bini (op, d, x, k) -> s.(d) <- eval_binop op s.(x) (sext32 k)
    | Un (op, d, x) ->
      s.(d) <-
        (match op with
        | Op.Com -> lnot s.(x)
        | Op.Neg -> sext32 (-s.(x))
        | Op.Mov -> s.(x)
        | Op.Not -> if s.(x) = 0 then 1 else 0)
    | Set (d, k) -> s.(d) <- sext32 k
    | Ld (d, k) -> s.(d) <- sext32 mem.(k)
    | St (x, k) -> mem.(k) <- u32 s.(x)
    | Ldx (d, x) -> s.(d) <- sext32 mem.((s.(x) land 60) / 4)
    | Stx (v, x) -> mem.((s.(x) land 60) / 4) <- u32 s.(v)
    | If (c, x, o, body) ->
      let rhs = match o with R y -> s.(y) | K k -> sext32 k in
      if not (eval_cond c s.(x) rhs) then run body
    | Loop (n, body) ->
      for _ = 1 to n do
        run body
      done
    | Call (d, x, y) -> s.(d) <- helper_fn s.(x) s.(y)
  in
  run f.body;
  s.(0)

(* ---- emission through any VCODE instantiation ---- *)

module type EMITTER = sig
  val lambda :
    ?base:int -> ?leaf:bool -> ?capacity:int -> ?buf:Codebuf.t -> string -> Gen.t * Reg.t array

  val end_gen : Gen.t -> Vcode.code
  val getreg_exn : Gen.t -> cls:[ `Temp | `Var ] -> Vtype.t -> Reg.t
  val genlabel : Gen.t -> int
  val label : Gen.t -> int -> unit
  val arith : Gen.t -> Op.binop -> Vtype.t -> Reg.t -> Reg.t -> Reg.t -> unit
  val arith_imm : Gen.t -> Op.binop -> Vtype.t -> Reg.t -> Reg.t -> int -> unit
  val unary : Gen.t -> Op.unop -> Vtype.t -> Reg.t -> Reg.t -> unit
  val set : Gen.t -> Vtype.t -> Reg.t -> int64 -> unit
  val load_imm : Gen.t -> Vtype.t -> Reg.t -> Reg.t -> int -> unit
  val load_reg : Gen.t -> Vtype.t -> Reg.t -> Reg.t -> Reg.t -> unit
  val store_imm : Gen.t -> Vtype.t -> Reg.t -> Reg.t -> int -> unit
  val store_reg : Gen.t -> Vtype.t -> Reg.t -> Reg.t -> Reg.t -> unit
  val branch : Gen.t -> Op.cond -> Vtype.t -> Reg.t -> Reg.t -> int -> unit
  val branch_imm : Gen.t -> Op.cond -> Vtype.t -> Reg.t -> int -> int -> unit
  val push_arg : Gen.t -> Vtype.t -> Reg.t -> unit
  val do_call : Gen.t -> Gen.jtarget -> unit
  val retval : Gen.t -> Vtype.t -> Reg.t -> unit
  val ret : Gen.t -> Vtype.t -> Reg.t option -> unit
end

(* The three phases a client of VCODE goes through, exposed separately
   so the traced run can put a span around each: [lambda] opens the
   function, [body] emits its statements, [end_gen] links it. *)
module Emit (E : EMITTER) = struct
  let lambda ~base (f : func) =
    let g, args = E.lambda ~base ~leaf:(not f.has_call) "%i%i%p" in
    (g, args)

  let body g args (f : func) =
    let open Vtype in
    let slots = Array.init nslots (fun _ -> E.getreg_exn g ~cls:`Var I) in
    let p = E.getreg_exn g ~cls:`Var P in
    let cnt = E.getreg_exn g ~cls:`Var I in
    let tmp = E.getreg_exn g ~cls:`Temp I in
    E.unary g Op.Mov I slots.(0) args.(0);
    E.unary g Op.Mov I slots.(1) args.(1);
    E.unary g Op.Mov P p args.(2);
    Array.iteri (fun i v -> E.set g I slots.(i + 2) (Int64.of_int v)) f.init;
    let s i = slots.(i) in
    let rec emit = function
      | Bin (op, d, x, y) -> E.arith g op I (s d) (s x) (s y)
      | Bini (op, d, x, k) -> E.arith_imm g op I (s d) (s x) k
      | Un (op, d, x) -> E.unary g op I (s d) (s x)
      | Set (d, k) -> E.set g I (s d) (Int64.of_int k)
      | Ld (d, k) -> E.load_imm g I (s d) p (4 * k)
      | St (x, k) -> E.store_imm g I (s x) p (4 * k)
      | Ldx (d, x) ->
        E.arith_imm g Op.And I tmp (s x) 60;
        E.load_reg g I (s d) p tmp
      | Stx (v, x) ->
        E.arith_imm g Op.And I tmp (s x) 60;
        E.store_reg g I (s v) p tmp
      | If (c, x, o, b) ->
        let skip = E.genlabel g in
        (match o with
        | R y -> E.branch g c I (s x) (s y) skip
        | K k -> E.branch_imm g c I (s x) k skip);
        List.iter emit b;
        E.label g skip
      | Loop (n, b) ->
        let top = E.genlabel g in
        E.set g I cnt (Int64.of_int n);
        E.label g top;
        List.iter emit b;
        E.arith_imm g Op.Sub I cnt cnt 1;
        E.branch_imm g Op.Gt I cnt 0 top
      | Call (d, x, y) ->
        E.push_arg g I (s x);
        E.push_arg g I (s y);
        E.do_call g (Gen.Jaddr helper_addr);
        E.retval g I (s d)
    in
    List.iter emit f.body;
    E.ret g I (Some slots.(0))

  let end_gen = E.end_gen

  (* [helper_fn], generated at {!helper_addr} *)
  let helper () =
    let g, args = E.lambda ~base:helper_addr ~leaf:true "%i%i" in
    let t = E.getreg_exn g ~cls:`Temp Vtype.I in
    E.arith_imm g Op.Mul Vtype.I t args.(0) 3;
    E.arith g Op.Add Vtype.I t t args.(1);
    E.ret g Vtype.I (Some t);
    E.end_gen g
end

(* {!Emit} as a record of closures, instantiated once per port so the
   timed loop calls through it without applying a functor *)
type emit = {
  e_lambda : base:int -> func -> Gen.t * Reg.t array;
  e_body : Gen.t -> Reg.t array -> func -> unit;
  e_end : Gen.t -> Vcode.code;
  e_helper : unit -> Vcode.code;
}

let emit_of (module E : EMITTER) =
  let module M = Emit (E) in
  { e_lambda = M.lambda; e_body = M.body; e_end = M.end_gen; e_helper = M.helper }
