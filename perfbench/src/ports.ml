(* The four ports and the four engine tiers, behind one record type.

   A [machine] is one simulator instance on one tier, reduced to the
   public calls and the counters the layers already expose: the run
   entry point ([Sim.call]), retired instructions and simulated cycles,
   the timing caches, and the predecode / superblock / region caches'
   statistics.  A [kit] is one port's code generators: its checked
   VCODE instantiation and its DPF and ASH clients. *)

open Vcodebase
module Mem = Vmachine.Mem
module Cache = Vmachine.Cache
module Tel = Vmachine.Telemetry

type tier = Off | Predecode | Blocks | Regions

let tiers = [| Off; Predecode; Blocks; Regions |]
let tier_name = function Off -> "off" | Predecode -> "predecode" | Blocks -> "blocks" | Regions -> "regions"
let tier_index = function Off -> 0 | Predecode -> 1 | Blocks -> 2 | Regions -> 3

let flags = function
  | Off -> (false, false, false)
  | Predecode -> (true, false, false)
  | Blocks -> (true, true, false)
  | Regions -> (true, true, true)

type isa = Mips | Sparc | Alpha | Ppc

let isa_name = function Mips -> "mips" | Sparc -> "sparc" | Alpha -> "alpha" | Ppc -> "ppc"
let isas = [| Mips; Sparc; Alpha; Ppc |]
let isa_index = function Mips -> 0 | Sparc -> 1 | Alpha -> 2 | Ppc -> 3

type machine = {
  mem : Mem.t;
  call : entry:int -> int list -> int; (* integer result, sign-extended *)
  insns : unit -> int;
  cycles : unit -> int;
  icache : Cache.t;
  dcache : Cache.t;
  pdc_stats : unit -> int * int; (* predecode (fills, invalidations) *)
  bc_stats : unit -> int * int; (* superblocks (compiles, invalidations) *)
  rc_stats : unit -> int * int; (* regions (promotions, invalidations) *)
}

let assemble ~mem ~icache ~dcache ~pdc ~bc ~rc ~insns ~cycles ~call =
  {
    mem;
    call;
    insns;
    cycles;
    icache;
    dcache;
    pdc_stats = (fun () -> Vmachine.Decode_cache.stats pdc);
    bc_stats = (fun () -> Vmachine.Block_cache.stats bc);
    rc_stats = (fun () -> Vmachine.Region_cache.stats rc);
  }

(* a fresh simulator of [isa] on [tier]; [tel] is the simulator's own
   telemetry sink (the traced run reads block-compile latency from it) *)
let machine ?(tel = Tel.disabled) ?(cfg = Vmachine.Mconfig.router) isa tier =
  let predecode, blocks, regions = flags tier in
  match isa with
  | Mips ->
    let module S = Vmips.Mips_sim in
    let m = S.create ~telemetry:tel ~predecode ~blocks ~regions cfg in
    assemble ~mem:m.S.mem ~icache:m.S.icache ~dcache:m.S.dcache ~pdc:m.S.pdc ~bc:m.S.bc
      ~rc:m.S.rc
      ~insns:(fun () -> m.S.insns)
      ~cycles:(fun () -> m.S.cycles)
      ~call:(fun ~entry args ->
        S.call m ~entry (List.map (fun v -> S.Int v) args);
        S.ret_int m)
  | Sparc ->
    let module S = Vsparc.Sparc_sim in
    let m = S.create ~telemetry:tel ~predecode ~blocks ~regions cfg in
    assemble ~mem:m.S.mem ~icache:m.S.icache ~dcache:m.S.dcache ~pdc:m.S.pdc ~bc:m.S.bc
      ~rc:m.S.rc
      ~insns:(fun () -> m.S.insns)
      ~cycles:(fun () -> m.S.cycles)
      ~call:(fun ~entry args ->
        S.call m ~entry (List.map (fun v -> S.Int v) args);
        S.ret_int m)
  | Alpha ->
    let module S = Valpha.Alpha_sim in
    let m = S.create ~telemetry:tel ~predecode ~blocks ~regions cfg in
    assemble ~mem:m.S.mem ~icache:m.S.icache ~dcache:m.S.dcache ~pdc:m.S.pdc ~bc:m.S.bc
      ~rc:m.S.rc
      ~insns:(fun () -> m.S.insns)
      ~cycles:(fun () -> m.S.cycles)
      ~call:(fun ~entry args ->
        S.call m ~entry (List.map (fun v -> S.Int v) args);
        S.ret_int m)
  | Ppc ->
    let module S = Vppc.Ppc_sim in
    let m = S.create ~telemetry:tel ~predecode ~blocks ~regions cfg in
    assemble ~mem:m.S.mem ~icache:m.S.icache ~dcache:m.S.dcache ~pdc:m.S.pdc ~bc:m.S.bc
      ~rc:m.S.rc
      ~insns:(fun () -> m.S.insns)
      ~cycles:(fun () -> m.S.cycles)
      ~call:(fun ~entry args ->
        S.call m ~entry (List.map (fun v -> S.Int v) args);
        S.ret_int m)

let install (m : machine) (c : Vcode.code) = Mem.install_code m.mem ~addr:c.Vcode.base c.Vcode.gen.Gen.buf

(* ---- per-port code generators ---- *)

module type EMITTER = sig
  include Progs.EMITTER

  val jump : Gen.t -> Gen.jtarget -> unit
end

type kit = {
  kname : string; (* "mips", ..., "mips_peephole" *)
  isa : isa; (* the simulator that runs its code *)
  emitter : (module EMITTER);
  dpf_compile : base:int -> table_base:int -> Dpf.Filter.t list -> Dpf.compiled;
  dpf_tables : Mem.t -> Dpf.compiled -> unit;
  ash : base:int -> Vcode.code; (* the Table 4 copy+checksum ASH loop *)
}

module Kit (T : Target.S) = struct
  module V = Vcode.Make (T)
  module D = Dpf.Make (T)
  module A = Ash.Make (T)

  let kit kname isa =
    {
      kname;
      isa;
      emitter = (module V : EMITTER);
      dpf_compile = (fun ~base ~table_base fs -> D.compile ~base ~table_base fs);
      dpf_tables = D.install_tables;
      ash = (fun ~base -> A.gen_ash ~base [ Ash.Copy; Ash.Checksum ]);
    }
end

module K_mips = Kit (Vmips.Mips_backend)
module K_sparc = Kit (Vsparc.Sparc_backend)
module K_alpha = Kit (Valpha.Alpha_backend)
module K_ppc = Kit (Vppc.Ppc_backend)
module K_mips_peep = Kit (Vcode.Make_peephole (Vmips.Mips_backend))

(* the four ports *)
let kits =
  [|
    K_mips.kit "mips" Mips;
    K_sparc.kit "sparc" Sparc;
    K_alpha.kit "alpha" Alpha;
    K_ppc.kit "ppc" Ppc;
  |]

(* the codegen rotation: the four ports plus the peephole-wrapped MIPS port *)
let emit_kits = Array.append kits [| K_mips_peep.kit "mips_peephole" Mips |]

let emit_of (k : kit) =
  let module E = (val k.emitter) in
  Progs.emit_of (module E)
