(* The tier engine shared by the four CPU simulators.

   A port supplies its instruction semantics through {!ISA}: a decoder
   and one function that compiles a decoded instruction into the
   closure that executes it.  The engine owns everything else: the
   machine record, instruction fetch and the predecode cache, the four
   execution tiers (interpreter, predecode, superblocks, regions) and
   their dispatch loops, the icache probe/reconciliation discipline,
   and the exact abort/fault fixups that keep every tier bit-identical.
   Every tier runs the same closures: the interpreter compiles and
   calls one per retired instruction, the predecode tier caches them by
   code address, and the superblock and region compilers fuse runs of
   them.

   Two block shapes exist, selected by [ISA.delay]:
   - delay-slot ports (MIPS, SPARC): [pc]/[npc] are the architectural
     pc pair and [btarget] the branch-target scratch; a block ends in
     terminator + delay slot, and a block is only entered with
     [npc = pc + 4] (not from inside a delay slot);
   - no-delay ports (Alpha, PPC): [btarget] is the next-pc scratch
     every instruction writes and [npc] is unused; a block ends in its
     terminator and any pc is a valid entry.

   In both shapes a terminator leaves the control-transfer target in
   [btarget] (the fallthrough for an untaken branch), so block commits,
   region guards and exit fixups read one field.  The hot state ([pc],
   [npc], [btarget], [blk_i], [insns], [cycles]) is a direct record
   field that compiled closures capture with the record itself: nothing
   on a hot path goes through an ISA accessor. *)

let default_fuel = 200_000_000

(* what every port re-exports: the machine record and its field names,
   the block/region records, the halt address and the error *)
module Core = struct
  exception Machine_error of string

  (* how the block scanner treats an instruction: a straight-line body
     instruction, a control transfer that ends a block, or a trap that
     only the interpreter executes (a scan stops before it) *)
  type kind = Body | Term | Trap

  let halt_addr = 0x10000000 (* outside simulated memory: return-to-host *)

  (* ['i] is the port's decoded instruction, ['a] its architectural
     state (registers, condition codes, calling-convention scratch) *)
  type ('i, 'a) machine = {
    mem : Mem.t;
    icache : Cache.t;
    dcache : Cache.t;
    pdc : (unit -> unit) Decode_cache.t;
        (* host-side predecode of each word's straight-line closure; no cycle effect *)
    predecode : bool;
    bc : block Block_cache.t; (* superblock translation cache; no cycle effect *)
    blocks : bool;
    rc : region Region_cache.t; (* tier-3 region cache; no cycle effect *)
    regions : bool;
    probe : Sim_probe.t;      (* shared telemetry probe; never touches timing *)
    tr : Trace.t;             (* execution trace; the disabled sink is scratch *)
    cfg : Mconfig.t;
    arch : 'a;
    mutable pc : int;
    mutable npc : int;     (* delay-slot ports: the architectural next pc *)
    mutable btarget : int; (* branch-target / next-pc scratch; avoids a per-step ref *)
    mutable blk_i : int;   (* index of the block instruction in flight; abort-fixup scratch *)
    mutable cycles : int;
    mutable insns : int;
  }

  (* A compiled straight-line run: one closure per instruction, ending
     at the first control transfer (compiled in, together with its
     delay slot on a delay-slot port) or the [Block_cache.max_insns]
     cap. *)
  and block = {
    entry : int;          (* code address of the first instruction *)
    n : int;              (* instruction count, terminator (+ delay slot) included *)
    run : unit -> unit;   (* the whole straight-line run fused into one closure:
                             per-instruction icache probes, [blk_i] updates and
                             the final pc/npc/insns commit are baked in at
                             compile time *)
    has_delay : bool;     (* ends in branch + delay slot *)
  }

  (* A tier-3 region: a hot block plus its dominant direct-chained
     successors fused into one closure per pass, with interior branches
     specialized to their dominant direction (a mismatch raises
     [Region_cache.Side_exit]) and the final block committing the pc
     generically.  [r_fast] is the probe-free pass used after the first
     ([r_run]) pass of a self-looping region has installed every icache
     line; it equals [r_run] when two region lines conflict in the
     direct-mapped icache. *)
  and region = {
    r_entry : int;
    r_n : int;                   (* instructions retired per full pass *)
    r_spans : (int * int) array; (* constituent-block (addr, bytes) *)
    r_run : unit -> unit;        (* one pass, icache probes included *)
    r_fast : unit -> unit;       (* one pass, probes elided *)
    r_addrs : int array;         (* region insn index -> code address *)
    r_delay : bool array;        (* index is its block's delay slot *)
  }
end

include Core

(* What a port provides.  [sem] is the port's only definition of what
   an instruction does; everything else here classifies instructions
   for the block scanner. *)
module type ISA = sig
  type insn
  type arch

  val port : string (* telemetry/trace name prefix *)
  val big_endian : bool
  val delay : bool (* one branch delay slot (pc/npc/btarget shape) *)

  (* fresh architectural state; runs before any write watcher exists,
     so it may preload memory (e.g. a runtime) without invalidations *)
  val init : Mconfig.t -> Mem.t -> arch

  (* decode one instruction word; raises [Bad_insn] on an illegal one *)
  exception Bad_insn of int

  val decode : int -> insn

  (* [sem m pc ft insn] is the closure that executes [insn] at [pc]: it
     updates the architectural state, charges any cycle surcharge, and
     a terminator leaves its target in [btarget], or [ft] when it does
     not transfer.  A store closure raises [Block_cache.Retired] after
     writing when [Block_cache.dirty] is set; a trap raises
     [Machine_error].  The closure neither fetches nor retires: the
     engine does the icache access, the issue cycle, [insns] and the pc
     update.  On a delay-slot port the interpreter may run a
     terminator's closure twice for one execution (a branch in a delay
     slot), so a second run on the state the first left must change
     nothing: MIPS and SPARC terminators write only [btarget] and a link
     register holding a pc-derived value, and write the link before
     reading any register. *)
  val sem : (insn, arch) machine -> int -> int -> insn -> unit -> unit

  val kind : insn -> kind

  (* whether a body instruction's closure can raise (memory fault, store
     abort via [Block_cache.Retired], a trap); only those record
     [blk_i] in a block *)
  val act_raises : insn -> bool

  (* whether terminator closures can raise *)
  val term_raises : bool

  (* target of an unconditional direct transfer at the given pc *)
  val static_target : int -> insn -> int option

  (* an architectural no-op the untraced fast pass may drop *)
  val is_nop : insn -> bool
end

module type S = sig
  type insn
  type arch

  val create :
    ?predecode:bool ->
    ?blocks:bool ->
    ?regions:bool ->
    ?telemetry:Telemetry.t ->
    ?trace:Trace.t ->
    Mconfig.t ->
    (insn, arch) machine

  (* single-step with exact cycle accounting *)
  val step : (insn, arch) machine -> unit

  (* run from [pc] until control reaches [halt_addr] *)
  val run : ?fuel:int -> (insn, arch) machine -> unit
  val reset_stats : (insn, arch) machine -> unit

  (* models v_end's icache invalidation: drops the timing caches and
     every host-side translation *)
  val flush_caches : (insn, arch) machine -> unit
end

(* The public surface every finished port shares: what harnesses
   generic over ports rely on. *)
module type SIM = sig
  type insn
  type arch
  type t = (insn, arch) machine

  include S with type insn := insn and type arch := arch

  (* call [entry] with integer arguments, returning the integer result *)
  val call_ints : ?fuel:int -> t -> entry:int -> int list -> int
end

module Make (I : ISA) : S with type insn := I.insn and type arch := I.arch = struct
  let delay = I.delay

  let create ?(predecode = true) ?(blocks = true) ?(regions = false)
      ?(telemetry = Telemetry.disabled) ?(trace = Trace.disabled) (cfg : Mconfig.t) : (I.insn, I.arch) machine =
    let mem = Mem.create ~big_endian:I.big_endian ~size:cfg.mem_bytes () in
    let arch = I.init cfg mem in
    let name suffix = I.port ^ suffix in
    let pdc =
      Decode_cache.create ~tel:telemetry ~trace ~name:(name ".pdc") ~mem_bytes:cfg.mem_bytes ()
    in
    let bc = Block_cache.create ~tel:telemetry ~trace ~name:(name ".bc") ~mem_bytes:cfg.mem_bytes
        ~len_bytes:(fun b -> 4 * b.n) () in
    let rc = Region_cache.create ~tel:telemetry ~name:(name ".rc") ~mem_bytes:cfg.mem_bytes
        ~spans:(fun r -> r.r_spans) () in
    (* The one write watcher keeps every translation cache coherent.  A
       dropped region must abort a running pass even when the
       overwritten constituent block is no longer bc-resident (so
       [Block_cache.invalidate] dropped nothing): raise bc's dirty flag
       unconditionally and let the shared store closures raise Retired. *)
    Mem.set_write_watcher mem (fun addr len ->
        Decode_cache.invalidate pdc addr len;
        Block_cache.invalidate bc addr len;
        if regions && Region_cache.invalidate rc addr len then Block_cache.mark_dirty bc);
    {
      mem;
      pdc;
      predecode;
      bc;
      blocks;
      rc;
      regions;
      probe = Sim_probe.create ~trace telemetry ~port:I.port ~predecode ~blocks ~regions;
      tr = trace;
      icache = Cache.create ~size_bytes:cfg.icache_bytes ~line_bytes:cfg.line_bytes
                 ~miss_penalty:cfg.imiss_penalty;
      dcache = Cache.create ~size_bytes:cfg.dcache_bytes ~line_bytes:cfg.line_bytes
                 ~miss_penalty:cfg.dmiss_penalty;
      cfg;
      arch;
      pc = 0;
      npc = 4;
      btarget = 0;
      blk_i = 0;
      cycles = 0;
      insns = 0;
    }

  (* ---------------------------------------------------------------- *)
  (* Fetch.  The predecode cache holds each word's straight-line
     closure: a terminator's untaken fallthrough is [pc + 8] on a
     delay-slot port (past the delay slot) and [pc + 4] otherwise.  It
     holds the closure alone, not the decoded instruction beside it:
     short, cold, churned code fills it about as often as it runs, and
     every extra word per entry is one more word the GC promotes. *)

  let straight = if delay then 8 else 4

  (* the predecode miss value: no compiled closure is physically equal *)
  let absent : unit -> unit = fun () -> ()

  (* Decode the word at [pc]: raises [Mem.Fault] on a wild or misaligned
     pc and [I.Bad_insn] on an illegal word, which the entry points turn
     into [illegal] (pc is left on the word) — the hot loop installs no
     handler of its own. *)
  let[@inline] decode_at m pc = I.decode (Mem.read_u32 m.mem pc)

  let illegal m =
    let w = Mem.read_u32 m.mem m.pc in
    Machine_error (Printf.sprintf "illegal instruction 0x%08x at 0x%x" w m.pc)

  (* compile the straight-line closure of [insn] at [pc], and remember
     it when predecode is on *)
  let compile_at m pc insn =
    let act = I.sem m pc (pc + straight) insn in
    if m.predecode then Decode_cache.set m.pdc pc act;
    act

  (* fetch for the compilers: the instruction at [pc] and its
     straight-line closure; [None] for a word the interpreter would trap
     on, which is not compiled *)
  let fetch_opt m pc =
    match decode_at m pc with
    | insn ->
      let act = Decode_cache.find_or m.pdc pc absent in
      Some (insn, if act != absent then act else compile_at m pc insn)
    | exception (I.Bad_insn _ | Mem.Fault _) -> None

  (* ---------------------------------------------------------------- *)
  (* The interpreter: retire the instruction at [m.pc] by running its
     closure.  The caller does the icache access and the 1-cycle issue
     charge. *)

  (* the pc update after an instruction's closure: the delay-slot shape
     steps to [npc] and moves the branch scratch into [npc]; the
     no-delay shape moves the next-pc scratch into [pc] *)
  let[@inline] advance m =
    if delay then begin
      m.pc <- m.npc;
      m.npc <- m.btarget
    end
    else m.pc <- m.btarget

  (* An interpreted store can find [Block_cache.dirty] set — left over
     from an aborted block, or raised by this very store dropping a
     resident block — and raise [Retired] before [advance].  No block is
     running, so the store has simply retired: every caller catches
     [Retired] and finishes with [advance]. *)
  let[@inline] run_act m pc act =
    m.btarget <- (if delay then m.npc else pc) + 4;
    act ();
    advance m

  (* With predecode on this is closure-threaded: one lookup and one
     indirect call (a miss decodes and compiles first).

     In a delay slot ([npc <> pc + 4]) the straight-line closure is
     still right for a body instruction, which leaves the preset
     fallthrough [npc + 4] in [btarget].  A branch there falls through
     to [npc + 4], not to its straight-line [pc + 8]: when [btarget]
     comes back as [pc + 8], the branch runs again as a one-off closure
     that knows its fallthrough (see {!ISA.sem}: running a terminator
     twice is running it once). *)
  let[@inline] interp_pd m pc =
    let act = Decode_cache.find_or m.pdc pc absent in
    let act = if act != absent then act else compile_at m pc (decode_at m pc) in
    if (not delay) || m.npc = pc + 4 then run_act m pc act
    else begin
      let ft = m.npc + 4 in
      m.btarget <- ft;
      act ();
      if m.btarget = pc + 8 then I.sem m pc ft (decode_at m pc) ();
      advance m
    end

  (* with predecode off every step decodes and compiles afresh *)
  let[@inline] interp_off m pc =
    run_act m pc (I.sem m pc ((if delay then m.npc else pc) + 4) (decode_at m pc))

  let[@inline] interp m =
    let pc = m.pc in
    m.insns <- m.insns + 1;
    if m.predecode then interp_pd m pc else interp_off m pc

  let interp_one m = try interp m with Block_cache.Retired -> advance m

  (* ---------------------------------------------------------------- *)
  (* Superblock translation (see {!Block_cache}): fuse a straight-line
     run of instruction closures into one, executed by [exec_chain]
     without per-instruction dispatch.  They are the closures the
     interpreter runs, so a block retires with the same architectural
     state and timing.  The pc is not maintained per instruction; the
     straight-line values are reconstructed on the (rare) abort paths
     from [blk_i]. *)

  (* instructions allowed before the terminator (+ delay slot) within
     the [Block_cache.max_insns] cap *)
  let max_body = Block_cache.max_insns - if delay then 2 else 1

  (* Fuse a list of action closures into one, sequencing by direct calls
     in chunks of four: one chunk-closure entry per four instructions
     instead of a per-instruction array load and loop-counter update.
     Exceptions propagate out of the fused closure unchanged. *)
  let rec seq (cs : (unit -> unit) list) : unit -> unit =
    match cs with
    | [] -> fun () -> ()
    | [ a ] -> a
    | [ a; b ] -> fun () -> a (); b ()
    | [ a; b; c ] -> fun () -> a (); b (); c ()
    | [ a; b; c; d ] -> fun () -> a (); b (); c (); d ()
    | a :: b :: c :: d :: rest ->
      let r = seq rest in
      fun () -> a (); b (); c (); d (); r ()

  (* Scan the straight-line run entered at [entry]: body instructions
     up to the first control transfer (with its delay slot, which must
     itself be a body instruction, on a delay-slot port), a trap, an
     uncompilable word (an illegal word, unmapped memory — left for the
     interpreter to trap on), or the length cap.  Returns the
     per-instruction (can-raise, action) list and whether it ends in a
     terminator; [None] if not even one instruction compiles.  Shared
     by the superblock and region compilers. *)
  let scan_run m entry =
    let body = ref [] and nbody = ref 0 in
    let fin = ref None in
    let stop = ref false in
    let pc = ref entry in
    while (not !stop) && !nbody < max_body do
      match fetch_opt m !pc with
      | None -> stop := true
      | Some (insn, act) -> (
        match I.kind insn with
        | Body ->
          body := (I.act_raises insn, act) :: !body;
          incr nbody;
          pc := !pc + 4
        | Trap -> stop := true
        | Term -> (
          stop := true;
          if not delay then fin := Some [ (I.term_raises, act) ]
          else
            match fetch_opt m (!pc + 4) with
            | Some (d, da) when I.kind d = Body ->
              fin := Some [ (I.term_raises, act); (I.act_raises d, da) ]
            | _ -> ()))
    done;
    let tail, term = match !fin with Some tl -> (tl, true) | None -> ([], false) in
    match List.rev_append !body tail with
    | [] -> None
    | all -> Some (all, term)

  (* one instruction's probed closure: the instruction that starts a
     new icache line carries the registerized probe, and only can-raise
     instructions record their index in [blk_i] *)
  let probed m tags shift mask i addr raises boundary act =
    if boundary then begin
      let line = addr lsr shift in
      let idx = line land mask in
      if raises then
        fun () ->
          m.blk_i <- i;
          if Array.unsafe_get tags idx <> line then begin
            let p = Cache.access_uncounted m.icache addr in
            if p <> 0 then m.cycles <- m.cycles + p
          end;
          act ()
      else
        fun () ->
          if Array.unsafe_get tags idx <> line then begin
            let p = Cache.access_uncounted m.icache addr in
            if p <> 0 then m.cycles <- m.cycles + p
          end;
          act ()
    end
    else if raises then
      fun () ->
        m.blk_i <- i;
        act ()
    else act

  (* Traced runs wrap every per-insn closure so it records its issue
     before acting — issue order matches the interpreter's retire
     stream exactly, including a faulting instruction being the last
     record.  Untraced compilation keeps the exact closures above
     (bit-identical behaviour, zero overhead). *)
  let traced m addr f =
    if not (Trace.is_enabled m.tr) then f
    else
      fun () ->
        Trace.retire m.tr addr;
        f ()

  (* The commit is one more cannot-raise action fused onto the end: if
     anything earlier raises, it never runs, and the fixup handlers
     account the partial run instead.  A terminated run commits the
     branch scratch, a capped one its static fallthrough. *)
  let commit m ~n ~term ~ft =
    if term then
      fun () ->
        m.insns <- m.insns + n;
        let t = m.btarget in
        m.pc <- t;
        m.npc <- t + 4
    else
      fun () ->
        m.insns <- m.insns + n;
        m.pc <- ft;
        m.npc <- ft + 4

  (* Compile the straight-line run entered at [entry] into a superblock.

     Timing is baked into the closures: a later same-line fetch is a
     guaranteed hit — a block spans at most 256 consecutive bytes, far
     below the icache size, so it cannot evict its own lines, and a
     guaranteed hit is a no-op under bulk hit reconciliation.  Capturing
     the tag array here is safe because [Cache.flush] clears it in
     place. *)
  let compile_block m entry =
    let tags, shift, mask = Cache.probe m.icache in
    match scan_run m entry with
    | None -> None
    | Some (all, term) ->
      let n = List.length all in
      let wrap i (raises, act) =
        let addr = entry + (4 * i) in
        let boundary = i = 0 || addr lsr shift <> (addr - 4) lsr shift in
        traced m addr (probed m tags shift mask i addr raises boundary act)
      in
      let fin = commit m ~n ~term ~ft:(entry + (4 * n)) in
      Some { entry; n; run = seq (List.mapi wrap all @ [ fin ]); has_delay = term && delay }

  (* Exit fixups shared by blocks and regions, for the instruction at
     pass index [i] (address [a], [dslot] if it is a delay slot) of the
     translation entered at [entry]; both credit the [i + 1]
     instructions the pass retired or issued:
     - [Retired] (a store invalidated a resident block): the aborting
       instruction has retired, pc/npc name its successor, and control
       returns to the dispatch loop without chaining;
     - a fault: the faulting instruction counts as issued (the
       interpreter increments [insns] before executing), pc names it
       and npc its successor — just as [run_go] would leave them. *)
  let retired_fixup m ~entry ~i ~a ~dslot =
    m.insns <- m.insns + i + 1;
    Sim_probe.abort m.probe ~entry ~i;
    if dslot then begin
      let t = m.btarget in
      m.pc <- t;
      m.npc <- t + 4
    end
    else begin
      m.pc <- a + 4;
      m.npc <- a + 8
    end

  let fault_fixup m ~i ~a ~dslot =
    m.insns <- m.insns + i + 1;
    m.pc <- a;
    m.npc <- (if dslot then m.btarget else a + 4)

  (* ---------------------------------------------------------------- *)
  (* Tier-3 regions (see {!Region_cache}): follow the dominant chain of
     straight-line runs from a hot entry and fuse the whole trace into
     one closure per pass.  Interior branch-terminated blocks are
     specialized to their profiled direction: after the terminator (and
     its delay slot) retire, a guard compares the branch scratch against
     the trace's next block and raises [Side_exit] with the
     pass-relative retired count on a mismatch.  The final block
     commits the pc generically (so a self-looping trace naturally
     re-enters the pass loop, and any other exit falls back to block
     dispatch).  The closures are the same instruction closures
     the superblock compiler uses, so architectural state, memory
     order, cycle surcharges and the dirty/[Retired] abort protocol are
     shared with tier 2 by construction. *)

  (* An unconditional direct transfer pins the next pc statically:
     when it matches the trace successor the guard can never fire and
     is omitted, so jump-chained code pays nothing between fused
     blocks.  The decode reads current memory, and any later store to
     that word invalidates the containing block span (and with it the
     region). *)
  let static_jump_target m p n =
    let tpc = p + (4 * (n - if delay then 2 else 1)) in
    match fetch_opt m tpc with Some (i, _) -> I.static_target tpc i | None -> None

  (* Follow dominant successors: a branch-terminated block extends
     through its profiled edge, a capped block through its static
     fallthrough.  Stop when the trace closes back on [entry] (a
     loop), on an unprofiled edge, an unscannable run, or the cap. *)
  let collect m entry =
    let rec go pc acc nblocks =
      match scan_run m pc with
      | None -> List.rev acc
      | Some (all, term) -> (
        let n = List.length all in
        let acc = (pc, all, term, n) :: acc in
        let nblocks = nblocks + 1 in
        let succ = if term then Region_cache.dominant_succ m.rc pc else Some (pc + (4 * n)) in
        match succ with
        | Some s when s land 3 = 0 && s > 0 && s <> entry && nblocks < Region_cache.max_blocks ->
          go s acc nblocks
        | _ -> List.rev acc)
    in
    go entry [] 0

  let compile_region m entry =
    let tags, shift, mask = Cache.probe m.icache in
    match collect m entry with
    | [] | [ _ ] -> None (* a single block gains nothing over tier 2 *)
    | blks ->
      let blks = Array.of_list blks in
      let nb = Array.length blks in
      let r_n = Array.fold_left (fun a (_, _, _, n) -> a + n) 0 blks in
      let spans = Array.map (fun (p, _, _, n) -> (p, 4 * n)) blks in
      let addrs = Array.make r_n 0 in
      let dslots = Array.make r_n false in
      let is_traced = Trace.is_enabled m.tr in
      (* two closure lists built in step: the probed first pass and the
         probe-free fast pass; [blk_i]/trace wrapping is identical.
         [elide] drops the instruction from the fast pass entirely:
         delay-slot nops retire nothing architectural, and the fast pass
         neither probes nor traces nor counts per-insn, so the closure
         call is pure overhead — on jump-chained code a third of the
         trace.  Positions ([blk_i], side-exit payloads) are assigned at
         build time, so eliding a closure shifts no index. *)
      let probedc = ref [] and fastc = ref [] in
      let k = ref 0 in
      let prev_line = ref min_int in
      Array.iteri
        (fun bi (p, all, term, n) ->
          List.iteri
            (fun j (raises, act) ->
              let i = !k in
              let addr = p + (4 * j) in
              addrs.(i) <- addr;
              if delay && term && j = n - 1 then dslots.(i) <- true;
              let line = addr lsr shift in
              let elide =
                (not is_traced) && (not raises)
                && (match fetch_opt m addr with Some (i, _) -> I.is_nop i | None -> false)
              in
              probedc :=
                traced m addr (probed m tags shift mask i addr raises (line <> !prev_line) act)
                :: !probedc;
              if not elide then
                fastc := traced m addr (probed m tags shift mask i addr raises false act) :: !fastc;
              prev_line := line;
              incr k)
            all;
          if bi < nb - 1 && term then begin
            (* branch-direction specialization: the pass continues into
               the profiled successor; anything else side-exits with the
               instructions retired so far (this block included) *)
            let expected = (fun (p, _, _, _) -> p) blks.(bi + 1) in
            match static_jump_target m p n with
            | Some t when t = expected -> () (* guard provably never fires *)
            | _ ->
              let kk = !k in
              let g () = if m.btarget <> expected then raise (Region_cache.Side_exit kk) in
              probedc := g :: !probedc;
              fastc := g :: !fastc
          end)
        blks;
      let p_last, _, last_term, n_last = blks.(nb - 1) in
      let fin = commit m ~n:r_n ~term:last_term ~ft:(p_last + (4 * n_last)) in
      let r_run = seq (List.rev (fin :: !probedc)) in
      (* The fast pass defers even the pc commit: while the trace
         self-loops, pc stays at the entry (the probed pass committed it
         there and nothing inside a pass writes it), so the tail only
         credits the pass and checks the backedge, raising [Loop_exit]
         for [exec_region] to commit the exit target once the self-loop
         finally breaks.  A capped final block has a static fallthrough,
         so it keeps the generic commit ([exec_region]'s pc check ends the
         loop). *)
      let fast_tail =
        if last_term then
          (fun () ->
            m.insns <- m.insns + r_n;
            if m.btarget <> entry then raise Region_cache.Loop_exit)
        else fin
      in
      (* The probe-free pass is only sound when no two distinct region
         lines collide in the direct-mapped icache: then a completed
         probed pass leaves every line resident and later passes are
         guaranteed hits (no-ops under bulk hit reconciliation).  The
         dcache is separate and nothing else runs between passes. *)
      let lines =
        List.sort_uniq compare (Array.to_list (Array.map (fun a -> a lsr shift) addrs))
      in
      let fast_ok =
        List.length (List.sort_uniq compare (List.map (fun l -> l land mask) lines))
        = List.length lines
      in
      let r_fast = if fast_ok then seq (List.rev (fast_tail :: !fastc)) else r_run in
      Some { r_entry = entry; r_n; r_spans = spans; r_run; r_fast; r_addrs = addrs;
             r_delay = dslots }

  (* latency-instrumented entry points: the stopwatch brackets the whole
     scan/trace-follow + closure compile + cache insert, feeding the
     bc.compile_ns / rc.promote_ns distributions (no clock read when the
     sink is disabled) *)
  let compile_block_timed m entry =
    let t0 = Block_cache.compile_start m.bc in
    let r = compile_block m entry in
    Block_cache.compile_done m.bc t0;
    r

  let promote m entry =
    let t0 = Region_cache.promote_start m.rc in
    (match compile_region m entry with
    | Some r -> Region_cache.set m.rc entry ~insns:r.r_n r
    | None -> Region_cache.mark_unpromotable m.rc entry);
    Region_cache.promote_done m.rc t0

  (* Execute region [r] (preconditions as for [exec_chain], with
     [r.r_n <= fuel]): a probed first pass, then probe-free passes while
     the trace self-loops and fuel lasts.  Exits mirror [exec_chain]
     exactly, with [r_addrs]/[r_delay] standing in for the straight-line
     address arithmetic; the extra exit is [Side_exit k], which credits
     the [k] instructions the pass retired and resumes generic dispatch
     at the branch scratch. *)
  let exec_region m (r : region) fuel0 =
    Trace.mark m.tr Trace.Block_enter r.r_entry;
    if Sim_probe.enabled m.probe then Sim_probe.region_exec m.probe ~entry:r.r_entry;
    Block_cache.begin_block m.bc;
    let fuel = ref fuel0 in
    match
      r.r_run ();
      fuel := !fuel - r.r_n;
      let entry = r.r_entry and rn = r.r_n and fast = r.r_fast in
      while m.pc = entry && rn <= !fuel do
        fast ();
        fuel := !fuel - rn
      done
    with
    | () -> !fuel
    | exception Region_cache.Loop_exit ->
      (* the raising fast pass ran to completion and credited itself;
         perform its deferred commit *)
      let t = m.btarget in
      m.pc <- t;
      m.npc <- t + 4;
      !fuel - r.r_n
    | exception Region_cache.Side_exit k ->
      m.insns <- m.insns + k;
      Sim_probe.side_exit m.probe ~entry:r.r_entry ~i:k;
      let t = m.btarget in
      m.pc <- t;
      m.npc <- t + 4;
      !fuel - k
    | exception Block_cache.Retired ->
      let i = m.blk_i in
      retired_fixup m ~entry:r.r_entry ~i ~a:r.r_addrs.(i) ~dslot:r.r_delay.(i);
      !fuel - (i + 1)
    | exception e ->
      let i = m.blk_i in
      fault_fixup m ~i ~a:r.r_addrs.(i) ~dslot:r.r_delay.(i);
      raise e

  (* the region promoted at [pc], on the regions tier only *)
  let[@inline] region_at m pc = if m.regions then Region_cache.find m.rc pc else None

  (* Execute [b] (preconditions: [b.n <= fuel], and on a delay-slot
     port [m.npc = b.entry + 4]), then chain directly into the next
     resident block while fuel lasts.  Returns the remaining fuel.  The
     regions tier adds its hooks: per-dispatch hotness counting
     (promoting on the threshold crossing), successor-edge profiling
     after each clean commit, and chaining into a resident region ahead
     of any block at the next pc. *)
  let rec exec_chain m (b : block) fuel =
    Trace.mark m.tr Trace.Block_enter b.entry;
    if Sim_probe.enabled m.probe then begin
      Sim_probe.block_exec m.probe ~entry:b.entry;
      Block_cache.note_exec m.bc b.entry
    end;
    if m.regions && Region_cache.note_dispatch m.rc b.entry then promote m b.entry;
    Block_cache.begin_block m.bc;
    match b.run () with
    | () ->
      let fuel = fuel - b.n in
      if m.pc = halt_addr then fuel
      else begin
        if m.regions then Region_cache.note_succ m.rc b.entry m.pc;
        match region_at m m.pc with
        | Some r when r.r_n <= fuel -> exec_region m r fuel
        | _ ->
          if m.pc = b.entry && b.n <= fuel then
            (* self-loop fast path: a clean exit invalidated no resident
               block, so [b] is certainly still cached for [entry] *)
            exec_chain m b fuel
          else (
            match Block_cache.find m.bc m.pc with
            | Some nb when nb.n <= fuel -> exec_chain m nb fuel
            | _ -> fuel)
      end
    | exception Block_cache.Retired ->
      let i = m.blk_i in
      retired_fixup m ~entry:b.entry ~i ~a:(b.entry + (4 * i)) ~dslot:(b.has_delay && i = b.n - 1);
      fuel - (i + 1)
    | exception e ->
      let i = m.blk_i in
      fault_fixup m ~i ~a:(b.entry + (4 * i)) ~dslot:(b.has_delay && i = b.n - 1);
      raise e

  (* ---------------------------------------------------------------- *)
  (* Run loops                                                          *)

  let step m =
    let mi0 = Cache.misses m.icache in
    (let p = Cache.access_uncounted m.icache m.pc in
     if p <> 0 then m.cycles <- m.cycles + p);
    Trace.retire m.tr m.pc;
    (try interp_one m with I.Bad_insn _ -> raise (illegal m));
    m.cycles <- m.cycles + 1;
    Cache.add_hits m.icache (1 - (Cache.misses m.icache - mi0))

  (* The icache access of an interpreted instruction.  [interp] defers
     the 1-cycle-per-instruction component of the accounting to its
     caller; [run] adds it in bulk at exit from the instruction-count
     delta, so the hot loop carries one counter update less per step.
     The tag probe is inlined here with its geometry held in parameters
     (registers), falling back to the full model only on a miss; [run]
     reconciles the hit counter at exit, since a fetch loop performs
     exactly one icache access per retired instruction.  Totals are
     exact whenever [run] returns or raises. *)
  let[@inline] fetch_probe m tags shift mask =
    let pc = m.pc in
    let line = pc lsr shift in
    if Array.unsafe_get tags (line land mask) <> line then
      (let p = Cache.access_uncounted m.icache pc in
       if p <> 0 then m.cycles <- m.cycles + p);
    Trace.retire m.tr pc

  (* one interpreted instruction inside the dispatch loop; returns the
     fuel left *)
  let[@inline] step_one m tags shift mask fuel =
    fetch_probe m tags shift mask;
    interp_one m;
    fuel - 1

  (* The interpreter's run loop.  The fuel check is a register
     countdown.  One [Retired] handler covers the whole loop rather than
     one per store; the fuel left is recovered from the retired count. *)
  let rec interp_loop m tags shift mask fuel =
    if m.pc <> halt_addr then begin
      if fuel = 0 then raise (Machine_error "out of fuel (infinite loop?)");
      fetch_probe m tags shift mask;
      interp m;
      interp_loop m tags shift mask (fuel - 1)
    end

  let rec run_go m tags shift mask fuel =
    let i0 = m.insns in
    try interp_loop m tags shift mask fuel
    with Block_cache.Retired ->
      advance m;
      run_go m tags shift mask (fuel - (m.insns - i0))

  (* a block may start here: always on a no-delay port; on a delay-slot
     port only off the straight line's delay slots (e.g. not after a
     public [step] stopped on a branch) *)
  let[@inline] enterable m pc = (not delay) || m.npc = pc + 4

  (* Block-dispatch run loop: resident region (regions tier) ->
     [exec_region]; resident block -> [exec_chain]; no block yet ->
     compile, cache, retry; uncompilable entry / insufficient fuel for a
     whole block / non-enterable pc -> one interpreted instruction.  Fuel
     discipline is identical to [run_go]: a region pass or block only
     runs when it fits whole, so the out-of-fuel point falls on the same
     instruction. *)
  let rec run_blocks_go m tags shift mask fuel =
    let pc = m.pc in
    if pc <> halt_addr then begin
      if fuel = 0 then raise (Machine_error "out of fuel (infinite loop?)");
      let fuel =
        if not (enterable m pc) then step_one m tags shift mask fuel
        else
          match region_at m pc with
          | Some r when r.r_n <= fuel ->
            let fuel = exec_region m r fuel in
            Sim_probe.chain_flush m.probe;
            fuel
          | _ -> (
            match Block_cache.find m.bc pc with
            | Some b when b.n <= fuel ->
              let fuel = exec_chain m b fuel in
              Sim_probe.chain_flush m.probe;
              fuel
            | Some _ -> step_one m tags shift mask fuel
            | None -> (
              match compile_block_timed m pc with
              | Some b ->
                Block_cache.set m.bc pc b;
                fuel
              | None -> step_one m tags shift mask fuel))
      in
      run_blocks_go m tags shift mask fuel
    end

  let run ?(fuel = default_fuel) m =
    let i0 = m.insns in
    let mi0 = Cache.misses m.icache in
    let t0 = Sim_probe.run_start m.probe in
    let finish () =
      let retired = m.insns - i0 in
      m.cycles <- m.cycles + retired;
      Cache.add_hits m.icache (retired - (Cache.misses m.icache - mi0));
      Sim_probe.chain_flush m.probe;
      Sim_probe.retired m.probe retired;
      Sim_probe.run_done m.probe t0
    in
    let tags, shift, mask = Cache.probe m.icache in
    (try
       if m.blocks || m.regions then run_blocks_go m tags shift mask fuel
       else run_go m tags shift mask fuel
     with e ->
       let e = match e with I.Bad_insn _ -> illegal m | e -> e in
       finish ();
       Sim_probe.fault m.probe ~pc:m.pc;
       raise e);
    finish ()

  let reset_stats m =
    m.cycles <- 0;
    m.insns <- 0;
    Cache.reset_stats m.icache;
    Cache.reset_stats m.dcache

  (* The predecode drop is belt-and-braces — the write watcher already
     keeps it coherent — and costs nothing on the simulated clock. *)
  let flush_caches m =
    Cache.flush m.icache;
    Cache.flush m.dcache;
    Decode_cache.clear m.pdc;
    Block_cache.clear m.bc;
    Region_cache.clear m.rc
end
