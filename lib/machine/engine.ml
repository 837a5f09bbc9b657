(* The tier engine shared by the four CPU simulators.

   A port supplies its instruction semantics (decode, the interpreter
   step, per-instruction action closures) through {!ISA}; the engine
   owns everything else: the machine record, the four execution tiers
   (interpreter, predecode, superblocks, regions) and their dispatch
   loops, the icache probe/reconciliation discipline, and the exact
   abort/fault fixups that keep every tier bit-identical to the
   interpreter.

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

  let halt_addr = 0x10000000 (* outside simulated memory: return-to-host *)

  (* ['i] is the port's decoded instruction, ['a] its architectural
     state (registers, condition codes, calling-convention scratch) *)
  type ('i, 'a) machine = {
    mem : Mem.t;
    icache : Cache.t;
    dcache : Cache.t;
    pdc : 'i Decode_cache.t; (* host-side predecode; no cycle effect *)
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

(* What a port provides.  Everything here is called at decode or
   compile time except [step_inner], which the interpreter tiers call
   once per instruction. *)
module type ISA = sig
  type insn
  type arch

  val port : string (* telemetry/trace name prefix *)
  val big_endian : bool
  val delay : bool (* one branch delay slot (pc/npc/btarget shape) *)

  (* fresh architectural state; runs before any write watcher exists,
     so it may preload memory (e.g. a runtime) without invalidations *)
  val init : Mconfig.t -> Mem.t -> arch

  (* decode at [pc] through the predecode cache; raises
     [Machine_error] on an illegal word, [Mem.Fault] on a wild pc *)
  val fetch : (insn, arch) machine -> int -> insn

  (* retire the instruction at [pc]: bump [insns], execute, leave the
     next pc in [pc] (and [npc]); the caller does the icache access and
     the 1-cycle issue charge.  It takes the machine alone because a
     one-argument call through the functor argument skips the
     arity-checking application path a two-argument call takes. *)
  val step_inner : (insn, arch) machine -> unit

  (* compiled action of a body (non-control) instruction; [None] for a
     terminator or an instruction that must stay interpreted *)
  val act_of : (insn, arch) machine -> insn -> (unit -> unit) option

  (* compiled terminator at the given pc: writes the target (or the
     fallthrough) into [btarget]; [None] when not compilable *)
  val term_of : (insn, arch) machine -> int -> insn -> (unit -> unit) option

  (* whether the [act_of] closure can raise (memory fault, store abort
     via [Block_cache.Retired], a trap); only those record [blk_i] *)
  val act_raises : insn -> bool

  (* whether [term_of] closures can raise *)
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
    ignore (Mem.add_write_watcher mem (Decode_cache.invalidate pdc) : Mem.watcher);
    ignore (Mem.add_write_watcher mem (Block_cache.invalidate bc) : Mem.watcher);
    (* A dropped region must abort a running pass even when the
       overwritten constituent block is no longer bc-resident (so the
       Block_cache watcher above dropped nothing): raise bc's dirty flag
       unconditionally and let the shared store closures raise Retired. *)
    if regions then
      ignore
        (Mem.add_write_watcher mem (fun addr len ->
             if Region_cache.invalidate rc addr len then Block_cache.mark_dirty bc)
          : Mem.watcher);
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
  (* Superblock translation (see {!Block_cache}): compile a
     straight-line decoded run into one closure per instruction,
     executed by [exec_chain] without per-instruction dispatch.  Each
     [act_of] closure replicates its [step_inner] arm exactly — same
     arithmetic, same memory-access order, same cycle surcharges — so a
     block retires with the same architectural state and timing as the
     interpreter.  The pc is not maintained per instruction; the
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

  (* decode for the compilers: a word the interpreter would trap on
     is not compiled *)
  let fetch_opt m pc =
    match I.fetch m pc with
    | i -> Some i
    | exception (Machine_error _ | Mem.Fault _) -> None

  (* Scan the straight-line run entered at [entry]: body instructions
     up to the first control transfer (with its delay slot, which must
     itself be a plain body instruction, on a delay-slot port), a
     non-compilable instruction (a trap, an illegal word, unmapped
     memory — left for the interpreter to trap on), or the length cap.
     Returns the per-instruction (can-raise, action) list and whether
     it ends in a terminator; [None] if not even one instruction
     compiles.  Shared by the superblock and region compilers. *)
  let scan_run m entry =
    let body = ref [] and nbody = ref 0 in
    let fin = ref None in
    let stop = ref false in
    let pc = ref entry in
    while (not !stop) && !nbody < max_body do
      match fetch_opt m !pc with
      | None -> stop := true
      | Some insn -> (
        match I.act_of m insn with
        | Some a ->
          body := (I.act_raises insn, a) :: !body;
          incr nbody;
          pc := !pc + 4
        | None -> (
          stop := true;
          match I.term_of m !pc insn with
          | None -> ()
          | Some t when not delay -> fin := Some [ (I.term_raises, t) ]
          | Some t -> (
            match fetch_opt m (!pc + 4) with
            | None -> ()
            | Some d -> (
              match I.act_of m d with
              | None -> ()
              | Some da -> fin := Some [ (I.term_raises, t); (I.act_raises d, da) ]))))
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
     pass index [i] (address [a], [dslot] if it is a delay slot):
     - [Retired] (a store invalidated a resident block): the aborting
       instruction has retired, pc/npc name its successor, and control
       returns to the dispatch loop without chaining;
     - a fault: the faulting instruction counts as issued (the
       interpreter increments [insns] before executing), pc names it
       and npc its successor — just as [run_go] would leave them. *)
  let retired_fixup m ~a ~dslot =
    if dslot then begin
      let t = m.btarget in
      m.pc <- t;
      m.npc <- t + 4
    end
    else begin
      m.pc <- a + 4;
      m.npc <- a + 8
    end

  let fault_fixup m ~a ~dslot =
    m.pc <- a;
    m.npc <- (if dslot then m.btarget else a + 4)

  (* Execute [b] (preconditions: [b.n <= fuel], and on a delay-slot
     port [m.npc = b.entry + 4]), then chain directly into the next
     resident block while fuel lasts.  Returns the remaining fuel. *)
  let rec exec_chain m (b : block) fuel =
    Trace.mark m.tr Trace.Block_enter b.entry;
    if Sim_probe.enabled m.probe then begin
      Sim_probe.block_exec m.probe ~entry:b.entry;
      Block_cache.note_exec m.bc b.entry
    end;
    Block_cache.begin_block m.bc;
    match b.run () with
    | () ->
      let fuel = fuel - b.n in
      if m.pc = halt_addr then fuel
      else if m.pc = b.entry && b.n <= fuel then
        (* self-loop fast path: a clean exit means no resident block was
           invalidated, so [b] is certainly still cached for [entry] *)
        exec_chain m b fuel
      else (
        match Block_cache.find m.bc m.pc with
        | Some nb when nb.n <= fuel -> exec_chain m nb fuel
        | _ -> fuel)
    | exception Block_cache.Retired ->
      let i = m.blk_i in
      m.insns <- m.insns + i + 1;
      Sim_probe.abort m.probe ~entry:b.entry ~i;
      retired_fixup m ~a:(b.entry + (4 * i)) ~dslot:(b.has_delay && i = b.n - 1);
      fuel - (i + 1)
    | exception e ->
      let i = m.blk_i in
      m.insns <- m.insns + i + 1;
      fault_fixup m ~a:(b.entry + (4 * i)) ~dslot:(b.has_delay && i = b.n - 1);
      raise e

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
     dispatch).  The closures are the same [act_of]/[term_of] values
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
    match fetch_opt m tpc with Some i -> I.static_target tpc i | None -> None

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
                && (match fetch_opt m addr with Some x -> I.is_nop x | None -> false)
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
      m.insns <- m.insns + i + 1;
      Sim_probe.abort m.probe ~entry:r.r_entry ~i;
      retired_fixup m ~a:r.r_addrs.(i) ~dslot:r.r_delay.(i);
      !fuel - (i + 1)
    | exception e ->
      let i = m.blk_i in
      m.insns <- m.insns + i + 1;
      fault_fixup m ~a:r.r_addrs.(i) ~dslot:r.r_delay.(i);
      raise e

  (* [exec_chain] for regions mode: identical block chaining plus the
     tier-3 hooks — per-dispatch hotness counting (promoting on the
     threshold crossing), successor-edge profiling after each clean
     commit, and chaining into a resident region when one exists at the
     next pc. *)
  let rec exec_chain_r m (b : block) fuel =
    Trace.mark m.tr Trace.Block_enter b.entry;
    if Sim_probe.enabled m.probe then begin
      Sim_probe.block_exec m.probe ~entry:b.entry;
      Block_cache.note_exec m.bc b.entry
    end;
    if Region_cache.note_dispatch m.rc b.entry then promote m b.entry;
    Block_cache.begin_block m.bc;
    match b.run () with
    | () ->
      let fuel = fuel - b.n in
      if m.pc = halt_addr then fuel
      else begin
        Region_cache.note_succ m.rc b.entry m.pc;
        match Region_cache.find m.rc m.pc with
        | Some r when r.r_n <= fuel -> exec_region m r fuel
        | _ ->
          if m.pc = b.entry && b.n <= fuel then exec_chain_r m b fuel
          else (
            match Block_cache.find m.bc m.pc with
            | Some nb when nb.n <= fuel -> exec_chain_r m nb fuel
            | _ -> fuel)
      end
    | exception Block_cache.Retired ->
      let i = m.blk_i in
      m.insns <- m.insns + i + 1;
      Sim_probe.abort m.probe ~entry:b.entry ~i;
      retired_fixup m ~a:(b.entry + (4 * i)) ~dslot:(b.has_delay && i = b.n - 1);
      fuel - (i + 1)
    | exception e ->
      let i = m.blk_i in
      m.insns <- m.insns + i + 1;
      fault_fixup m ~a:(b.entry + (4 * i)) ~dslot:(b.has_delay && i = b.n - 1);
      raise e

  (* ---------------------------------------------------------------- *)
  (* Run loops                                                          *)

  let step m =
    let mi0 = Cache.misses m.icache in
    (let p = Cache.access_uncounted m.icache m.pc in
     if p <> 0 then m.cycles <- m.cycles + p);
    Trace.retire m.tr m.pc;
    I.step_inner m;
    m.cycles <- m.cycles + 1;
    Cache.add_hits m.icache (1 - (Cache.misses m.icache - mi0))

  (* [step_inner] defers the 1-cycle-per-instruction component of the
     accounting to its caller; [run] adds it in bulk at exit from the
     instruction-count delta, so the hot loop carries one counter update
     less per step.  The icache tag probe is inlined here with its
     geometry held in parameters (registers), falling back to the full
     model only on a miss; [run] reconciles the hit counter at exit,
     since a fetch loop performs exactly one icache access per retired
     instruction.  The fuel check is a register countdown.  Totals are
     exact whenever [run] returns or raises. *)
  let rec run_go m tags shift mask fuel =
    let pc = m.pc in
    if pc <> halt_addr then begin
      if fuel = 0 then raise (Machine_error "out of fuel (infinite loop?)");
      let line = pc lsr shift in
      if Array.unsafe_get tags (line land mask) <> line then
        (let p = Cache.access_uncounted m.icache pc in
         if p <> 0 then m.cycles <- m.cycles + p);
      Trace.retire m.tr pc;
      I.step_inner m;
      run_go m tags shift mask (fuel - 1)
    end

  (* one interpreted instruction inside the block-dispatch loop: the
     registerized icache probe of [run_go], then [step_inner] *)
  let[@inline] step_one m tags shift mask =
    let pc = m.pc in
    let line = pc lsr shift in
    if Array.unsafe_get tags (line land mask) <> line then
      (let p = Cache.access_uncounted m.icache pc in
       if p <> 0 then m.cycles <- m.cycles + p);
    Trace.retire m.tr pc;
    I.step_inner m

  (* a block may start here: always on a no-delay port; on a delay-slot
     port only off the straight line's delay slots (e.g. not after a
     public [step] stopped on a branch) *)
  let[@inline] enterable m pc = (not delay) || m.npc = pc + 4

  (* Block-dispatch run loop: resident block -> [exec_chain]; no block
     yet -> compile, cache, retry; uncompilable entry / insufficient fuel
     for a whole block / non-enterable pc -> one interpreted
     instruction.  Fuel discipline is identical to [run_go]: a block
     only runs when it fits whole, so the out-of-fuel point falls on the
     same instruction. *)
  let rec run_blocks_go m tags shift mask fuel =
    let pc = m.pc in
    if pc <> halt_addr then begin
      if fuel = 0 then raise (Machine_error "out of fuel (infinite loop?)");
      if enterable m pc then (
        match Block_cache.find m.bc pc with
        | Some b when b.n <= fuel ->
          let fuel = exec_chain m b fuel in
          Sim_probe.chain_flush m.probe;
          run_blocks_go m tags shift mask fuel
        | Some _ ->
          step_one m tags shift mask;
          run_blocks_go m tags shift mask (fuel - 1)
        | None -> (
          match compile_block_timed m pc with
          | Some b ->
            Block_cache.set m.bc pc b;
            run_blocks_go m tags shift mask fuel
          | None ->
            step_one m tags shift mask;
            run_blocks_go m tags shift mask (fuel - 1)))
      else begin
        step_one m tags shift mask;
        run_blocks_go m tags shift mask (fuel - 1)
      end
    end

  (* Region-dispatch run loop: [run_blocks_go] with a region probe ahead
     of the block probe, and chaining through [exec_chain_r] so hotness
     and successor profiles accumulate.  Fuel discipline is unchanged —
     a region pass only runs when it fits whole, and when it does not,
     dispatch falls through to the identical block/interpreter ladder. *)
  let rec run_regions_go m tags shift mask fuel =
    let pc = m.pc in
    if pc <> halt_addr then begin
      if fuel = 0 then raise (Machine_error "out of fuel (infinite loop?)");
      if enterable m pc then (
        match Region_cache.find m.rc pc with
        | Some r when r.r_n <= fuel ->
          let fuel = exec_region m r fuel in
          Sim_probe.chain_flush m.probe;
          run_regions_go m tags shift mask fuel
        | _ -> (
          match Block_cache.find m.bc pc with
          | Some b when b.n <= fuel ->
            let fuel = exec_chain_r m b fuel in
            Sim_probe.chain_flush m.probe;
            run_regions_go m tags shift mask fuel
          | Some _ ->
            step_one m tags shift mask;
            run_regions_go m tags shift mask (fuel - 1)
          | None -> (
            match compile_block_timed m pc with
            | Some b ->
              Block_cache.set m.bc pc b;
              run_regions_go m tags shift mask fuel
            | None ->
              step_one m tags shift mask;
              run_regions_go m tags shift mask (fuel - 1))))
      else begin
        step_one m tags shift mask;
        run_regions_go m tags shift mask (fuel - 1)
      end
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
       if m.regions then run_regions_go m tags shift mask fuel
       else if m.blocks then run_blocks_go m tags shift mask fuel
       else run_go m tags shift mask fuel
     with e ->
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
