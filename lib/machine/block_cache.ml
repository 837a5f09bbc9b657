(* A superblock translation cache shared by the four CPU simulators.

   {!Decode_cache} removed per-cycle decoding but every simulator still
   pays a full dispatch — a match over the decoded instruction type plus
   pc/npc bookkeeping — per simulated instruction.  This module holds
   the next rung of the translation ladder: each entry maps a
   basic-block entry address to a target-compiled value (in practice a
   record of OCaml closures, one per instruction of the straight-line
   run ending at the first branch/jump/trap or a length cap) that the
   simulator executes without per-instruction dispatch, chaining
   directly into the next block on a taken branch.

   The cache itself is target-agnostic: ['b] is the simulator's block
   type, and the only thing this module needs to know about it is its
   byte length ([len_bytes], fixed at [create]) so that invalidation
   can tell which resident blocks a store overlaps.

   Invalidation: the owning simulator's one memory write watcher calls
   [invalidate] right after {!Decode_cache.invalidate} (see
   {!Mem.set_write_watcher}), so stores executed by simulated code,
   host-side [install_code] and the bulk helpers all drop overlapping
   blocks.  A store at [addr] can only overlap a block whose entry lies
   in [addr - max_bytes + 4, addr + len), so the scan window is bounded
   by the block-length cap; the [lo, hi) span of resident entries makes
   the common case — a data store nowhere near code — two comparisons.

   Self-modification *inside* a running block is handled by the [dirty]
   flag: [invalidate] raises it whenever it drops a block, the
   simulator's compiled store closures test it after every memory
   write, and abort the rest of the block with {!Retired} when set (the
   dispatch loop then resumes interpretively at the next pc).  The
   aborted-block fixup is always taken conservatively — a store that
   dropped only *other* blocks aborts too, which is correct, merely a
   re-dispatch.

   Like the predecode layer, this is a pure host-side accelerator: the
   timing {!Cache} model still sees every fetch (the simulators probe
   the icache from inside compiled blocks), so simulated cycle counts
   and hit/miss statistics are bit-identical with the cache off. *)

(* Raised by a simulator's compiled store closure when [dirty] is set:
   the store it just performed invalidated a resident block, possibly
   the one executing.  The instruction that raised has fully retired. *)
exception Retired

(* Block-length cap, in instructions.  Bounds both the compiled-run
   length (simulators must not compile longer blocks) and, through
   [max_bytes], the invalidation scan window. *)
let max_insns = 64
let max_bytes = 4 * max_insns

type 'b t = {
  mutable slots : 'b option array; (* index = entry byte address / 4 *)
  limit_words : int;               (* memory size / 4: growth ceiling *)
  len_bytes : 'b -> int;           (* code bytes covered by a block *)
  mutable lo : int;                (* byte-address bounds of resident  *)
  mutable hi : int;                (*   entries: [lo, hi), conservative *)
  mutable dirty : bool;            (* a block was dropped since [begin_block] *)
  mutable compiles : int;
  mutable invalidations : int;
  mutable resident : int;          (* Some slots, kept exact so timeline
                                      gauges never scan the array *)
  tel : Telemetry.t;               (* stats mirror + block-length dist +
                                      ring events; disabled -> scratch *)
  tr : Trace.t;                    (* Inval markers; disabled -> scratch *)
  c_compiles : Telemetry.counter;
  c_evicts : Telemetry.counter;
  c_invals : Telemetry.counter;
  d_block_len : Telemetry.dist;
  d_compile_ns : Telemetry.dist;
  mutable execs : int array;       (* per-entry execution profile, same
                                      indexing as [slots]; [||] unless the
                                      sink is enabled *)
}

let initial_words = 4096

let create ?(tel = Telemetry.disabled) ?(trace = Trace.disabled) ?(name = "bc")
    ~mem_bytes ~len_bytes () =
  let limit_words = (mem_bytes + 3) / 4 in
  let words = min initial_words limit_words in
  {
    slots = Array.make words None;
    limit_words;
    len_bytes;
    lo = max_int;
    hi = 0;
    dirty = false;
    compiles = 0;
    invalidations = 0;
    resident = 0;
    tel;
    tr = trace;
    c_compiles = Telemetry.counter tel (name ^ ".compiles");
    c_evicts = Telemetry.counter tel (name ^ ".evictions");
    c_invals = Telemetry.counter tel (name ^ ".invalidations");
    d_block_len = Telemetry.dist tel (name ^ ".block_len");
    d_compile_ns = Telemetry.dist tel (name ^ ".compile_ns");
    execs = (if Telemetry.is_enabled tel then Array.make words 0 else [||]);
  }

(* Look up the block compiled for entry address [addr].  [None] means
   the dispatch loop should try to compile one (and [set] the result).
   Misaligned, negative and out-of-memory addresses miss.  Like
   {!Decode_cache.find}, deliberately maintains no hit counter — this
   runs once per block dispatch on the hot path; engagement is
   observable as [compiles] staying flat while instructions retire. *)
let[@inline] find t addr =
  let idx = addr lsr 2 in (* negative addr -> huge idx -> miss *)
  if addr land 3 = 0 && idx < Array.length t.slots then Array.unsafe_get t.slots idx
  else None

let grow t needed_idx =
  let cur = Array.length t.slots in
  let target = ref (max cur 1) in
  while !target <= needed_idx do
    target := !target * 2
  done;
  let n = min !target t.limit_words in
  if n > cur then begin
    let slots = Array.make n None in
    Array.blit t.slots 0 slots 0 cur;
    t.slots <- slots;
    if t.execs <> [||] then begin
      let execs = Array.make n 0 in
      Array.blit t.execs 0 execs 0 (Array.length t.execs);
      t.execs <- execs
    end
  end

(* Record the block compiled for entry [addr].  Entries outside the
   simulated memory are silently not cached. *)
let set t addr block =
  let idx = addr lsr 2 in
  if idx < t.limit_words then begin
    if idx >= Array.length t.slots then grow t idx;
    let insns = t.len_bytes block / 4 in
    (match t.slots.(idx) with
    | Some _ ->
      Telemetry.bump t.tel t.c_evicts;
      Telemetry.event t.tel Telemetry.Block_evict ~a:addr ~b:insns
    | None -> t.resident <- t.resident + 1);
    t.slots.(idx) <- Some block;
    if addr < t.lo then t.lo <- addr;
    if addr + 4 > t.hi then t.hi <- addr + 4;
    t.compiles <- t.compiles + 1;
    Telemetry.bump t.tel t.c_compiles;
    Telemetry.observe t.tel t.d_block_len insns;
    Telemetry.event t.tel Telemetry.Block_compile ~a:addr ~b:insns
  end

(* Drop every block whose covered code range overlaps [addr, addr+len).
   A block at entry [e] covers [e, e + len_bytes b); only entries in
   [addr - max_bytes + 4, addr + len) can overlap, and the resident
   span [lo, hi) narrows that further.  Sets [dirty] iff a block was
   actually dropped, so compiled store closures can abort a run whose
   remaining instructions may now be stale. *)
let invalidate t addr len =
  if len > 0 && addr < t.hi + max_bytes - 4 && addr + len > t.lo then begin
    let w0 = max ((max 0 (addr - max_bytes + 4)) lsr 2) (t.lo lsr 2) in
    let w1 = min ((addr + len - 1) lsr 2) ((t.hi - 1) lsr 2) in
    let w1 = min w1 (Array.length t.slots - 1) in
    let dropped = ref false in
    for w = w0 to w1 do
      match Array.unsafe_get t.slots w with
      | None -> ()
      | Some b ->
        let entry = w * 4 in
        if entry + t.len_bytes b > addr && entry < addr + len then begin
          t.slots.(w) <- None;
          t.resident <- t.resident - 1;
          dropped := true
        end
    done;
    if !dropped then begin
      t.dirty <- true;
      t.invalidations <- t.invalidations + 1;
      Telemetry.bump t.tel t.c_invals;
      Telemetry.event t.tel Telemetry.Smc_retire ~a:addr ~b:len;
      Trace.mark t.tr Trace.Inval addr
    end
  end

(* Drop everything — the block-cache analogue of v_end's icache flush. *)
let clear t =
  if t.hi > t.lo then begin
    t.invalidations <- t.invalidations + 1;
    Telemetry.bump t.tel t.c_invals;
    Telemetry.event t.tel Telemetry.Cache_invalidate ~a:t.lo ~b:(t.hi - t.lo);
    Trace.mark t.tr Trace.Inval t.lo;
    t.dirty <- true;
    let w1 = min ((t.hi - 1) lsr 2) (Array.length t.slots - 1) in
    for w = t.lo lsr 2 to w1 do
      t.slots.(w) <- None
    done;
    t.resident <- 0
  end;
  t.lo <- max_int;
  t.hi <- 0

(* Executed-block protocol: the simulator clears [dirty] as it enters a
   block; its compiled store closures [raise Retired] when they find it
   set afterwards. *)
let[@inline] begin_block t = t.dirty <- false
let[@inline] dirty t = t.dirty

(* Raise [dirty] on behalf of a sibling translation tier: the
   regions-mode write watcher calls this when a store drops a region
   whose constituent blocks may not all be resident here, so the store
   closures' dirty test aborts the running pass unconditionally. *)
let[@inline] mark_dirty t = t.dirty <- true

(* Per-entry execution profile.  [note_exec] is called once per block
   execution from inside the simulators' chained dispatch, guarded by
   their probe's enabled flag; the length test below also makes it a
   no-op when profiling is off ([execs] is [[||]]). *)
let[@inline] note_exec t addr =
  let idx = addr lsr 2 in
  if idx < Array.length t.execs then
    Array.unsafe_set t.execs idx (Array.unsafe_get t.execs idx + 1)

(* Stable ordering: execution count descending, entry address ascending
   on ties.  The tie-break matters because this list doubles as the
   region-promotion scan — equal-count candidates must be visited in a
   deterministic order or promotion choices (and thus telemetry) would
   depend on Array.iteri accumulation order. *)
let hot_blocks ?(limit = 20) t =
  let acc = ref [] in
  Array.iteri (fun idx n -> if n > 0 then acc := (4 * idx, n) :: !acc) t.execs;
  let sorted =
    List.sort
      (fun (ea, ca) (eb, cb) -> if ca <> cb then compare cb ca else compare ea eb)
      !acc
  in
  List.filteri (fun i _ -> i < limit) sorted

let stats t = (t.compiles, t.invalidations)

let resident_count t = t.resident

(* Compile-latency stopwatch around the simulators' whole
   scan+compile+set path, feeding <name>.compile_ns.  Both halves gate
   on the sink's enabled flag inside Telemetry, so the disabled path
   never reads the clock. *)
let compile_start t = Telemetry.timer_start t.tel
let compile_done t t0 = Telemetry.timer_stop t.tel t.d_compile_ns t0

let reset_stats t =
  t.compiles <- 0;
  t.invalidations <- 0

(* Fault-injection hook for the trace differ (bin/vtrace.ml --inject,
   test/test_trace.ml): make entry [at] answer with the block compiled
   for [from], i.e. a deliberately wrong translation.  The dispatch
   loop then executes [from]'s instructions when control reaches [at]
   — exactly the class of translation-cache corruption the cross-mode
   differ exists to localize.  [false] when no block is resident at
   [from] or [at] is out of range.  The aliased slot is dropped by
   invalidation like any other (it covers [from]'s byte range, so a
   store near [at] may *miss* it — which is the point: a stale
   mapping). *)
let alias t ~at ~from =
  match find t from with
  | None -> false
  | Some b ->
    let idx = at lsr 2 in
    if at land 3 <> 0 || idx >= t.limit_words then false
    else begin
      if idx >= Array.length t.slots then grow t idx;
      if t.slots.(idx) = None then t.resident <- t.resident + 1;
      t.slots.(idx) <- Some b;
      if at < t.lo then t.lo <- at;
      if at + 4 > t.hi then t.hi <- at + 4;
      true
    end
