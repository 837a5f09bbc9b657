(* A predecoded-instruction cache shared by the four CPU simulators.

   Every simulator used to re-read the instruction word from {!Mem} and
   re-run its target's [decode] on every simulated cycle, allocating a
   fresh decoded-instruction value each time.  This module memoizes the
   decode by code address: a word-indexed array maps addresses to a
   value computed from the word (the engine stores the instruction's
   compiled closure), filled lazily on first fetch and consulted before
   [decode] on every later one.  This is the translation-cache
   discipline of real binary-execution engines — the cached form is a
   pure function of the word in memory, so an entry is valid exactly
   until that word is overwritten.

   Invalidation: the owning simulator's memory write watcher calls
   [invalidate] (see
   {!Mem.set_write_watcher}), so stores executed by simulated code,
   host-side [install_code], and the bulk helpers all drop overlapping
   entries.  The [lo, hi) bounds of filled entries make the common case
   — a data store nowhere near code — two comparisons.

   The cache is a pure host-side accelerator: the timing {!Cache} model
   still sees every fetch, so simulated cycle counts and hit/miss stats
   are unchanged.

   The backing array starts small and doubles up to the memory size as
   higher code addresses are predecoded, so short-lived simulators (unit
   tests create thousands) don't pay for a full-memory table. *)

(* Slots hold the values themselves, with [empty] marking a miss: no
   [Some] block per entry, so a fill allocates nothing here and the GC
   promotes only the cached value.  Every other slot holds a value of
   the cache's own ['a] — [set] is the only writer — which is what makes
   the [Obj] conversions below sound. *)
type 'a t = {
  mutable slots : Obj.t array; (* index = byte address / 4 *)
  limit_words : int;               (* memory size / 4: growth ceiling *)
  mutable lo : int;                (* byte-address bounds of filled    *)
  mutable hi : int;                (*   entries: [lo, hi), conservative *)
  mutable fills : int;
  mutable invalidations : int;
  tel : Telemetry.t;               (* mirror of the two stats above; the
                                      disabled sink makes the mirroring
                                      stores land in scratch *)
  tr : Trace.t;                    (* Inval markers; disabled -> scratch *)
  c_fills : Telemetry.counter;
  c_invals : Telemetry.counter;
}

let empty : Obj.t = Obj.repr (ref 0) (* physically distinct from any stored value *)

let initial_words = 4096 (* covers 16KB of code before the first growth *)

let create ?(tel = Telemetry.disabled) ?(trace = Trace.disabled) ?(name = "pdc")
    ~mem_bytes () =
  let limit_words = (mem_bytes + 3) / 4 in
  {
    slots = Array.make (min initial_words limit_words) empty;
    limit_words;
    lo = max_int;
    hi = 0;
    fills = 0;
    invalidations = 0;
    tel;
    tr = trace;
    c_fills = Telemetry.counter tel (name ^ ".fills");
    c_invals = Telemetry.counter tel (name ^ ".invalidations");
  }

(* Look up the decoded instruction at byte address [addr].  [None] means
   the caller must fetch and decode (and should [set] the result).
   Misaligned, negative and out-of-memory addresses miss, so the fetch
   path reproduces the exact {!Mem.Fault} behaviour of an uncached
   simulator.  Deliberately does NOT maintain a hit counter: this runs
   once per simulated instruction, and a shared-counter update here is
   measurable against the very decode cost the cache exists to avoid.
   Engagement is observable from the outside as [fills] staying flat
   while instructions retire (see test/test_decode_cache.ml). *)
let[@inline] find t addr =
  let idx = addr lsr 2 in (* negative addr -> huge idx -> miss *)
  if addr land 3 = 0 && idx < Array.length t.slots then
    let v = Array.unsafe_get t.slots idx in
    if v == empty then None else Some (Obj.obj v)
  else None

(* [find] without the [Some]: the hot-path lookup *)
let[@inline] find_or t addr default =
  let idx = addr lsr 2 in
  if addr land 3 = 0 && idx < Array.length t.slots then
    let v = Array.unsafe_get t.slots idx in
    if v == empty then default else Obj.obj v
  else default

let grow t needed_idx =
  let cur = Array.length t.slots in
  let target = ref (max cur 1) in
  while !target <= needed_idx do
    target := !target * 2
  done;
  let n = min !target t.limit_words in
  if n > cur then begin
    let slots = Array.make n empty in
    Array.blit t.slots 0 slots 0 cur;
    t.slots <- slots
  end

(* Record the decoded instruction for [addr].  Addresses outside the
   simulated memory are silently not cached (they fault on fetch anyway
   before reaching here). *)
let set t addr insn =
  let idx = addr lsr 2 in
  if idx < t.limit_words then begin
    if idx >= Array.length t.slots then grow t idx;
    t.slots.(idx) <- Obj.repr insn;
    if addr < t.lo then t.lo <- addr;
    if addr + 4 > t.hi then t.hi <- addr + 4;
    t.fills <- t.fills + 1;
    Telemetry.bump t.tel t.c_fills
  end

(* Drop every entry whose word overlaps [addr, addr + len).  Cheap when
   the write is outside the predecoded span (the common case for data
   stores): two comparisons. *)
let invalidate t addr len =
  if len > 0 && addr < t.hi && addr + len > t.lo then begin
    t.invalidations <- t.invalidations + 1;
    Telemetry.bump t.tel t.c_invals;
    Telemetry.event t.tel Telemetry.Cache_invalidate ~a:addr ~b:len;
    Trace.mark t.tr Trace.Inval addr;
    let w0 = max (addr lsr 2) (t.lo lsr 2) in
    let w1 = min ((addr + len - 1) lsr 2) ((t.hi - 1) lsr 2) in
    let w1 = min w1 (Array.length t.slots - 1) in
    for w = w0 to w1 do
      t.slots.(w) <- empty
    done
  end

(* Drop everything — the predecode analogue of v_end's icache flush. *)
let clear t =
  if t.hi > t.lo then begin
    t.invalidations <- t.invalidations + 1;
    Telemetry.bump t.tel t.c_invals;
    Telemetry.event t.tel Telemetry.Cache_invalidate ~a:t.lo ~b:(t.hi - t.lo);
    let w1 = min ((t.hi - 1) lsr 2) (Array.length t.slots - 1) in
    for w = t.lo lsr 2 to w1 do
      t.slots.(w) <- empty
    done
  end;
  t.lo <- max_int;
  t.hi <- 0

let stats t = (t.fills, t.invalidations)

let reset_stats t =
  t.fills <- 0;
  t.invalidations <- 0
