(* Tier-3 region translation cache shared by the four CPU simulators.

   {!Block_cache} stops at superblocks: one compiled closure per
   straight-line run, with a dispatch (cache probe, fuel check, dirty
   reset, commit bookkeeping) between every pair of blocks.  On
   loop-heavy code that per-block dispatch is most of the remaining
   cost.  This module holds the next rung: when a block's dispatch
   count crosses {!hot_threshold}, the simulator recompiles a *region*
   — the hot block plus its dominant direct-chained successors, fused
   into one closure whose self-loop fast path runs back-to-back passes
   with icache-tag probes and cycle/insn reconciliation hoisted to the
   region boundary.

   The cache is target-agnostic like {!Block_cache}: ['r] is the
   simulator's region type, and the only thing invalidation needs is
   the set of (addr, len) byte spans its constituent blocks cover (the
   [spans] accessor, fixed at [create]).  Regions are sparse — only
   hot entries are ever promoted — so invalidation walks the resident
   list instead of a bounded address window.

   Profiling lives here too, because it must be cheap and per-entry:

   - dispatch counts ([note_dispatch]): one array bump per block
     dispatch; answers [true] exactly once, when the count crosses
     {!hot_threshold}, which is the simulator's cue to try promotion.
     A failed promotion is pinned with [mark_unpromotable] so the
     builder does not retry every subsequent dispatch.

   - successor profiling ([note_succ]): per entry, a Boyer–Moore
     majority vote over observed next-block entries plus a
     confirmation counter of samples that matched the surviving
     candidate.  [dominant_succ] answers the candidate only when the
     confirmed hits pin the true frequency at >= 75% of a minimum
     sample, which is what licenses branch-direction specialization:
     the region follows the dominant edge and compiles the other
     direction as a side exit.

   Mid-region self-modification rides the lower tier's dirty/[Retired]
   abort protocol, but regions must raise that flag themselves: a
   region's constituent blocks are usually also resident in the owning
   {!Block_cache} (so a store overlapping a region span drops a block
   there and raises its [dirty] flag), yet that is not an invariant —
   a constituent can be dropped from the block cache and never
   re-dispatched at tier 2 while the region stays resident.
   [invalidate] therefore reports whether it dropped a region, and the
   simulators' regions-mode write watcher raises the block cache's
   [dirty] flag on [true], so the compiled store closures — shared
   between tiers — abort the running pass unconditionally.  Like the
   lower tiers this is purely a host-side accelerator: the timing
   {!Cache} model still sees every fetch, so cycle counts and cache
   statistics are bit-identical across tiers. *)

(* Raised by a region's compiled guard when a specialized branch went
   the non-dominant way: the payload is the number of instructions of
   the current pass that retired before the exit (the guard's own
   terminator and delay slot included).  The simulator credits those,
   takes the side-exit target from its branch scratch, and falls back
   to generic block dispatch. *)
exception Side_exit of int

(* Raised by a self-looping region's *fast-pass* tail when the
   backedge finally leaves the trace.  While the trace self-loops, pc
   provably stays at the region entry (the probed pass committed it
   there and nothing inside a pass writes it), so the fast pass defers
   the whole pc/npc commit: its tail only credits the pass's
   instructions and compares the branch scratch against the entry.
   The handler in the simulator's region driver performs the one
   deferred commit from the branch scratch.  The raising pass ran to
   completion — its instructions are already credited. *)
exception Loop_exit

(* Dispatch count at which a block becomes a promotion candidate. *)
let hot_threshold = 64

(* Cap on constituent blocks per region (a trace is never unrolled: it
   stops where it closes back on its entry); with Block_cache.max_insns
   this bounds a region pass at a few hundred instructions, keeping the
   whole-pass fuel requirement modest. *)
let max_blocks = 8

(* Successor-profile sample floor before a dominant edge is trusted. *)
let min_succ_samples = 16

type 'r t = {
  mutable slots : 'r option array; (* index = entry byte address / 4 *)
  limit_words : int;
  spans : 'r -> (int * int) array; (* (addr, code bytes) per block *)
  mutable resident : int list;     (* entry addrs with a region in [slots] *)
  mutable lo : int;                (* byte bounds over all resident spans: *)
  mutable hi : int;                (*   [lo, hi), conservative, never shrunk *)
  mutable hot : int array;         (* per-entry dispatch counts; min_int
                                      pins an entry unpromotable *)
  mutable s_cand : int array;      (* Boyer–Moore successor candidate *)
  mutable s_votes : int array;     (* candidate vote margin *)
  mutable s_hits : int array;      (* samples matching the surviving candidate *)
  mutable s_total : int array;     (* successor samples *)
  mutable pinned : int list;       (* entries pinned by [mark_unpromotable] *)
  mutable promotions : int;
  mutable invalidations : int;
  tel : Telemetry.t;
  c_promotions : Telemetry.counter;
  c_invals : Telemetry.counter;
  d_region_len : Telemetry.dist;
  d_promote_ns : Telemetry.dist;
}

let initial_words = 4096

let create ?(tel = Telemetry.disabled) ?(name = "rc") ~mem_bytes ~spans () =
  let limit_words = (mem_bytes + 3) / 4 in
  let words = min initial_words limit_words in
  {
    slots = Array.make words None;
    limit_words;
    spans;
    resident = [];
    lo = max_int;
    hi = 0;
    hot = Array.make words 0;
    s_cand = Array.make words 0;
    s_votes = Array.make words 0;
    s_hits = Array.make words 0;
    s_total = Array.make words 0;
    pinned = [];
    promotions = 0;
    invalidations = 0;
    tel;
    c_promotions = Telemetry.counter tel (name ^ ".promotions");
    c_invals = Telemetry.counter tel (name ^ ".invalidations");
    d_region_len = Telemetry.dist tel (name ^ ".region_len");
    d_promote_ns = Telemetry.dist tel (name ^ ".promote_ns");
  }

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
    let grow_ints a =
      let b = Array.make n 0 in
      Array.blit a 0 b 0 cur;
      b
    in
    t.hot <- grow_ints t.hot;
    t.s_cand <- grow_ints t.s_cand;
    t.s_votes <- grow_ints t.s_votes;
    t.s_hits <- grow_ints t.s_hits;
    t.s_total <- grow_ints t.s_total
  end

(* Look up the region promoted at entry [addr].  Same contract as
   {!Block_cache.find}: misaligned, negative and out-of-memory
   addresses miss, and no hit counter is maintained on this path. *)
let[@inline] find t addr =
  let idx = addr lsr 2 in
  if addr land 3 = 0 && idx < Array.length t.slots then Array.unsafe_get t.slots idx
  else None

(* Count one tier-2 dispatch of the block at [addr]; [true] exactly
   when the count crosses {!hot_threshold} — the promotion cue.  The
   count keeps rising past the threshold so a *failed* promotion that
   was not pinned would not re-trigger; pinned entries (min_int) and
   out-of-memory addresses never trigger.  The arrays grow lazily to
   the dispatched address (a block entry is always in-memory code, so
   growth is bounded by [limit_words] like {!set}). *)
let[@inline] note_dispatch t addr =
  let idx = addr lsr 2 in
  if addr land 3 = 0 && idx < t.limit_words then begin
    if idx >= Array.length t.hot then grow t idx;
    let n = Array.unsafe_get t.hot idx + 1 in
    Array.unsafe_set t.hot idx n;
    n = hot_threshold
  end
  else false

(* Pin entry [addr] so [note_dispatch] never answers [true] for it
   again: the region builder found no profitable trace there.  Pinned
   entries are remembered so [invalidate] can unpin one whose code is
   overwritten — a pin describes the *current* code at [addr], and new
   code there deserves a fresh promotion attempt. *)
let mark_unpromotable t addr =
  let idx = addr lsr 2 in
  if addr land 3 = 0 && idx < t.limit_words then begin
    if idx >= Array.length t.hot then grow t idx;
    if t.hot.(idx) <> min_int then t.pinned <- addr :: t.pinned;
    t.hot.(idx) <- min_int
  end

(* Record that the block at [entry] was followed by the block at
   [succ] in a chained run: Boyer–Moore vote plus a confirmation
   counter, so the per-entry state is four ints regardless of how many
   distinct successors appear.  [s_hits] counts samples that matched
   the candidate *while it held the candidacy* (it resets whenever a
   new candidate is installed), so it is a lower bound on the
   candidate's true occurrence count. *)
let[@inline] note_succ t entry succ =
  let idx = entry lsr 2 in
  if entry land 3 = 0 && idx < t.limit_words then begin
    if idx >= Array.length t.s_total then grow t idx;
    let votes = Array.unsafe_get t.s_votes idx in
    if votes = 0 then begin
      Array.unsafe_set t.s_cand idx succ;
      Array.unsafe_set t.s_votes idx 1;
      Array.unsafe_set t.s_hits idx 1
    end
    else if Array.unsafe_get t.s_cand idx = succ then begin
      Array.unsafe_set t.s_votes idx (votes + 1);
      Array.unsafe_set t.s_hits idx (Array.unsafe_get t.s_hits idx + 1)
    end
    else Array.unsafe_set t.s_votes idx (votes - 1);
    Array.unsafe_set t.s_total idx (Array.unsafe_get t.s_total idx + 1)
  end

(* The dominant successor of [entry], if the profile pins one.  The
   Boyer–Moore margin alone only bounds the candidate's frequency f at
   >= 50% (votes <= count), so the trigger uses the confirmation
   counter instead: hits <= count by construction, so requiring
   hits * 4 >= total * 3 certifies f >= 75% without keeping exact
   per-successor counts.  A genuinely dominant edge installs its
   candidate early and accumulates hits at nearly its true rate; noisy
   ~50/50 edges churn the candidacy and never reach the floor. *)
let dominant_succ t entry =
  let idx = entry lsr 2 in
  if entry land 3 <> 0 || idx >= Array.length t.s_total then None
  else begin
    let total = t.s_total.(idx) in
    if total >= min_succ_samples && t.s_hits.(idx) * 4 >= total * 3 then
      Some t.s_cand.(idx)
    else None
  end

(* Record the region promoted at entry [addr] ([insns] = instructions
   retired per full pass, for the length distribution and the
   promotion event). *)
let set t addr ~insns region =
  let idx = addr lsr 2 in
  if idx < t.limit_words then begin
    if idx >= Array.length t.slots then grow t idx;
    if t.slots.(idx) = None then t.resident <- addr :: t.resident;
    t.slots.(idx) <- Some region;
    Array.iter
      (fun (a, len) ->
        if a < t.lo then t.lo <- a;
        if a + len > t.hi then t.hi <- a + len)
      (t.spans region);
    t.promotions <- t.promotions + 1;
    Telemetry.bump t.tel t.c_promotions;
    Telemetry.observe t.tel t.d_region_len insns;
    Telemetry.event t.tel Telemetry.Region_promote ~a:addr ~b:insns
  end

let reset_profile t idx =
  t.hot.(idx) <- 0;
  t.s_cand.(idx) <- 0;
  t.s_votes.(idx) <- 0;
  t.s_hits.(idx) <- 0;
  t.s_total.(idx) <- 0

let drop t entry =
  let idx = entry lsr 2 in
  t.slots.(idx) <- None;
  t.resident <- List.filter (fun e -> e <> entry) t.resident;
  (* the entry may become hot and re-promote once recompiled *)
  reset_profile t idx

(* Drop every region one of whose constituent-block spans overlaps
   [addr, addr+len); [true] iff at least one was dropped — the owning
   simulator's write watcher must then raise its Block_cache's [dirty]
   flag so a running pass aborts via the shared dirty/[Retired]
   protocol even when the overwritten constituent is not itself
   resident in the block cache.  Called by the one {!Mem} write
   watcher after the Decode_cache and Block_cache invalidations; the
   resident list is short (only hot entries are promoted), and
   [lo, hi) makes the common case — a data store nowhere near code —
   two comparisons.

   The store also unpins any [mark_unpromotable] entry whose code
   window it overlaps: a pin describes the code the builder saw, and a
   failed trace starts with (at most) one block, so the window is the
   block-length cap.  The pin list is almost always empty, making this
   a nil check per store. *)
let invalidate t addr len =
  if len > 0 && t.pinned <> [] then
    t.pinned <-
      List.filter
        (fun e ->
          if addr < e + (4 * Block_cache.max_insns) && addr + len > e then begin
            reset_profile t (e lsr 2);
            false
          end
          else true)
        t.pinned;
  if len > 0 && addr < t.hi && addr + len > t.lo then begin
    let victims =
      List.filter
        (fun entry ->
          match find t entry with
          | None -> false
          | Some r ->
            Array.exists
              (fun (a, slen) -> a < addr + len && a + slen > addr)
              (t.spans r))
        t.resident
    in
    if victims <> [] then begin
      List.iter (fun e -> drop t e) victims;
      t.invalidations <- t.invalidations + 1;
      Telemetry.bump t.tel t.c_invals;
      true
    end
    else false
  end
  else false

(* Drop everything, profiles and pins included — called from the
   simulators' flush_caches next to Block_cache.clear. *)
let clear t =
  List.iter (fun e -> drop t e) t.resident;
  Array.fill t.hot 0 (Array.length t.hot) 0;
  Array.fill t.s_cand 0 (Array.length t.s_cand) 0;
  Array.fill t.s_votes 0 (Array.length t.s_votes) 0;
  Array.fill t.s_hits 0 (Array.length t.s_hits) 0;
  Array.fill t.s_total 0 (Array.length t.s_total) 0;
  t.pinned <- [];
  t.lo <- max_int;
  t.hi <- 0

let resident_count t = List.length t.resident

(* Promotion-latency stopwatch around the simulators' whole
   trace-follow+compile+[set] path, feeding <name>.promote_ns; both
   halves gate on the sink's enabled flag inside Telemetry. *)
let promote_start t = Telemetry.timer_start t.tel
let promote_done t t0 = Telemetry.timer_stop t.tel t.d_promote_ns t0
let stats t = (t.promotions, t.invalidations)

let reset_stats t =
  t.promotions <- 0;
  t.invalidations <- 0
