(** Tier-3 region translation cache shared by the four CPU simulators.

    Maps a hot superblock entry address to a target-compiled *region*
    — the block plus its dominant direct-chained successors fused into
    one closure — and owns the cheap per-entry profiles (dispatch
    counts, Boyer–Moore successor votes) that drive promotion and
    branch-direction specialization.  ['r] is the owning simulator's
    region type; the cache only needs the (addr, len) byte spans of
    its constituent blocks (the [spans] accessor fixed at {!create})
    to resolve store/region overlap during invalidation.

    Purely a host-side accelerator: the timing {!Cache} model still
    sees every fetch (regions probe the icache at run boundaries and
    reconcile in bulk exactly like superblocks), so simulated cycle
    counts and cache statistics are bit-identical across all tiers. *)

(** Raised by a region's compiled guard when a specialized branch went
    the non-dominant way; the payload is the number of instructions of
    the current pass that retired before the exit.  The simulator
    credits those, takes the target from its branch scratch, and falls
    back to generic block dispatch. *)
exception Side_exit of int

(** raised by a self-looping region's fast-pass tail when the backedge
    leaves the trace: the pass ran to completion and credited its own
    instructions, and the driver performs the one deferred pc commit
    from the branch scratch *)
exception Loop_exit

(** dispatch count at which a block becomes a promotion candidate *)
val hot_threshold : int

(** cap on constituent blocks per region *)
val max_blocks : int

type 'r t

(** [create ~mem_bytes ~spans ()] — [mem_bytes] bounds the entry
    address space; [spans r] must return the (addr, code bytes) span
    of each constituent block of region [r].  [tel]/[name] mirror
    promotions and invalidations ([<name>.promotions],
    [<name>.invalidations], the [<name>.region_len] distribution and
    [Region_promote] ring events); default is the disabled sink. *)
val create :
  ?tel:Telemetry.t ->
  ?name:string ->
  mem_bytes:int ->
  spans:('r -> (int * int) array) ->
  unit ->
  'r t

(** the region promoted at entry [addr], if resident; misaligned and
    out-of-memory addresses miss *)
val find : 'r t -> int -> 'r option

(** [note_dispatch t addr] counts one tier-2 dispatch of the block at
    [addr]; [true] exactly when the count crosses {!hot_threshold} —
    the cue to attempt promotion *)
val note_dispatch : 'r t -> int -> bool

(** pin entry [addr] so {!note_dispatch} never triggers for it again —
    until a store overlapping the pinned block's code window
    ([addr, addr + 4 * Block_cache.max_insns), via {!invalidate}) or
    {!clear} resets it; new code at a pinned address gets a fresh
    promotion attempt *)
val mark_unpromotable : 'r t -> int -> unit

(** [note_succ t entry succ]: the block at [entry] was followed by the
    block at [succ] in a chained run (Boyer–Moore vote plus a
    confirmation counter for the surviving candidate) *)
val note_succ : 'r t -> int -> int -> unit

(** the dominant successor of [entry] when the confirmation counter
    certifies its frequency at >= 75% of at least a minimum sample *)
val dominant_succ : 'r t -> int -> int option

(** [set t addr ~insns region] records the region promoted at entry
    [addr]; [insns] is the instructions retired per full pass *)
val set : 'r t -> int -> insns:int -> 'r -> unit

(** [invalidate t addr len]: drop every region one of whose
    constituent-block spans overlaps [addr, addr+len), resetting the
    dropped entries' profiles, and unpin any {!mark_unpromotable}
    entry whose code window the store overlaps.  [true] iff a region
    was dropped: the owning simulator's write watcher (which calls this
    after the Decode_cache and Block_cache invalidations) must then
    raise its Block_cache's dirty flag, so a running region pass
    aborts via the shared dirty/[Retired] protocol even when the
    overwritten constituent block is not itself resident in the block
    cache. *)
val invalidate : 'r t -> int -> int -> bool

(** drop everything, profiles and pins included *)
val clear : 'r t -> unit

(** resident region count (for vprof and {!Timeline} gauges) *)
val resident_count : 'r t -> int

(** promotion-latency stopwatch feeding [<name>.promote_ns]: the
    simulators bracket their whole trace-follow+compile+[set] path
    with [promote_start]/[promote_done].  Neither touches the clock
    when the sink is disabled. *)
val promote_start : 'r t -> int

val promote_done : 'r t -> int -> unit

(** [(promotions, invalidations)] since the last [reset_stats] *)
val stats : 'r t -> int * int

val reset_stats : 'r t -> unit
