(** A superblock translation cache shared by the four CPU simulators.

    Maps a basic-block entry address to a target-compiled block value
    (a record of closures executing the whole decoded straight-line
    run) so the run loops can retire instructions without
    per-instruction dispatch, chaining block to block on taken
    branches.  ['b] is the owning simulator's block type; the cache
    only needs its byte length (the [len_bytes] accessor fixed at
    {!create}) to resolve store/block overlap during invalidation.

    Purely a host-side accelerator: the timing {!Cache} model still
    sees every fetch (the simulators probe the icache from inside
    compiled blocks), so simulated cycle counts and cache statistics
    are bit-identical with the cache off — see
    test/test_block_cache.ml. *)

(** Raised by a compiled store closure that finds {!dirty} set: the
    store just invalidated a resident block, possibly the executing
    one, so the rest of the run must be abandoned.  The raising
    instruction has fully retired; the simulator fixes up pc/npc for
    the *next* instruction and returns to its dispatch loop. *)
exception Retired

(** block-length cap, in instructions: simulators must not compile
    longer runs, which in turn bounds the invalidation scan window *)
val max_insns : int

type 'b t

(** [create ~mem_bytes ~len_bytes ()] — [mem_bytes] bounds the entry
    address space; [len_bytes b] must return the code bytes covered by
    block [b] (at most [4 * max_insns]).  [tel]/[name] mirror the
    compile/evict/invalidate statistics into a {!Telemetry} sink
    ([<name>.compiles], [<name>.evictions], [<name>.invalidations],
    the [<name>.block_len] distribution and the corresponding ring
    events) and enable the per-entry execution profile behind
    {!note_exec}/{!hot_blocks}; the default is the disabled sink.
    [trace] mirrors invalidations that actually dropped blocks into a
    {!Trace} ring as [Inval] markers. *)
val create :
  ?tel:Telemetry.t ->
  ?trace:Trace.t ->
  ?name:string ->
  mem_bytes:int ->
  len_bytes:('b -> int) ->
  unit ->
  'b t

(** the block compiled for entry address [addr], if resident.
    Misaligned and out-of-memory addresses miss.  No hit counter is
    maintained (hot path); engagement is observable as the compile
    count of {!stats} staying flat while instructions retire. *)
val find : 'b t -> int -> 'b option

(** record the block compiled for entry [addr] *)
val set : 'b t -> int -> 'b -> unit

(** [invalidate t addr len]: drop every resident block whose covered
    code range overlaps [addr, addr+len), setting the {!dirty} flag if
    any was dropped.  Called by the simulators' one {!Mem} write
    watcher, after {!Decode_cache.invalidate}. *)
val invalidate : 'b t -> int -> int -> unit

(** drop everything — the block-cache analogue of v_end's icache
    flush; also sets {!dirty} *)
val clear : 'b t -> unit

(** [begin_block] clears the dirty flag; the simulator calls it as it
    enters a compiled block, and its store closures raise {!Retired}
    when {!dirty} turns up set afterwards *)
val begin_block : 'b t -> unit

val dirty : 'b t -> bool

(** raise the dirty flag on behalf of a sibling translation tier —
    the regions-mode write watcher calls this when
    {!Region_cache.invalidate} drops a region, so store closures abort
    the running pass even when the overwritten constituent block is
    not resident here *)
val mark_dirty : 'b t -> unit

(** count one execution of the block entered at [addr] toward the
    per-entry profile.  No-op unless {!create} received an enabled
    [tel]; the simulators guard the call behind their probe's enabled
    flag, so the disabled cost is zero. *)
val note_exec : 'b t -> int -> unit

(** the per-entry execution profile in a stable, documented order:
    execution count descending, entry address ascending on ties —
    (entry address, executions), at most [limit] (default 20) entries.
    The deterministic tie-break matters because this list doubles as
    the region-promotion scan.  Counts are cumulative across
    recompiles and invalidations of the same entry.  Empty unless
    {!create} received an enabled [tel]. *)
val hot_blocks : ?limit:int -> 'b t -> (int * int) list

(** [(compiles, invalidations)] since the last [reset_stats] *)
val stats : 'b t -> int * int

val reset_stats : 'b t -> unit

(** currently resident blocks, O(1) — safe as a {!Timeline} gauge *)
val resident_count : 'b t -> int

(** compile-latency stopwatch feeding [<name>.compile_ns]: the
    simulators bracket their whole scan+compile+[set] path with
    [compile_start]/[compile_done].  Neither touches the clock when
    the sink is disabled. *)
val compile_start : 'b t -> int

val compile_done : 'b t -> int -> unit

(** fault-injection hook for the trace differ: make entry [at] answer
    with the block resident at [from] — a deliberately stale
    translation, so a blocks-mode run diverges from the interpreter at
    [at]'s next dispatch.  [false] when nothing is resident at [from]
    or [at] is misaligned/out of range.  Test/tool use only. *)
val alias : 'b t -> at:int -> from:int -> bool
