(** Multi-tenant registry of generated-code regions.

    The paper's systems clients (packet demultiplexing above all)
    don't compile one function and run it forever: an OS-level
    dispatcher installs thousands of small compiled filters, replaces
    and removes them as endpoints come and go, and must never execute
    a stale instruction at a reused address.  This module is that
    service layer over the existing pieces: filters compile through
    {!Dpf}, land in an {!Arena} slab, and are published to simulated
    memory with {!Vmachine.Mem.install_code} — whose write-watcher
    traffic is exactly what keeps every engine tier's translation
    caches (predecode, superblocks, regions) coherent.

    Eviction composes with the same protocol: dropping a region
    zero-fills its slab through {!Vmachine.Mem.fill}, so the watchers
    retire any translations derived from that address window {e
    before} the slab can be reallocated.  Safety therefore does not
    depend on the registry knowing which engine tiers exist.

    Keys are client-chosen integers (think: endpoint ids).  Lookup is
    a sharded hash table; hotness for eviction comes from per-region
    lookup counts, the same signal the telemetry layer reports. *)

(** Raised by an install whose region needs more code words (the
    payload) than {!Arena.max_words}, the largest slab class.  It is
    raised before anything is evicted and, when the size estimate
    already exceeds the limit, before a replaced key's region is
    dropped: the registry is left as it was. *)
exception Oversize of int

module Make (T : Vcodebase.Target.S) : sig
  module DP : module type of Dpf.Make (T)

  type t

  (** live-region facts, for tests and reporting *)
  type info = {
    base : int;  (** slab base address *)
    slab_words : int;
    code_words : int;  (** words actually emitted *)
    entry : int;  (** call this *)
    fid : int;  (** the compiled filter's id *)
    hits : int;  (** lookups served *)
    epoch : int;  (** installation order, monotonic across the registry *)
  }

  type stats = {
    live : int;
    installs : int;
    replaces : int;  (** installs that displaced the same key *)
    evictions : int;  (** explicit {!evict} calls that removed a region *)
    capacity_evictions : int;  (** coldest-region evictions forced by a full arena *)
    recompiles : int;  (** second compiles after a slab-class upgrade *)
    lookup_hits : int;
    lookup_misses : int;
  }

  (** [create mem] builds a registry whose code window is
      [\[arena_base, arena_limit)] (defaults: [0x100000] — clear of
      the harness packet buffer — up to 64KB below the top of memory,
      clear of the stacks).  [shards] (default 16, rounded up to a
      power of two) sizes the key-sharded table.  [max_live] caps
      resident regions: an install beyond it first evicts the coldest
      region, modelling a fixed code-cache budget. *)
  val create :
    ?tel:Vmachine.Telemetry.t ->
    ?shards:int ->
    ?max_live:int ->
    ?arena_base:int ->
    ?arena_limit:int ->
    Vmachine.Mem.t ->
    t

  (** [install t ~key f] compiles [f], places it in the arena and
      publishes it; returns the entry address.  An existing region
      under [key] is evicted first (its slab is scrubbed through the
      watcher protocol before reuse).  Each call pays a fresh
      code-buffer allocation — the unbatched baseline.
      @raise Oversize when the filter's region exceeds the largest slab
      class (only a size estimate that fits but a compiled region that
      does not can lose a replaced key's old region)
      @raise Failure when the filter cannot fit even after evicting
      every other region *)
  val install : t -> key:int -> Dpf.Filter.t -> int

  (** [install_batch t kfs] installs every (key, filter) pair reusing
      one scratch code buffer across the whole queue
      ({!Vcodebase.Codebuf.reset} between compiles), and amortizes
      capacity eviction: when the arena fills mid-batch, the remaining
      queue's worth of coldest regions is cleared in a single scan —
      the same (hits, epoch) eviction order as one-at-a-time installs,
      without paying an O(live regions) rescan per install.  This is
      the amortized path the router benchmark compares against
      {!install}. *)
  val install_batch : t -> (int * Dpf.Filter.t) list -> unit

  (** entry address under [key]; counts toward the region's hotness *)
  val lookup : t -> int -> int option

  (** [evict t key] removes the region and scrubs its slab; [false]
      when the key is not resident *)
  val evict : t -> int -> bool

  (** evict the coldest region (fewest hits, oldest epoch as
      tiebreak); [false] when the registry is empty *)
  val evict_coldest : t -> bool

  val find : t -> int -> info option
  val live : t -> int
  val stats : t -> stats
  val arena_stats : t -> Arena.stats

  (** push the registry gauges (live regions, slab occupancy, bump
      frontier) into the telemetry sink as [server.*] counters, so
      generic reporters (vprof) see them without a Server dependency *)
  val sync_gauges : t -> unit

  (** named allocation-free gauge closures (registry occupancy, arena
      free-list depths — total and per size class as
      [server.arena.free.c<size>] — and the bump frontier) for
      registration on a {!Vmachine.Timeline}; the harness wires them
      up so a timeline can watch the registry evolve under churn.

      Latency is recorded separately: {!install}/{!install_batch} feed
      the [server.install_ns] distribution (replacements additionally
      [server.replace_ns]) and {!evict} feeds [server.evict_ns],
      whole-path stopwatches over {!Vmachine.Telemetry.timer_start}. *)
  val gauge_sources : t -> (string * (unit -> int)) list
end
