(** A predecoded-instruction cache shared by the CPU simulators.

    Maps word-aligned code addresses to a value computed from the
    instruction word there — the engine caches each word's compiled
    instruction closure — so a simulator's hot loop decodes each word
    once instead of on every simulated cycle.  Polymorphic over the
    cached value.

    Correctness contract: an entry is valid exactly until the underlying
    word changes.  The owning simulator's memory write watcher
    ({!Mem.set_write_watcher}) calls {!invalidate}, which covers
    simulated stores (self-modifying code), host-side
    {!Mem.install_code} (regenerating code at the same address) and the
    bulk write helpers.  {!clear} is the predecode analogue of v_end's
    icache flush.

    This is purely a host-side accelerator: the timing {!Cache} model
    still sees every fetch, so simulated cycle counts and cache hit/miss
    statistics are bit-identical with and without it. *)

type 'a t

(** [create ~mem_bytes ()] covers the address range [\[0, mem_bytes)].
    The backing store starts small and grows on demand.  [tel]/[name]
    mirror the fill/invalidation statistics into a {!Telemetry} sink as
    [<name>.fills] / [<name>.invalidations] (plus [Cache_invalidate]
    events); the default is the disabled sink, which reduces the
    mirroring to scratch stores.  [trace] mirrors invalidations into a
    {!Trace} ring as [Inval] markers. *)
val create :
  ?tel:Telemetry.t -> ?trace:Trace.t -> ?name:string -> mem_bytes:int -> unit -> 'a t

(** [find t addr] is the cached decoded instruction at byte address
    [addr], or [None] if it must be fetched and decoded (then recorded
    with {!set}).  Misaligned or out-of-range addresses always miss, so
    the fetch path keeps its exact fault behaviour. *)
val find : 'a t -> int -> 'a option

(** [find_or t addr default] is the cached value at [addr], or [default]
    on a miss: [find] without allocating an option, for the per-step
    lookup. *)
val find_or : 'a t -> int -> 'a -> 'a

(** [set t addr insn] records the decode of the word at [addr].
    Addresses outside the covered range are ignored. *)
val set : 'a t -> int -> 'a -> unit

(** [invalidate t addr len] drops every entry whose word overlaps
    [\[addr, addr + len)].  O(1) when the range is outside the
    predecoded span — the common case for data stores. *)
val invalidate : 'a t -> int -> int -> unit

(** drop every entry *)
val clear : 'a t -> unit

(** [(fills, invalidations)] since the last {!reset_stats}.  There is
    deliberately no hit counter: [find] runs once per simulated
    instruction and keeps its fast path free of shared-counter updates.
    A cache that is engaged shows [fills] staying flat while retired
    instructions grow. *)
val stats : 'a t -> int * int

val reset_stats : 'a t -> unit
