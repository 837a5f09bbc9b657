(** Slab allocator for generated-code regions in simulated memory.

    The registry ({!Server}) installs thousands of small compiled
    filters and churns them continuously; a general-purpose allocator
    over the code window would fragment and drift.  Instead the arena
    carves the window into fixed-size slab classes (powers of two from
    {!class_sizes}): an allocation rounds the requested word count up
    to the smallest class, serving it from that class's free list when
    possible and from the bump frontier otherwise.  Frees push onto the
    class free list in LIFO order — the next same-class allocation
    reuses the hottest address, which is exactly the address-reuse
    hazard the engine-invalidation tests want to provoke.

    All addresses handed out are 8-aligned (a [Vcode.lambda]
    requirement) provided [base] is.  The arena only tracks ownership;
    it never touches memory — the registry is responsible for the
    zero-fill that rides the {!Vmachine.Mem} write-watcher protocol
    when a slab's previous tenant is evicted. *)

type t

(** slab classes in code words, ascending; every class is a multiple of
    two words so slab starts stay 8-byte aligned *)
val class_sizes : int array

(** the largest class: a request for more words can never be placed *)
val max_words : int

(** [create ?tel ~base ~limit ()] manages the byte window
    [\[base, limit)].  [base] must be 8-aligned.  Counters and the
    allocation-size distribution are registered under ["server.arena"]
    on [tel] (default: the disabled sink). *)
val create : ?tel:Vmachine.Telemetry.t -> base:int -> limit:int -> unit -> t

(** [alloc t ~words] returns [(addr, slab_words)] for the smallest
    class holding [words], or [None] when [words] exceeds the largest
    class or the window is exhausted (no free slab of the class and no
    bump room).  The caller may then evict and retry. *)
val alloc : t -> words:int -> (int * int) option

(** [free t addr] returns the slab at [addr] to its class free list.
    @raise Invalid_argument when [addr] is not a live allocation *)
val free : t -> int -> unit

(** slab words backing the live allocation at [addr] *)
val slab_words : t -> int -> int option

(** {2 Gauge accessors}

    Cheap reads for {!Vmachine.Timeline} gauges — unlike {!stats},
    these build no records (the per-class free count is one list walk
    bounded by the slab count). *)

val live_slabs : t -> int
val bump_words : t -> int

(** free-list depth of class index [cls] (index into {!class_sizes}) *)
val free_slabs : t -> cls:int -> int

val free_slabs_total : t -> int

(** per-class occupancy, index-aligned with {!class_sizes} *)
type class_stats = { size : int; live : int; free : int }

type stats = {
  classes : class_stats array;
  bump_words : int;  (** words ever claimed from the frontier *)
  window_words : int;  (** total words in [\[base, limit)] *)
  live_slabs : int;
}

val stats : t -> stats
