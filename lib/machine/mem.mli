(** Byte-addressable simulated memory.

    One flat region starting at address 0, in either endianness (the
    substrate serves the little-endian MIPS/Alpha simulators and the
    big-endian SPARC simulator).  Scalar accessors require natural
    alignment and raise {!Fault} otherwise — the discipline the RISC
    targets enforce in hardware. *)

exception Fault of string

type t

val create : ?big_endian:bool -> size:int -> unit -> t
val size : t -> int
val big_endian : t -> bool

(** [set_write_watcher t f] makes [f] the memory's one write watcher,
    replacing any earlier one, called as [f addr len] after every
    mutation — scalar stores, the bulk helpers, and {!install_code}.
    The engine sets one closure that keeps its translation caches
    coherent, so no stale translation is ever executed. *)
val set_write_watcher : t -> (int -> int -> unit) -> unit

(** 1 once a watcher is set, 0 before *)
val watcher_count : t -> int

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit
val read_u16 : t -> int -> int
val write_u16 : t -> int -> int -> unit
val read_u32 : t -> int -> int
val write_u32 : t -> int -> int -> unit
val read_u64 : t -> int -> int64
val write_u64 : t -> int -> int64 -> unit

(** bulk helpers for workload setup; bounds-checked against the true
    operation length but not alignment-checked.  Zero-length operations
    are no-ops, valid for any [addr] in [\[0, size]]; negative lengths
    raise {!Fault}. *)

val blit_string : t -> addr:int -> string -> unit
val blit_bytes : t -> addr:int -> Bytes.t -> unit
val read_string : t -> addr:int -> len:int -> string
val fill : t -> addr:int -> len:int -> char -> unit

(** load a code buffer at [addr], honoring this memory's endianness *)
val install_code : t -> addr:int -> Vcodebase.Codebuf.t -> unit
