(** The one JSON document writer behind [vprof --json] and
    [bench --json], the output-file helper every report tool writes
    through, and the text helpers shared with the {!Chrome_trace}
    writer. *)

(** [add_json_escaped b s] appends [s] to [b] escaped for a JSON string
    body (quote, backslash, [\n], [\t], [\r] and other control
    characters as [\u00XX]); no surrounding quotes *)
val add_json_escaped : Buffer.t -> string -> unit

(** {2 Documents} *)

type json =
  | Int of int
  | Float of float  (** printed [%.6g]; non-finite values print as [null] *)
  | String of string
  | List of json list
  | Obj of (string * json) list  (** members in the given order *)

(** an output file, opened before the work whose result it holds *)
type output

(** [open_output ~tool path] opens [path] for writing (text mode unless
    [binary]).  A path that cannot be opened prints [TOOL: cannot write
    PATH: REASON] on stderr and exits 1, so a tool opens its outputs
    before it runs any workload. *)
val open_output : tool:string -> ?binary:bool -> string -> output

(** [write_output o f] runs [f] on the channel and closes it; a write
    error exits 1 with the same message *)
val write_output : output -> (out_channel -> unit) -> unit

(** [write_json o v] writes [v] through {!write_output}: nested
    containers of up to eight scalars on one line, the document and
    larger or nested containers one member per line *)
val write_json : output -> json -> unit

(** {2 Telemetry} *)

(** [collect iter tel] is every (name, value) pair [iter] visits, in
    registration order; [iter] is {!Vmachine.Telemetry.iter_counters}
    or {!Vmachine.Telemetry.iter_dists} *)
val collect :
  (Vmachine.Telemetry.t -> (string -> 'a -> unit) -> unit) -> Vmachine.Telemetry.t ->
  (string * 'a) list

(** interpolated p50, p90, p99 and p999 of a distribution
    ({!Vmachine.Telemetry.quantile_of_stats}) *)
val percentiles : Vmachine.Telemetry.dist_stats -> int list

(** the telemetry members of a report: ["counters"] (name → value),
    ["dists"] (name → count, sum, min, max and the {!percentiles} as
    p50/p90/p99/p999) and ["events_seen"] *)
val telemetry_fields : Vmachine.Telemetry.t -> (string * json) list

(** compact log2-bucket sparkline of a distribution: the nonzero bucket
    span rendered in eight block heights, labelled with its value
    range; [""] for an empty distribution *)
val spark : Vmachine.Telemetry.dist_stats -> string
