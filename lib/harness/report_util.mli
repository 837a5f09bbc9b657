(** Text helpers shared by the report tools (vprof, vstat) and the
    {!Chrome_trace} writer, so their JSON and sparklines come from one
    definition. *)

(** [add_json_escaped b s] appends [s] to [b] escaped for a JSON string
    body (quote, backslash, [\n], [\t], [\r] and other control
    characters as [\u00XX]); no surrounding quotes *)
val add_json_escaped : Buffer.t -> string -> unit

(** [json_escape s] is [s] escaped as by {!add_json_escaped} *)
val json_escape : string -> string

(** compact log2-bucket sparkline of a distribution: the nonzero bucket
    span rendered in eight block heights, labelled with its value
    range; [""] for an empty distribution *)
val spark : Vmachine.Telemetry.dist_stats -> string
