(** One shared path for traced experiment runs.

    The [hsfq_sim trace] subcommand, the golden-trace regression tests
    and the tutorial examples all run an experiment under the same
    ambient tracer ({!Common.with_obs}) and export through the same
    {!Hsfq_obs} exporters, so a golden file regenerated here is
    byte-identical to what the CLI emits. *)

val default_capacity : int
(** Ring capacity used when none is given (65536 events — enough to hold
    every event of the reproduction figures without wrapping). *)

val capture : ?capacity:int -> (unit -> 'a) -> 'a * Hsfq_obs.Trace.t
(** Run [f] with a fresh enabled tracer installed as the ambient tracer;
    return [f]'s result and the tracer for export. *)

val traced_compute :
  ?capacity:int -> string -> (Registry.computed * Hsfq_obs.Trace.t) option
(** Run experiment [id]'s [compute] under a fresh tracer. [None] when
    the id is unknown. Rendering is deferred (untraced), as in
    {!Registry.entry.compute}. *)

val text : ?capacity:int -> string -> string option
(** Canonical text dump of a traced run of experiment [id] — the golden
    format. *)
