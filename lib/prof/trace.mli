(** Chrome trace-event (Perfetto-loadable) export of span streams.

    Load the written file in https://ui.perfetto.dev or chrome://tracing:
    each OCaml domain (pool lane) renders as its own track, nested spans
    as stacked slices — a flamegraph-style timeline of the run. *)

(** A sink that buffers every span and (re)writes [path] as a complete
    Chrome trace JSON document on each flush. *)
val sink : string -> Webdep_obs.Sink.t

(** Write the given events to [path] as a trace document. *)
val write : string -> Webdep_obs.Sink.event list -> unit

(** Parse a trace document back into span events (inverse of [write] up
    to event order and float rounding). *)
val load : string -> Webdep_obs.Sink.event list

(** The document as a JSON tree (exposed for tests). *)
val document : Webdep_obs.Sink.event list -> Webdep_json.t
