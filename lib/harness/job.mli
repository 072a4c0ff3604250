(** A job is one seeded run as {e pure data}.

    Everything the runner needs — the target, the detector, the
    thread count, the scale, the seed, and an optional trace
    request — is captured in an immutable value, so a job can be
    shipped to any worker domain and executed there.  Because a seeded
    run is a pure function of these inputs (DESIGN.md §7 documents the
    audit), executing the same job twice, or on two different domains,
    produces bit-identical {!Runner.result}s.

    Observability sinks are mutable, so a job never carries one:
    it carries a {!trace_request}, and {!run} creates the sink inside
    the executing worker.  The filled sink comes back in
    [result.trace] exactly as with a direct {!Runner.run ~trace}. *)

type trace_request = {
  capacity : int;  (** Event-ring capacity (see {!Kard_obs.Trace.create}). *)
  steps : bool;    (** Record per-operation step events too. *)
}

val trace_request : ?capacity:int -> ?steps:bool -> unit -> trace_request
(** Defaults mirror {!Kard_obs.Trace.create}: capacity 65536, steps
    off. *)

type t = private {
  target : Runner.target;
  detector : Runner.detector;
  threads : int option;  (** [Spec] only; [None] = the spec's default. *)
  scale : float;         (** [Spec] only; scenarios always run at 1.0. *)
  seed : int;
  trace : trace_request option;
}

val make :
  ?threads:int ->
  ?scale:float ->
  ?seed:int ->
  ?trace:trace_request ->
  Runner.detector ->
  Runner.target ->
  t
(** The job of {!Runner.run}[ ?threads ?scale ?seed ~detector target].
    Defaults: the spec's own thread count, {!Defaults.scale},
    {!Defaults.seed}, no trace. *)

val describe : t -> string
(** ["<target>/<detector>/seed=<n>"] — used in pool error reports. *)

val run : t -> Runner.result
(** Execute the job in the calling domain.  Creates the trace sink (if
    requested) locally, so concurrent jobs never share observability
    state. *)
