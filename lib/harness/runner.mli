(** Run one workload under one detector configuration. *)

type detector =
  | Baseline      (** Native allocator, no detection. *)
  | Alloc         (** Kard's allocator, no detection (Table 3 "Alloc"). *)
  | Kard of Kard_core.Config.t
  | Tsan
  | Lockset

type result = {
  spec_name : string;
  detector_name : string;
  threads : int;
  scale : float;
  seed : int;
  report : Kard_sched.Machine.report;
  kard_stats : Kard_core.Detector.stats option;
  kard_races : Kard_core.Race_record.t list;      (** All surviving records. *)
  kard_ilu_races : Kard_core.Race_record.t list;
  kard_unique_ro : int;
  kard_unique_rw : int;
  tsan_races : Kard_baselines.Tsan.race list;
  tsan_ilu_races : Kard_baselines.Tsan.race list;
  lockset_warnings : Kard_baselines.Lockset.warning list;
  trace : Kard_obs.Trace.t option;
      (** The sink the run emitted into, when one was passed. *)
}

val detector_name : detector -> string

val run_build :
  ?schedule:Kard_sched.Schedule.t ->
  ?wrap:(Kard_sched.Hooks.env -> Kard_sched.Hooks.t -> Kard_sched.Hooks.t) ->
  ?trace:Kard_obs.Trace.t ->
  ?interp:Kard_sched.Machine.interp ->
  ?shards:int ->
  threads:int -> scale:float -> seed:int -> detector:detector ->
  (Kard_sched.Machine.t -> unit) -> string -> result
(** The primitive behind {!run} and {!run_scenario}: run an arbitrary
    machine-builder under a detector.  The record/replay layer uses it
    for targets that are neither specs nor scenarios (fuzz-campaign
    programs).

    [shards] survives from the retired sharded machine so that callers
    pinning [~shards:1] (the benchmark under [bench/perf]) keep
    working: it must be 1 (the default), and any other value raises
    [Invalid_argument]. *)

val run :
  ?schedule:Kard_sched.Schedule.t ->
  ?wrap:(Kard_sched.Hooks.env -> Kard_sched.Hooks.t -> Kard_sched.Hooks.t) ->
  ?trace:Kard_obs.Trace.t ->
  ?interp:Kard_sched.Machine.interp ->
  ?threads:int -> ?scale:float -> ?seed:int -> detector:detector -> Spec_alias.t -> result
(** Defaults: the spec's default thread count, {!Defaults.scale},
    {!Defaults.seed}.
    [schedule] overrides the seeded schedule (the record/replay layer
    passes [Schedule.Replay] here; [seed] still reaches the workload
    builder).  [wrap] composes around the detector's hooks at machine
    construction — the recording and replay-verification wrappers.
    [trace] turns on observability for the run (see
    {!Kard_sched.Machine.create}); the filled sink comes back in
    [result.trace].  [interp] selects the machine's interpreter
    ([`Compiled] by default); [`Thunks] runs the oracle interpreter,
    which must produce an identical result. *)

val run_scenario :
  ?schedule:Kard_sched.Schedule.t ->
  ?wrap:(Kard_sched.Hooks.env -> Kard_sched.Hooks.t -> Kard_sched.Hooks.t) ->
  ?trace:Kard_obs.Trace.t ->
  ?interp:Kard_sched.Machine.interp ->
  ?seed:int -> ?override_config:Kard_core.Config.t -> detector:detector ->
  Kard_workloads.Race_suite.t -> result
(** Run a controlled race scenario (always at its own thread count and
    full scale).  A [Kard _] detector runs with the scenario's own
    configuration unless [override_config] is given. *)

val overhead_pct : baseline:result -> result -> float
(** Execution-time overhead in percent, from total cycles. *)

val rss_overhead_pct : baseline:result -> result -> float
val dtlb_rate : result -> float
