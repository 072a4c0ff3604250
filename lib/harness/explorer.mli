(** Schedule exploration.

    ILU detection is schedule-sensitive (section 3.1): a race
    manifests only when the threads interleave the right way, and the
    paper's mitigation is "multiple runs".  The explorer sweeps
    scheduler seeds and reports how often each detector observes the
    race — an estimate of per-run detection probability.

    Sweeps are plans for {!Pool.execute}: each seed is one job, listed
    in seed order, so [outcomes] is in seed order and a summary is
    identical at [~jobs:1] and [~jobs:N]. *)

type outcome = {
  seed : int;
  kard_ilu : int;
  records : int;
}

type summary = {
  runs : int;
  detecting_runs : int;       (** Runs with at least one ILU record. *)
  detection_rate : float;
  min_races : int;
  max_races : int;
  outcomes : outcome list;    (** In seed order. *)
}

val explore_scenario_plan :
  ?seeds:int list -> ?config:Kard_core.Config.t -> Kard_workloads.Race_suite.t ->
  summary Pool.plan
(** Default: {!Defaults.explorer_seeds} (1..20) and the scenario's own
    configuration. *)

val explore_spec_plan :
  ?seeds:int list -> ?scale:float -> ?threads:int -> Kard_workloads.Spec.t -> summary Pool.plan
(** Sweep a full workload model (e.g. aget) across schedules, at
    {!Defaults.explorer_scale} by default. *)

val print_summary : name:string -> summary -> unit
