type trace_request = {
  capacity : int;
  steps : bool;
}

let trace_request ?(capacity = 65536) ?(steps = false) () = { capacity; steps }

type target =
  | Spec of Spec_alias.t
  | Scenario of Kard_workloads.Race_suite.t

type t = {
  target : target;
  detector : Runner.detector;
  threads : int option;
  scale : float;
  seed : int;
  override_config : Kard_core.Config.t option;
  trace : trace_request option;
}

let spec ?threads ?(scale = Defaults.scale) ?(seed = Defaults.seed) ?trace detector s =
  { target = Spec s; detector; threads; scale; seed; override_config = None; trace }

let scenario ?(seed = Defaults.seed) ?override_config ?trace detector s =
  { target = Scenario s; detector; threads = None; scale = 1.0; seed; override_config; trace }

let describe t =
  let name =
    match t.target with
    | Spec s -> s.Kard_workloads.Spec.name
    | Scenario s -> s.Kard_workloads.Race_suite.name
  in
  Printf.sprintf "%s/%s/seed=%d" name (Runner.detector_name t.detector) t.seed

let run t =
  let trace =
    Option.map
      (fun r -> Kard_obs.Trace.create ~capacity:r.capacity ~steps:r.steps ())
      t.trace
  in
  match t.target with
  | Spec s ->
    Runner.run ?trace ?threads:t.threads ~scale:t.scale ~seed:t.seed
      ~detector:t.detector s
  | Scenario s ->
    Runner.run_scenario ?trace ~seed:t.seed ?override_config:t.override_config
      ~detector:t.detector s
