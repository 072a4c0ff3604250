type trace_request = {
  capacity : int;
  steps : bool;
}

let trace_request ?(capacity = 65536) ?(steps = false) () = { capacity; steps }

type t = {
  target : Runner.target;
  detector : Runner.detector;
  threads : int option;
  scale : float;
  seed : int;
  trace : trace_request option;
}

let make ?threads ?(scale = Defaults.scale) ?(seed = Defaults.seed) ?trace detector target =
  { target; detector; threads; scale; seed; trace }

let describe t =
  Printf.sprintf "%s/%s/seed=%d" (Runner.target_name t.target) (Runner.detector_name t.detector)
    t.seed

let run t =
  let trace =
    Option.map
      (fun r -> Kard_obs.Trace.create ~capacity:r.capacity ~steps:r.steps ())
      t.trace
  in
  Runner.run ?trace ?threads:t.threads ~scale:t.scale ~seed:t.seed ~detector:t.detector t.target
