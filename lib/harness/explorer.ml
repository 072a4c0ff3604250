type outcome = {
  seed : int;
  kard_ilu : int;
  records : int;
}

type summary = {
  runs : int;
  detecting_runs : int;
  detection_rate : float;
  min_races : int;
  max_races : int;
  outcomes : outcome list;
}

let default_seeds = Defaults.explorer_seeds

let summarize outcomes =
  let runs = List.length outcomes in
  let detecting = List.filter (fun o -> o.kard_ilu > 0) outcomes in
  let races = List.map (fun o -> o.kard_ilu) outcomes in
  { runs;
    detecting_runs = List.length detecting;
    detection_rate =
      (if runs = 0 then 0. else float_of_int (List.length detecting) /. float_of_int runs);
    min_races = List.fold_left min max_int races;
    max_races = List.fold_left max 0 races;
    outcomes }

let ( let+ ) = Pool.( let+ )

(* One job per seed, listed in seed order, so [outcomes] is in seed
   order however many domains executed the sweep. *)
let sweep_plan job_of_seed seeds =
  let+ outcomes =
    Pool.all
      (List.map
         (fun seed ->
           let+ r = Pool.job (job_of_seed seed) in
           { seed;
             kard_ilu = List.length r.Runner.kard_ilu_races;
             records = List.length r.Runner.kard_races })
         seeds)
  in
  summarize outcomes

let explore_scenario_plan ?(seeds = default_seeds) ?config
    (scenario : Kard_workloads.Race_suite.t) =
  let config = Option.value ~default:scenario.Kard_workloads.Race_suite.config config in
  sweep_plan (fun seed -> Job.make ~seed (Runner.Kard config) (Runner.Scenario scenario)) seeds

let explore_spec_plan ?(seeds = default_seeds) ?(scale = Defaults.explorer_scale) ?threads spec =
  let detector = Runner.Kard (Defaults.kard_config ()) in
  sweep_plan (fun seed -> Job.make ?threads ~scale ~seed detector (Runner.Spec spec)) seeds

let print_summary ~name s =
  Printf.printf "%-28s detection rate %3.0f%% (%d/%d runs), races per run %d..%d\n" name
    (s.detection_rate *. 100.) s.detecting_runs s.runs s.min_races s.max_races
