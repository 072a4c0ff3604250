module Machine = Kard_sched.Machine
module Hooks = Kard_sched.Hooks
module Detector = Kard_core.Detector

type detector =
  | Baseline
  | Alloc
  | Kard of Kard_core.Config.t
  | Tsan
  | Lockset

type result = {
  spec_name : string;
  detector_name : string;
  threads : int;
  scale : float;
  seed : int;
  report : Machine.report;
  kard_stats : Detector.stats option;
  kard_races : Kard_core.Race_record.t list;
  kard_ilu_races : Kard_core.Race_record.t list;
  kard_unique_ro : int;
  kard_unique_rw : int;
  tsan_races : Kard_baselines.Tsan.race list;
  tsan_ilu_races : Kard_baselines.Tsan.race list;
  lockset_warnings : Kard_baselines.Lockset.warning list;
  trace : Kard_obs.Trace.t option;
}

let detector_name = function
  | Baseline -> "baseline"
  | Alloc -> "alloc"
  | Kard _ -> "kard"
  | Tsan -> "tsan"
  | Lockset -> "lockset"

let kard_allocator = Machine.Unique_page { granule = 32; recycle_virtual_pages = false }

let run_build ?schedule ?wrap ?trace ?interp ?(shards = 1) ~threads ~scale ~seed ~detector build
    name =
  if shards <> 1 then
    invalid_arg (Printf.sprintf "Runner.run_build: ~shards:%d, but only 1 is accepted" shards);
  let kard_cell = ref None in
  let tsan_cell = ref None in
  let lockset_cell = ref None in
  let allocator, make_detector =
    match detector with
    | Baseline -> (Machine.Native, fun (_ : Hooks.env) -> Hooks.null ~name:"baseline")
    | Alloc -> (kard_allocator, fun (_ : Hooks.env) -> Hooks.null ~name:"alloc")
    | Kard config -> (kard_allocator, Detector.make ~config ~cell:kard_cell)
    | Tsan -> (Machine.Native, Kard_baselines.Tsan.make ~max_threads:(threads + 1) ~cell:tsan_cell)
    | Lockset -> (Machine.Native, Kard_baselines.Lockset.make ~cell:lockset_cell)
  in
  let make_detector =
    match wrap with
    | None -> make_detector
    | Some w -> fun env -> w env (make_detector env)
  in
  let machine = Machine.create ~seed ?schedule ?trace ?interp ~allocator ~make_detector () in
  build machine;
  let report = Machine.run machine in
  let kard_stats = Option.map Detector.stats !kard_cell in
  { spec_name = name;
    detector_name = detector_name detector;
    threads;
    scale;
    seed;
    report;
    kard_stats;
    kard_races = (match !kard_cell with Some d -> Detector.races d | None -> []);
    kard_ilu_races = (match !kard_cell with Some d -> Detector.ilu_races d | None -> []);
    kard_unique_ro = (match !kard_cell with Some d -> Detector.unique_ro_objects d | None -> 0);
    kard_unique_rw = (match !kard_cell with Some d -> Detector.unique_rw_objects d | None -> 0);
    tsan_races = (match !tsan_cell with Some t -> Kard_baselines.Tsan.races t | None -> []);
    tsan_ilu_races = (match !tsan_cell with Some t -> Kard_baselines.Tsan.ilu_races t | None -> []);
    lockset_warnings =
      (match !lockset_cell with Some l -> Kard_baselines.Lockset.warnings l | None -> []);
    trace }

let run ?schedule ?wrap ?trace ?interp ?threads ?(scale = Defaults.scale)
    ?(seed = Defaults.seed) ~detector (spec : Spec_alias.t) =
  let threads = Option.value ~default:spec.Kard_workloads.Spec.default_threads threads in
  run_build ?schedule ?wrap ?trace ?interp ~threads ~scale ~seed ~detector
    (fun machine -> spec.Kard_workloads.Spec.build ~threads ~scale ~seed machine)
    spec.Kard_workloads.Spec.name

let run_scenario ?schedule ?wrap ?trace ?interp ?(seed = Defaults.seed) ?override_config
    ~detector (scenario : Kard_workloads.Race_suite.t) =
  let detector =
    match detector, override_config with
    | Kard _, Some config -> Kard config
    | Kard _, None -> Kard scenario.Kard_workloads.Race_suite.config
    | ((Baseline | Alloc | Tsan | Lockset) as d), _ -> d
  in
  run_build ?schedule ?wrap ?trace ?interp
    ~threads:scenario.Kard_workloads.Race_suite.threads ~scale:1.0
    ~seed
    ~detector
    scenario.Kard_workloads.Race_suite.build scenario.Kard_workloads.Race_suite.name

let overhead_pct ~baseline result =
  let b = float_of_int baseline.report.Machine.cycles in
  let r = float_of_int result.report.Machine.cycles in
  if b = 0. then 0. else (r -. b) /. b *. 100.

let rss_overhead_pct ~baseline result =
  let b = float_of_int baseline.report.Machine.rss_bytes in
  let r = float_of_int result.report.Machine.rss_bytes in
  if b = 0. then 0. else (r -. b) /. b *. 100.

let dtlb_rate result = result.report.Machine.dtlb_miss_rate
