module Machine = Kard_sched.Machine
module Hooks = Kard_sched.Hooks
module Detector = Kard_core.Detector
module Spec = Kard_workloads.Spec
module Race_suite = Kard_workloads.Race_suite
module Registry = Kard_workloads.Registry

type target =
  | Spec of Spec.t
  | Scenario of Race_suite.t

let target_name = function
  | Spec spec -> spec.Spec.name
  | Scenario sc -> sc.Race_suite.name

(* Bare names resolve workload-first (the larger namespace); the
   prefixed forms disambiguate, and are what headers always carry. *)
let find_target name =
  let spec n =
    match Registry.find n with
    | spec -> Ok (Spec spec)
    | exception Not_found -> Error (Printf.sprintf "unknown workload %S" n)
  in
  let scenario n =
    match Race_suite.find n with
    | sc -> Ok (Scenario sc)
    | exception Not_found -> Error (Printf.sprintf "unknown scenario %S" n)
  in
  match String.index_opt name ':' with
  | Some i when String.sub name 0 i = "spec" ->
    spec (String.sub name (i + 1) (String.length name - i - 1))
  | Some i when String.sub name 0 i = "scenario" ->
    scenario (String.sub name (i + 1) (String.length name - i - 1))
  | _ -> (
    match spec name with
    | Ok _ as ok -> ok
    | Error _ -> (
      match scenario name with
      | Ok _ as ok -> ok
      | Error _ ->
        Error
          (Printf.sprintf "unknown workload or scenario %S; try `kard list` (prefixes spec: \
                           and scenario: disambiguate)"
             name)))

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

let kard_allocator = Machine.Unique_page

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
    ?(seed = Defaults.seed) ~detector target =
  match target with
  | Spec spec ->
    let threads = Option.value ~default:spec.Spec.default_threads threads in
    run_build ?schedule ?wrap ?trace ?interp ~threads ~scale ~seed ~detector
      (fun machine -> spec.Spec.build ~threads ~scale ~seed machine)
      spec.Spec.name
  | Scenario sc ->
    run_build ?schedule ?wrap ?trace ?interp ~threads:sc.Race_suite.threads ~scale:1.0 ~seed
      ~detector sc.Race_suite.build sc.Race_suite.name

let overhead_pct ~baseline result =
  let b = float_of_int baseline.report.Machine.cycles in
  let r = float_of_int result.report.Machine.cycles in
  if b = 0. then 0. else (r -. b) /. b *. 100.

let rss_overhead_pct ~baseline result =
  let b = float_of_int baseline.report.Machine.rss_bytes in
  let r = float_of_int result.report.Machine.rss_bytes in
  if b = 0. then 0. else (r -. b) /. b *. 100.

let dtlb_rate result = result.report.Machine.dtlb_miss_rate
