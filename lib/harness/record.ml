module Log = Kard_replay.Log
module Recorder = Kard_replay.Recorder
module Replayer = Kard_replay.Replayer
module Registry = Kard_workloads.Registry
module Race_suite = Kard_workloads.Race_suite
module Spec = Kard_workloads.Spec

type subject =
  | Spec of Spec.t
  | Scenario of Race_suite.t

let subject_target = function
  | Spec spec -> "spec:" ^ spec.Spec.name
  | Scenario sc -> "scenario:" ^ sc.Race_suite.name

let subject_name = function
  | Spec spec -> spec.Spec.name
  | Scenario sc -> sc.Race_suite.name

(* Bare names resolve workload-first (the larger namespace); the
   prefixed forms disambiguate, and are what headers always carry. *)
let find_subject name =
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

(* {1 Header <-> detector} *)

(* The retired sharded machine's compatibility parameters: [header]
   and [replay] still take a shard count, which must be 1. *)
let check_shards fn shards =
  if shards <> 1 then
    invalid_arg (Printf.sprintf "Record.%s: ~shards:%d, but only 1 is accepted" fn shards)

let header ~detector ~target ~threads ~scale ~seed ~shards =
  check_shards "header" shards;
  Log.header ~detector:(Runner.detector_name detector) ~target ~threads ~scale ~seed
    ?config:(match detector with Runner.Kard c -> Some c | _ -> None)
    ()

let detector_of_header (h : Log.header) =
  match (h.Log.detector, h.Log.config) with
  | "kard", Some config -> Ok (Runner.Kard config)
  | "kard", None -> Error "log header: kard recording without a config fingerprint"
  | "baseline", _ -> Ok Runner.Baseline
  | "alloc", _ -> Ok Runner.Alloc
  | "tsan", _ -> Ok Runner.Tsan
  | "lockset", _ -> Ok Runner.Lockset
  | (d, _) -> Error (Printf.sprintf "log header: unknown detector %S" d)

let same_detector d (h : Log.header) =
  String.equal (Runner.detector_name d) h.Log.detector
  && (match d with
     | Runner.Kard c -> h.Log.config = Some c
     | Runner.Baseline | Runner.Alloc | Runner.Tsan | Runner.Lockset -> true)

(* {1 Recording} *)

let record_build ?trace ~threads ~scale ~seed ~detector ~target build name =
  let recorder = Recorder.create () in
  let result =
    Runner.run_build ~wrap:(Recorder.wrap recorder) ?trace ~threads ~scale ~seed ~detector build
      name
  in
  let header = header ~detector ~target ~threads ~scale ~seed ~shards:1 in
  (result, Recorder.log recorder ~header)

let scenario_detector ?override_config ~detector (sc : Race_suite.t) =
  match (detector, override_config) with
  | Runner.Kard _, Some c -> Runner.Kard c
  | Runner.Kard _, None -> Runner.Kard sc.Race_suite.config
  | ((Runner.Baseline | Runner.Alloc | Runner.Tsan | Runner.Lockset) as d), _ -> d

let record ?trace ?threads ?scale ?seed ?override_config ~detector subject =
  let seed = Option.value ~default:Defaults.seed seed in
  let target = subject_target subject in
  match subject with
  | Spec spec ->
    let threads = Option.value ~default:spec.Spec.default_threads threads in
    let scale = Option.value ~default:Defaults.scale scale in
    record_build ?trace ~threads ~scale ~seed ~detector ~target
      (fun machine -> spec.Spec.build ~threads ~scale ~seed machine)
      spec.Spec.name
  | Scenario sc ->
    (* Scenarios always run at their own thread count and full scale;
       a [Kard _] detector takes the scenario's configuration (the
       CLI's --vkeys/--sampling knobs arrive via [override_config]). *)
    let detector = scenario_detector ?override_config ~detector sc in
    record_build ?trace ~threads:sc.Race_suite.threads ~scale:1.0 ~seed ~detector
      ~target sc.Race_suite.build sc.Race_suite.name

(* {1 Replaying} *)

type fidelity = (unit, string) result

let replay_build ?trace ?detector (log : Log.t) build name =
  let h = log.Log.header in
  match (match detector with Some d -> Ok d | None -> detector_of_header h) with
  | Error _ as e -> e
  | Ok detector ->
    let mode = if same_detector detector h then Replayer.Strict else Replayer.Schedule_only in
    let replayer = Replayer.create ~mode log in
    let result =
      Runner.run_build
        ~schedule:(Replayer.schedule replayer)
        ~wrap:(Replayer.wrap replayer) ?trace ~threads:h.Log.threads ~scale:h.Log.scale
        ~seed:h.Log.seed ~detector build name
    in
    Ok (result, Replayer.check replayer)

(* Fuzz targets need the campaign's program generator, which lives
   above this library — callers holding one use {!replay_build}. *)
let replay ?trace ?(shards = 1) ?detector (log : Log.t) =
  check_shards "replay" shards;
  let h = log.Log.header in
  match find_subject h.Log.target with
  | Error _ ->
    Error
      (Printf.sprintf "cannot resolve recorded target %S here (fuzz targets replay via `kard \
                       replay`)"
         h.Log.target)
  | Ok (Spec spec) ->
    let threads = h.Log.threads and scale = h.Log.scale and seed = h.Log.seed in
    replay_build ?trace ?detector log
      (fun machine -> spec.Spec.build ~threads ~scale ~seed machine)
      spec.Spec.name
  | Ok (Scenario sc) -> replay_build ?trace ?detector log sc.Race_suite.build sc.Race_suite.name
