module Log = Kard_replay.Log
module Recorder = Kard_replay.Recorder
module Replayer = Kard_replay.Replayer
module Race_suite = Kard_workloads.Race_suite
module Spec = Kard_workloads.Spec

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

(* [run ~wrap] with the recorder composed in; the header describes
   the run as its result reports it. *)
let recorded ~detector ~target run =
  let recorder = Recorder.create () in
  let (result : Runner.result) = run ~wrap:(Recorder.wrap recorder) in
  let header =
    header ~detector ~target ~threads:result.threads ~scale:result.scale ~seed:result.seed
      ~shards:1
  in
  (result, Recorder.log recorder ~header)

let record_build ?trace ~threads ~scale ~seed ~detector ~target build name =
  recorded ~detector ~target (fun ~wrap ->
      Runner.run_build ~wrap ?trace ~threads ~scale ~seed ~detector build name)

let record ?trace ?threads ?scale ?seed ~detector target =
  let header_target =
    match target with
    | Runner.Spec spec -> "spec:" ^ spec.Spec.name
    | Runner.Scenario sc -> "scenario:" ^ sc.Race_suite.name
  in
  recorded ~detector ~target:header_target (fun ~wrap ->
      Runner.run ~wrap ?trace ?threads ?scale ?seed ~detector target)

(* {1 Replaying} *)

type fidelity = (unit, string) result

(* [run ~schedule ~wrap ~detector] driven and checked by the log's
   replayer, under the recorded detector unless one is given. *)
let replayed ?detector (log : Log.t) run =
  let h = log.Log.header in
  Result.map
    (fun detector ->
      let mode = if same_detector detector h then Replayer.Strict else Replayer.Schedule_only in
      let replayer = Replayer.create ~mode log in
      let result =
        run ~schedule:(Replayer.schedule replayer) ~wrap:(Replayer.wrap replayer) ~detector
      in
      (result, Replayer.check replayer))
    (match detector with Some d -> Ok d | None -> detector_of_header h)

let replay_build ?trace ?detector (log : Log.t) build name =
  let h = log.Log.header in
  replayed ?detector log (fun ~schedule ~wrap ~detector ->
      Runner.run_build ~schedule ~wrap ?trace ~threads:h.Log.threads ~scale:h.Log.scale
        ~seed:h.Log.seed ~detector build name)

(* Fuzz targets need the campaign's program generator, which lives
   above this library — callers holding one use {!replay_build}. *)
let replay ?trace ?(shards = 1) ?detector (log : Log.t) =
  check_shards "replay" shards;
  let h = log.Log.header in
  match Runner.find_target h.Log.target with
  | Error _ ->
    Error
      (Printf.sprintf "cannot resolve recorded target %S here (fuzz targets replay via `kard \
                       replay`)"
         h.Log.target)
  | Ok target ->
    replayed ?detector log (fun ~schedule ~wrap ~detector ->
        Runner.run ~schedule ~wrap ?trace ~threads:h.Log.threads ~scale:h.Log.scale
          ~seed:h.Log.seed ~detector target)
