module Machine = Kard_sched.Machine
module Hooks = Kard_sched.Hooks
module Detector = Kard_core.Detector
module Config = Kard_core.Config
module D = Kard_core.Divergence
module Race_record = Kard_core.Race_record
module Log = Kard_replay.Log
module Recorder = Kard_replay.Recorder
module Replayer = Kard_replay.Replayer

type outcome = {
  verdicts : Classify.obj_verdict list;
  divergent : Classify.obj_verdict list;
  classes : D.cls list;
  unexpected : bool;
  stuck : string option;
}

let allocator = Machine.Unique_page

(* The program on an unwrapped Kard machine — no trace log — for the
   dual-machine gates below.  [wrap] composes around the detector. *)
let run_unlogged ?schedule ?interp ?(wrap = fun _ h -> h) ~config ~seed prog =
  let cell = ref None in
  let make_detector env = wrap env (Detector.make ~config ~cell env) in
  let machine = Machine.create ~seed ?schedule ?interp ~allocator ~make_detector () in
  let (_ : Prog.run_ctx) = Prog.spawn_all prog ~machine ~on_event:(fun _ -> ()) in
  match Machine.run machine with
  | exception Machine.Stuck msg -> Error msg
  | report -> Ok (report, Detector.races (Option.get !cell))

let same_outcome a b =
  match (a, b) with
  | Ok a, Ok b -> a = b
  | Error a, Error b -> String.equal a b
  | Ok _, Error _ | Error _, Ok _ -> false

(* The primary (trace-logged) machine never batches cycle commits —
   the log wrapper observes every access — so batching is gated by a
   dual run: the same program, seed and configuration on two
   {e unwrapped} Kard machines, compiled vs [`Thunks], whose full
   reports and race-record lists must be structurally identical
   (DESIGN.md §10).  Unwrapped Kard has no access hooks at any
   sampling rate, so the compiled run genuinely batches; the thunk
   view never does. *)
let batch_gate_holds ~config ~seed prog =
  same_outcome
    (run_unlogged ~interp:`Compiled ~config ~seed prog)
    (run_unlogged ~interp:`Thunks ~config ~seed prog)

(* The record/replay layer (DESIGN.md §13) is gated the same way: the
   program runs once more on an unwrapped Kard machine with the
   recorder composed in, the log is pushed through its wire encoding
   and back — so the codec round-trips on every generated program —
   and a strict replay driven by the decoded tape must reproduce the
   report and race-record list exactly, with every pick, grant and
   anchor matching and the tape fully consumed.  As in the batch gate,
   the wrappers add no access hooks, so recording and replay both
   batch. *)
let replay_gate ?(target = "fuzz") ~config ~seed prog =
  let recorder = Recorder.create () in
  let recorded = run_unlogged ~wrap:(Recorder.wrap recorder) ~config ~seed prog in
  let header =
    Log.header ~detector:"kard" ~target ~threads:(prog.Prog.workers + 1) ~scale:1.0 ~seed ~config
      ()
  in
  match Log.decode (Log.encode (Recorder.log recorder ~header)) with
  | exception Log.Error _ -> false
  | log ->
    let replayer = Replayer.create ~mode:Replayer.Strict log in
    let replayed =
      run_unlogged ~schedule:(Replayer.schedule replayer) ~wrap:(Replayer.wrap replayer) ~config
        ~seed prog
    in
    Replayer.check replayer = Ok () && same_outcome recorded replayed

let run ?(kard_filter = fun (_ : Race_record.t) -> true)
    ?(provenance_filter = fun (p : Detector.provenance) -> p) ?(config = Config.default)
    ?(batch_gate = false) ?(replay = false) ?replay_target ~seed prog =
  let cell = ref None in
  let log = Trace_log.create () in
  let make_detector env =
    Trace_log.wrap log ~meta:env.Hooks.meta (Detector.make ~config ~cell env)
  in
  let machine = Machine.create ~seed ~allocator ~make_detector () in
  let (_ : Prog.run_ctx) =
    Prog.spawn_all prog ~machine ~on_event:(fun ev -> Trace_log.emit log ev)
  in
  match Machine.run machine with
  | exception Machine.Stuck msg ->
    { verdicts = []; divergent = []; classes = [ D.Unexpected ]; unexpected = true;
      stuck = Some msg }
  | (_ : Machine.report) ->
    let detector = Option.get !cell in
    let events = Trace_log.events log in
    let kard =
      Detector.races detector
      |> List.filter kard_filter
      |> List.map (fun (r : Race_record.t) -> r.Race_record.obj_id)
      |> List.sort_uniq compare
    in
    let alg1 = Oracles.alg1 ~section_identity:config.Config.section_identity events in
    let hb = Oracles.hb ~threads:(prog.Prog.workers + 1) events in
    let lockset = Oracles.lockset events in
    let verdicts =
      Classify.classify
        ~sampling:(config.Config.sampling < 1.0)
        ~provenance:(fun ~obj_id -> provenance_filter (Detector.provenance detector ~obj_id))
        ~kard ~alg1 ~hb ~lockset ()
    in
    let divergent = List.filter (fun v -> v.Classify.classes <> []) verdicts in
    let batch_ok = (not batch_gate) || batch_gate_holds ~config ~seed prog in
    let replay_ok = (not replay) || replay_gate ?target:replay_target ~config ~seed prog in
    let classes =
      List.sort_uniq D.compare
        ((if batch_ok then [] else [ D.Batch_divergence ])
        @ (if replay_ok then [] else [ D.Replay_divergence ])
        @ List.concat_map (fun v -> v.Classify.classes) divergent)
    in
    let unexpected = List.exists (fun c -> not (D.expected c)) classes in
    { verdicts; divergent; classes; unexpected; stuck = None }

let pp_outcome fmt o =
  match o.stuck with
  | Some msg -> Format.fprintf fmt "stuck: %s" msg
  | None ->
    if o.divergent = [] then Format.fprintf fmt "agreement on %d objects" (List.length o.verdicts)
    else
      Format.fprintf fmt "@[<v 0>%a@]"
        (Format.pp_print_list ~pp_sep:Format.pp_print_cut Classify.pp_verdict)
        o.divergent
