module Machine = Kard_sched.Machine
module Hooks = Kard_sched.Hooks
module Detector = Kard_core.Detector
module Config = Kard_core.Config
module D = Kard_core.Divergence
module Race_record = Kard_core.Race_record
module Log = Kard_replay.Log
module Runner = Kard_harness.Runner
module Record = Kard_harness.Record

type outcome = {
  verdicts : Classify.obj_verdict list;
  divergent : Classify.obj_verdict list;
  classes : D.cls list;
  unexpected : bool;
  stuck : string option;
}

(* [run ()], with a [Machine.Stuck] message as [Error]. *)
let unlogged run =
  match run () with
  | exception Machine.Stuck msg -> Error msg
  | r -> Ok r

(* The program through {!Runner.run_build} under Kard, with no trace
   log, for the dual-machine gates below. *)
let run_unlogged ?interp ~config ~seed prog =
  unlogged (fun () ->
      Runner.run_build ?interp ~threads:(prog.Prog.workers + 1) ~scale:1.0 ~seed
        ~detector:(Runner.Kard config) (Prog.build prog) "fuzz")

(* The primary (trace-logged) machine runs the log's access hooks, so
   the path every Kard run takes outside the fuzzer — the compiled
   interpreter with no access hooks, at any sampling rate — is gated
   by a dual run, the batch gate: the same program, seed and
   configuration on two {e unwrapped} Kard machines, compiled vs
   [`Thunks], whose whole {!Runner.result}s — report, detector
   statistics and race records — must be structurally identical. *)
let batch_gate_holds ~config ~seed prog =
  run_unlogged ~interp:`Compiled ~config ~seed prog
  = run_unlogged ~interp:`Thunks ~config ~seed prog

(* The record/replay layer (DESIGN.md §13) is gated the same way: the
   program runs once more on an unwrapped Kard machine with the
   recorder composed in, the log is pushed through its wire encoding
   and back — so the codec round-trips on every generated program —
   and a strict replay driven by the decoded tape must reproduce the
   whole result exactly, with every pick, grant and anchor matching
   and the tape fully consumed.  As in the batch gate,
   the wrappers add no access hooks, so recording and replay both take
   the unhooked access path. *)
let replay_gate ?(target = "fuzz") ~config ~seed prog =
  let recording =
    unlogged (fun () ->
        Record.record_build ~threads:(prog.Prog.workers + 1) ~scale:1.0 ~seed
          ~detector:(Runner.Kard config) ~target (Prog.build prog) "fuzz")
  in
  match recording with
  | Error _ -> false
  | Ok (recorded, log) -> (
    match Log.decode (Log.encode log) with
    | exception Log.Error _ -> false
    | log -> (
      (* The header carries [config], so the replay is strict. *)
      match unlogged (fun () -> Record.replay_build log (Prog.build prog) "fuzz") with
      | Ok (Ok (replayed, fidelity)) -> fidelity = Ok () && replayed = recorded
      | Ok (Error _) | Error _ -> false))

let run ?(kard_filter = fun (_ : Race_record.t) -> true)
    ?(provenance_filter = fun (p : Detector.provenance) -> p) ?(config = Config.default)
    ?(batch_gate = false) ?(replay = false) ?replay_target ~seed prog =
  let cell = ref None in
  let log = Trace_log.create () in
  let make_detector env =
    Trace_log.wrap log ~meta:env.Hooks.meta (Detector.make ~config ~cell env)
  in
  let machine = Machine.create ~seed ~allocator:Machine.Unique_page ~make_detector () in
  Prog.build ~on_event:(Trace_log.emit log) prog machine;
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
