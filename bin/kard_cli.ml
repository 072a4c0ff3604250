(* kard — command-line driver for the Kard reproduction.

   Subcommands:
     list                      catalog of workloads and race scenarios
     run <target>              run one workload or race scenario under one detector
     trace <target>            run with tracing; export a Chrome/Perfetto trace
     hunt <target>             sweep schedules for a race, then replay the interleaving
     record <target>           run with the nondeterminism recorder on; write a replay log
     replay <file>             re-execute a recorded log, verifying fidelity against the tape
     bench --only keys         the key-pressure precision sweep (writes Defaults.keys_out)
     bench --only sampling     the sampling sweep (writes Defaults.sampling_out)
     serve-sweep               open-loop serving latency/goodput sweep (writes Defaults.serve_out)
     repro <experiment>        regenerate a paper table/figure (or all of them)
     fuzz                      differential fuzzing campaign over random programs

   A target is a workload or race scenario name (workloads first;
   spec:NAME and scenario:NAME disambiguate); record also takes
   fuzz:SEED:INDEX.  -d kard runs the target's own configuration: a
   scenario's, a fuzz program's campaign entry, or else the defaults,
   with --vkeys and --sampling applied on top.
*)

module Machine = Kard_sched.Machine
module Spec = Kard_workloads.Spec
module Registry = Kard_workloads.Registry
module Race_suite = Kard_workloads.Race_suite
module Runner = Kard_harness.Runner
module Experiments = Kard_harness.Experiments
module Defaults = Kard_harness.Defaults
module Job = Kard_harness.Job
module Pool = Kard_harness.Pool
module Record = Kard_harness.Record
module Log = Kard_replay.Log
module Campaign = Kard_fuzz.Campaign

open Cmdliner

(* Names and numbers are checked while the command line is parsed, so
   a bad value is a usage error (exit 124, one-line message) rather
   than a run that ignores it or a crash inside a worker.  [of_string]
   says what it expected, as the Defaults parsers do. *)
let number_conv of_string print =
  let parse s =
    Result.map_error (fun expected -> `Msg (Printf.sprintf "invalid value %S, %s" s expected))
      (of_string s)
  in
  Arg.conv (parse, print)

let name_conv ~kind ~hint find print =
  let parse s =
    match find s with
    | v -> Ok v
    | exception Not_found -> Error (`Msg (Printf.sprintf "unknown %s %S; see %s" kind s hint))
  in
  Arg.conv (parse, print)

let positive_int = number_conv Defaults.positive_int_of_string Format.pp_print_int

let target_conv =
  let parse s = Result.map_error (fun msg -> `Msg msg) (Runner.find_target s) in
  Arg.conv (parse, fun fmt t -> Format.pp_print_string fmt (Runner.target_name t))

let target_arg =
  Arg.(required & pos 0 (some target_conv) None
       & info [] ~docv:"TARGET"
           ~doc:
             "Workload or race scenario name (see `kard list`); $(b,spec:)NAME and \
              $(b,scenario:)NAME disambiguate.  A scenario always runs at its own thread count \
              and full scale.")

(* The flags parse exactly as their environment overrides do. *)
let vkeys_arg =
  Arg.(value & opt (some (number_conv Defaults.vkeys_of_string Format.pp_print_int)) None
       & info [ "vkeys" ] ~docv:"N"
           ~doc:
             "Virtual-key pool size for the kard detector (default: $(b,\\$KARD_VKEYS) or 0).  \
              0 is identity mode — the detector works directly on the physical data pkeys, \
              byte-identical to the pre-vkey layer; a positive pool virtualizes key identity \
              over the hardware registers with clock eviction (DESIGN.md section 11).")

let sampling_arg =
  Arg.(value & opt (some (number_conv Defaults.sampling_of_string Format.pp_print_float)) None
       & info [ "sampling" ] ~docv:"RATE"
           ~doc:
             "Sampling rate in (0,1] for the kard detector (default: $(b,\\$KARD_SAMPLING) or \
              1.0).  1.0 is full Kard — byte-identical to the unsampled detector; below it a \
              seeded per-object/per-section policy decides what gets pkey protection each \
              epoch, and unsampled accesses take a near-zero fast path.  Reports under a rate \
              are always a subset of full Kard's (DESIGN.md section 12).")

let detector_conv =
  Arg.enum
    [ ("baseline", `Baseline); ("alloc", `Alloc); ("kard", `Kard); ("tsan", `Tsan);
      ("lockset", `Lockset) ]

(* The configuration -d kard starts from. *)
let own_config = function
  | Runner.Scenario sc -> sc.Race_suite.config
  | Runner.Spec _ -> Defaults.kard_config ()

(* One rule for every subcommand: -d kard starts from the target's own
   configuration and applies --vkeys and --sampling on top; the other
   detectors have no key space or sampling policy and ignore both. *)
let select ~vkeys ~sampling choice (own : Kard_core.Config.t) =
  match choice with
  | `Baseline -> Runner.Baseline
  | `Alloc -> Runner.Alloc
  | `Tsan -> Runner.Tsan
  | `Lockset -> Runner.Lockset
  | `Kard ->
    Runner.Kard
      { own with
        Kard_core.Config.vkeys = Option.value ~default:own.Kard_core.Config.vkeys vkeys;
        sampling = Option.value ~default:own.Kard_core.Config.sampling sampling }

(* -d, --vkeys and --sampling, awaiting the target's own configuration. *)
let detector_term =
  let detector_arg =
    Arg.(value & opt detector_conv `Kard
         & info [ "d"; "detector" ] ~docv:"DETECTOR"
             ~doc:
               "Detector: baseline, alloc, kard, tsan or lockset.  $(b,kard) runs the target's \
                own configuration (a scenario's, a fuzz program's campaign entry, else the \
                defaults) with $(b,--vkeys) and $(b,--sampling) applied on top.")
  in
  Term.(const (fun choice vkeys sampling -> select ~vkeys ~sampling choice)
        $ detector_arg $ vkeys_arg $ sampling_arg)

let threads_arg =
  Arg.(value & opt (some positive_int) None
       & info [ "t"; "threads" ] ~docv:"N" ~doc:"Thread count.")

let scale_conv = number_conv Defaults.scale_of_string Format.pp_print_float

let scale_arg =
  Arg.(value & opt scale_conv Defaults.scale
       & info [ "scale" ] ~docv:"F" ~doc:"Workload scale factor (0,1].")

let seed_arg =
  Arg.(value & opt int Defaults.seed & info [ "seed" ] ~docv:"SEED" ~doc:"Scheduler seed.")

let jobs_arg =
  Arg.(value & opt (some positive_int) None
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:
             "Worker domains for independent runs (default: $(b,\\$KARD_JOBS) or the host core \
              count).  Results are merged in submission order, so any value produces identical \
              output.")

(* list *)

let list_cmd =
  let action () =
    Printf.printf "Workloads (Table 3):\n";
    List.iter
      (fun spec ->
        Printf.printf "  %-16s %-10s %s\n" spec.Spec.name
          (Spec.category_name spec.Spec.category)
          spec.Spec.description)
      Registry.all;
    Printf.printf "\nServing workloads (open-loop; see `kard serve-sweep`):\n";
    List.iter
      (fun spec ->
        Printf.printf "  %-28s %s\n" spec.Spec.name spec.Spec.description)
      Registry.serving;
    Printf.printf "\nContention stress (lock-convoy scheduling):\n";
    List.iter
      (fun spec ->
        Printf.printf "  %-28s %s\n" spec.Spec.name spec.Spec.description)
      Registry.contention;
    Printf.printf "\nKey-pressure workloads (object-scale precision; see `kard bench --only keys`):\n";
    List.iter
      (fun spec ->
        Printf.printf "  %-28s %s\n" spec.Spec.name spec.Spec.description)
      Registry.key_pressure;
    Printf.printf
      "\nRace scenarios (Tables 1/4, Figures 1/4; `kard run NAME` runs one under its own \
       config):\n";
    List.iter
      (fun s -> Printf.printf "  %-28s %s\n" s.Race_suite.name s.Race_suite.description)
      Race_suite.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List workloads and race scenarios: the targets of run, trace, \
                             hunt and record")
    Term.(const action $ const ())

(* run *)

let print_result (result : Runner.result) =
  let r = result.Runner.report in
  Printf.printf "workload:  %s\ndetector:  %s (threads=%d scale=%g seed=%d)\n" result.spec_name
    result.detector_name result.threads result.scale result.seed;
  Printf.printf "cycles:    %s (io %s, wall %s)\n" (Kard_harness.Text_table.fmt_int r.Machine.cycles)
    (Kard_harness.Text_table.fmt_int r.Machine.io_cycles)
    (Kard_harness.Text_table.fmt_int r.Machine.wall_cycles);
  Printf.printf "steps:     %s   reads/writes: %s/%s\n"
    (Kard_harness.Text_table.fmt_int r.Machine.steps)
    (Kard_harness.Text_table.fmt_int r.Machine.reads)
    (Kard_harness.Text_table.fmt_int r.Machine.writes);
  Printf.printf "sections:  %d sites, %s entries (%s contended), max concurrent %d\n"
    r.Machine.unique_sections
    (Kard_harness.Text_table.fmt_int r.Machine.cs_entries)
    (Kard_harness.Text_table.fmt_int r.Machine.contended_entries)
    r.Machine.max_concurrent_sections;
  Printf.printf "faults:    %d   rss: %s KiB   dTLB miss rate: %.5f\n" r.Machine.faults
    (Kard_harness.Text_table.fmt_kb r.Machine.rss_bytes)
    r.Machine.dtlb_miss_rate;
  let hw = r.Machine.hw_stats in
  Printf.printf "hw:        wrpkru %s, rdpkru %s, pkey_mprotect %s (%s pages), dTLB %s/%s\n"
    (Kard_harness.Text_table.fmt_int hw.Kard_mpk.Mpk_hw.wrpkru_calls)
    (Kard_harness.Text_table.fmt_int hw.Kard_mpk.Mpk_hw.rdpkru_calls)
    (Kard_harness.Text_table.fmt_int hw.Kard_mpk.Mpk_hw.pkey_mprotect_calls)
    (Kard_harness.Text_table.fmt_int hw.Kard_mpk.Mpk_hw.pages_retagged)
    (Kard_harness.Text_table.fmt_int hw.Kard_mpk.Mpk_hw.dtlb_misses)
    (Kard_harness.Text_table.fmt_int hw.Kard_mpk.Mpk_hw.dtlb_accesses);
  (match result.Runner.kard_stats with
  | Some s ->
    Printf.printf
      "kard:      ident r/w %d/%d, proactive %d, reactive %d, migrations %d, demotions %d\n"
      s.Kard_core.Detector.identifications_read s.Kard_core.Detector.identifications_write
      s.Kard_core.Detector.proactive_acquisitions s.Kard_core.Detector.reactive_acquisitions
      s.Kard_core.Detector.migrations s.Kard_core.Detector.demotions;
    Printf.printf "keys:      fresh %d, reuse %d, recycle %d, share %d\n"
      s.Kard_core.Detector.fresh_events s.Kard_core.Detector.reuse_events
      s.Kard_core.Detector.recycling_events s.Kard_core.Detector.sharing_events;
    Printf.printf "records:   logged %d, redundant %d, pruned spurious %d, surviving %d (ILU %d)\n"
      s.Kard_core.Detector.records_logged s.Kard_core.Detector.records_redundant
      s.Kard_core.Detector.records_pruned_spurious
      (List.length result.Runner.kard_races)
      (List.length result.Runner.kard_ilu_races);
    List.iter
      (fun race -> Format.printf "  %a@." Kard_core.Race_record.pp race)
      result.Runner.kard_races
  | None -> ());
  if result.Runner.tsan_races <> [] then
    Printf.printf "tsan:      %d races (%d ILU)\n"
      (List.length result.Runner.tsan_races)
      (List.length result.Runner.tsan_ilu_races);
  if result.Runner.lockset_warnings <> [] then
    Printf.printf "lockset:   %d warnings\n" (List.length result.Runner.lockset_warnings)

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit a machine-readable JSON report.")

let run_cmd =
  let seeds_arg =
    Arg.(value & opt (some (list int)) None
         & info [ "seeds" ] ~docv:"S,S,..."
             ~doc:"Run one job per seed (reported in seed-list order) instead of --seed alone.")
  in
  let action target detector threads scale seed seeds jobs json =
    let detector = detector (own_config target) in
    let seeds = Option.value ~default:[ seed ] seeds in
    let results =
      Pool.run_jobs ?jobs
        (List.map (fun seed -> Job.make ?threads ~scale ~seed detector target) seeds)
    in
    if json then
      List.iter
        (fun result ->
          print_endline
            (Kard_harness.Json_report.pretty (Kard_harness.Json_report.of_result result)))
        results
    else
      List.iteri
        (fun i result ->
          if i > 0 then print_newline ();
          print_result result)
        results
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one workload or race scenario under one detector")
    Term.(const action $ target_arg $ detector_term $ threads_arg $ scale_arg $ seed_arg
          $ seeds_arg $ jobs_arg $ json_arg)

(* trace: run a target with the observability sink on and export a
   Perfetto-loadable Chrome trace plus the metrics registry. *)

let trace_cmd =
  let out_arg =
    Arg.(value & opt string "trace.json"
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Chrome trace output path.")
  in
  let steps_arg =
    Arg.(value & flag
         & info [ "steps" ]
             ~doc:"Also record every read/write/compute step (fills the ring fast).")
  in
  let capacity_arg =
    Arg.(value & opt positive_int 65536
         & info [ "capacity" ] ~docv:"N"
             ~doc:"Event ring capacity; oldest events are dropped beyond it.")
  in
  let action target detector threads scale seed out steps capacity =
    let detector = detector (own_config target) in
    let tr = Kard_obs.Trace.create ~capacity ~steps () in
    let result = Runner.run ~trace:tr ?threads ~scale ~seed ~detector target in
    let oc = open_out out in
    output_string oc (Kard_obs.Chrome_trace.to_json ~t:tr);
    close_out oc;
    let r = result.Runner.report in
    Printf.printf "workload:  %s under %s (threads=%d scale=%g seed=%d)\n" result.Runner.spec_name
      result.Runner.detector_name result.Runner.threads result.Runner.scale result.Runner.seed;
    Printf.printf "cycles:    %s   faults: %d   dTLB miss rate: %.5f\n"
      (Kard_harness.Text_table.fmt_int r.Machine.cycles)
      r.Machine.faults r.Machine.dtlb_miss_rate;
    Printf.printf "trace:     %s (load in ui.perfetto.dev or about:tracing)\n\n" out;
    Kard_harness.Obs_report.print_trace_summary tr;
    print_newline ();
    Kard_harness.Obs_report.print_metrics (Kard_obs.Trace.metrics tr)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a target with event tracing on; write a Perfetto-loadable Chrome trace")
    Term.(const action $ target_arg $ detector_term $ threads_arg $ scale_arg $ seed_arg
          $ out_arg $ steps_arg $ capacity_arg)

(* hunt: sweep seeds until a schedule manifests a race, then replay
   that exact interleaving to confirm — the race-debugging loop. *)

let hunt_cmd =
  let tries_arg =
    Arg.(value & opt positive_int 50
         & info [ "tries" ] ~docv:"N" ~doc:"Seeds to sweep (default 50).")
  in
  let action target tries jobs =
    let detector = Runner.Kard (own_config target) in
    (* Sweep one pool-width batch of seeds at a time, scanning each
       batch in seed order: the reported hit is always the smallest
       racing seed, exactly as a serial loop finds it, and no batch
       after the first racing one runs. *)
    let width = Pool.resolve_jobs jobs in
    let racing seed =
      Pool.(
        let+ r = job (Job.make ~seed detector target) in
        if r.Runner.kard_ilu_races <> [] then Some (seed, r) else None)
    in
    let rec sweep first =
      if first > tries then None
      else
        let seeds = List.init (min width (tries - first + 1)) (fun i -> first + i) in
        match List.find_map Fun.id (Pool.execute ?jobs (Pool.all (List.map racing seeds))) with
        | Some _ as hit -> hit
        | None -> sweep (first + width)
    in
    match sweep 1 with
    | None -> Printf.printf "no race manifested in %d schedules\n" tries
    | Some (seed, found) ->
      Printf.printf "race manifested at seed %d (%d/%d schedules swept):\n" seed seed tries;
      List.iter
        (fun race -> Format.printf "  %a@." Kard_core.Race_record.pp race)
        found.Runner.kard_ilu_races;
      (* Replay the recorded interleaving: must reproduce exactly. *)
      let tape = found.Runner.report.Machine.schedule_trace in
      let replayed =
        (Runner.run ~schedule:(Kard_sched.Schedule.Replay tape) ~seed ~detector target)
          .Runner.kard_ilu_races
      in
      Printf.printf "replayed the %d-step schedule: %d race(s) reproduced %s\n"
        (Array.length tape) (List.length replayed)
        (if List.length replayed = List.length found.Runner.kard_ilu_races then "(exact)"
         else "(differs!)")
  in
  Cmd.v
    (Cmd.info "hunt" ~doc:"Sweep schedules for a race, then replay the found interleaving")
    Term.(const action $ target_arg $ tries_arg $ jobs_arg)

(* record / replay: the nondeterminism-log layer (DESIGN.md §13).
   With --json both commands print only the run's result JSON on
   stdout — status and fidelity lines go to stderr — so CI can diff a
   recorded run against its replay byte-for-byte.  Targets are those
   of run, or fuzz:SEED:INDEX (a campaign program, reconstructed from
   the pair, whose own configuration is its campaign entry's). *)

let fuzz_build (r : Campaign.reconstructed) = Kard_fuzz.Prog.build r.Campaign.rp_prog

let print_or_json ~json result =
  if json then
    print_endline (Kard_harness.Json_report.pretty (Kard_harness.Json_report.of_result result))
  else print_result result

let sanitize_target name =
  String.map (function ':' | '/' -> '-' | c -> c) name

let resolve_log_target s =
  match Campaign.of_target s with
  | Some (cseed, i) -> Ok (`Fuzz (cseed, i, Campaign.reconstruct ~seed:cseed i))
  | None -> Result.map (fun target -> `Target target) (Runner.find_target s)

let log_target_config = function
  | `Fuzz (_, _, r) -> r.Campaign.rp_config
  | `Target target -> own_config target

let record_cmd =
  (* The name as given names the default output file. *)
  let record_target_conv =
    let parse s =
      Result.map (fun t -> (s, t)) (resolve_log_target s)
      |> Result.map_error (fun msg -> `Msg msg)
    in
    Arg.conv (parse, fun fmt (s, _) -> Format.pp_print_string fmt s)
  in
  let target_arg =
    Arg.(required & pos 0 (some record_target_conv) None
         & info [] ~docv:"TARGET"
             ~doc:
               "What to record: a target as for $(b,run), or $(b,fuzz:)SEED$(b,:)INDEX \
                (program INDEX of fuzz campaign SEED, reconstructed from the pair — no program \
                file needed).")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "out"; "output" ] ~docv:"FILE"
             ~doc:"Replay-log output path (default: $(docv) derived from the target name).")
  in
  let action (name, target) detector threads scale seed out json =
    let out = Option.value ~default:(sanitize_target name ^ ".rlog") out in
    let detector = detector (log_target_config target) in
    let result, log =
      match target with
      | `Fuzz (cseed, i, r) ->
        (* A campaign program records at its campaign entry's machine
           seed unless --seed says otherwise. *)
        let seed = if seed = Defaults.seed then r.Campaign.rp_machine_seed else seed in
        Record.record_build ~threads:(r.Campaign.rp_prog.Kard_fuzz.Prog.workers + 1)
          ~scale:1.0 ~seed ~detector ~target:(Campaign.target ~seed:cseed i) (fuzz_build r)
          (Printf.sprintf "fuzz-%d-%d" cseed i)
      | `Target target -> Record.record ?threads ~scale ~seed ~detector target
    in
    Log.to_file out log;
    Printf.eprintf "recorded %s: %d picks, %d grants, %d bytes -> %s\n"
      log.Log.header.Log.target (Log.pick_count log) (Log.grant_count log)
      (String.length (Log.encode log)) out;
    print_or_json ~json result
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:
         "Run a target with the nondeterminism recorder on and write a compact replay log \
          (schedule picks, lock-grant order, anchors; recording costs zero simulated cycles)")
    Term.(const action $ target_arg $ detector_term $ threads_arg $ scale_arg $ seed_arg
          $ out_arg $ json_arg)

let replay_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"Replay log written by $(b,kard record).")
  in
  let detector_opt_arg =
    Arg.(value & opt (some detector_conv) None
         & info [ "d"; "detector" ] ~docv:"DETECTOR"
             ~doc:
               "Replay under this detector instead of the recorded one (cross-detector replay: \
                record under cheap sampling, re-detect under full kard, tsan or lockset; \
                fidelity checking drops to schedule-only strength).  As for $(b,record), \
                $(b,kard) means the recorded target's own configuration.")
  in
  let action file detector vkeys sampling json =
    let fail msg =
      Printf.eprintf "replay: %s\n" msg;
      exit 2
    in
    let log = try Log.of_file file with Log.Error e -> fail (Log.error_to_string e) in
    let h = log.Log.header in
    Printf.eprintf "replaying %s: %s, %d picks, %d grants\n" file
      (Format.asprintf "%a" Log.pp_header h)
      (Log.pick_count log) (Log.grant_count log);
    let target =
      match resolve_log_target h.Log.target with
      | Ok target -> target
      | Error msg -> fail (Printf.sprintf "cannot resolve recorded target: %s" msg)
    in
    (* -d selects as record does; --vkeys or --sampling alone tune the
       recorded detector; with none of the three the recorded detector
       replays in strict mode. *)
    let detector =
      match (detector, vkeys, sampling) with
      | None, None, None -> None
      | Some choice, _, _ -> Some (select ~vkeys ~sampling choice (log_target_config target))
      | None, _, _ -> (
        match Record.detector_of_header h with
        | Ok (Runner.Kard c) -> Some (select ~vkeys ~sampling `Kard c)
        | Ok d -> Some d
        | Error msg -> fail msg)
    in
    let outcome =
      match target with
      | `Fuzz (cseed, i, r) ->
        Record.replay_build ?detector log (fuzz_build r) (Printf.sprintf "fuzz-%d-%d" cseed i)
      | `Target _ -> Record.replay ?detector log
    in
    match outcome with
    | Error msg -> fail msg
    | Ok (result, fidelity) ->
      print_or_json ~json result;
      (match fidelity with
      | Ok () -> Printf.eprintf "replay fidelity: ok (tape fully consumed)\n"
      | Error msg ->
        Printf.eprintf "replay fidelity: DIVERGED\n%s\n" msg;
        exit 1)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-execute a recorded run from its nondeterminism log, byte-identical to the \
          original, verifying every pick, lock grant and anchor against the tape (exit 1 on \
          divergence)")
    Term.(const action $ file_arg $ detector_opt_arg $ vkeys_arg $ sampling_arg $ json_arg)

(* bench: the tracked simulated sweeps (BENCH_pr8.json, BENCH_pr9.json). *)

let write_json out json =
  let oc = open_out out in
  output_string oc (Kard_harness.Json_report.pretty json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" out

let bench_cmd =
  (* The tracked filenames render from Defaults so the help text can
     never go stale against where `kard bench` actually writes. *)
  let only_arg =
    Arg.(required
         & opt (some (enum [ ("keys", `Keys); ("sampling", `Sampling) ])) None
         & info [ "only" ] ~docv:"BENCH"
             ~doc:
               (Printf.sprintf
                  "Which tracked sweep to run: $(b,keys) (the key-pressure precision sweep, %s) \
                   or $(b,sampling) (detection probability/latency vs rate plus the \
                   sampled-kard serve sweep, %s)."
                  Defaults.keys_out Defaults.sampling_out))
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "out"; "output" ] ~docv:"FILE"
             ~doc:"JSON output path (default: the sweep's tracked file).")
  in
  let scale_opt_arg =
    Arg.(value & opt (some scale_conv) None
         & info [ "scale" ] ~docv:"F"
             ~doc:
               "Workload scale factor (0,1] (default: 1.0 for keys — the precision claim is \
                about object count; 0.1 for sampling's key-pressure subject, whose race \
                scenarios always run at full scale).")
  in
  let action only scale seed vkeys jobs out =
    match only with
    | `Keys ->
      let b = Pool.execute ?jobs (Experiments.keys_plan ?pool:vkeys ?scale ~seed ()) in
      Experiments.print_keys_bench b;
      write_json
        (Option.value ~default:Defaults.keys_out out)
        (Kard_harness.Json_report.of_keys_bench b)
    | `Sampling ->
      let b = Pool.execute ?jobs (Experiments.sampling_plan ?scale ()) in
      Experiments.print_sampling b;
      write_json
        (Option.value ~default:Defaults.sampling_out out)
        (Kard_harness.Json_report.of_sampling_bench ~threads:Defaults.table_threads
           ~scale:Defaults.serve_scale ~seed:Defaults.seed b)
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run a tracked simulated sweep: the key-pressure precision sweep (--only keys) or the \
          sampling sweep (--only sampling)")
    Term.(const action $ only_arg $ scale_opt_arg $ seed_arg $ vkeys_arg $ jobs_arg $ out_arg)

(* serve-sweep: the open-loop production-serving benchmark
   (BENCH_pr6.json).  Sweeps offered load over detectors and reports
   latency percentiles plus goodput under the p99 SLO. *)

let serve_sweep_cmd =
  let module Openloop = Kard_workloads.Openloop in
  let server_conv =
    let parse = function
      | "nginx" -> Ok Openloop.Nginx
      | "memcached" -> Ok Openloop.Memcached
      | s -> Error (`Msg (Printf.sprintf "unknown server %S (nginx or memcached)" s))
    in
    Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (Openloop.server_name s))
  in
  let server_arg =
    Arg.(value & opt server_conv Openloop.Nginx
         & info [ "server" ] ~docv:"SERVER" ~doc:"Simulated server: nginx or memcached.")
  in
  let arrivals_conv =
    let parse = function
      | "poisson" -> Ok Openloop.Poisson
      | "bursty" -> Ok Openloop.default_bursty
      | s -> Error (`Msg (Printf.sprintf "unknown arrival model %S (poisson or bursty)" s))
    in
    Arg.conv (parse, fun fmt m -> Format.pp_print_string fmt (Openloop.arrival_name m))
  in
  let arrivals_arg =
    Arg.(value & opt arrivals_conv Openloop.Poisson
         & info [ "arrivals" ] ~docv:"MODEL"
             ~doc:
               "Arrival process: poisson (memoryless) or bursty (Markov-modulated, 8x rate \
                bursts).")
  in
  let rates_arg =
    Arg.(value
         & opt
             (list (number_conv Defaults.positive_float_of_string Format.pp_print_float))
             Experiments.default_serve_rates
         & info [ "rates" ] ~docv:"R,R,..."
             ~doc:"Offered loads to sweep, in requests per million simulated cycles.")
  in
  let slo_arg =
    Arg.(value & opt positive_int Defaults.serve_slo
         & info [ "slo" ] ~docv:"CYCLES" ~doc:"Latency SLO: p99 budget in simulated cycles.")
  in
  let serve_scale_arg =
    Arg.(value & opt scale_conv Defaults.serve_scale
         & info [ "scale" ] ~docv:"F" ~doc:"Workload scale factor (0,1].")
  in
  let out_arg =
    Arg.(value & opt string Defaults.serve_out
         & info [ "o"; "out"; "output" ] ~docv:"FILE" ~doc:"JSON output path.")
  in
  let threads_opt_arg =
    Arg.(value & opt positive_int Defaults.table_threads
         & info [ "t"; "threads" ] ~docv:"N" ~doc:"Worker thread count of the simulated server.")
  in
  let action server model rates slo threads scale seed jobs sampling out =
    (* --sampling swaps the default kard contestant for a sampled one
       (same "kard" label, so goodput keys stay comparable). *)
    let detectors =
      List.map
        (fun (name, d) ->
          match d with
          | Runner.Kard c -> (name, select ~vkeys:None ~sampling `Kard c)
          | d -> (name, d))
        Experiments.serve_detectors
    in
    let sweep =
      Pool.execute ?jobs
        (Experiments.serve_plan ~server ~model ~detectors ~rates ~threads ~scale ~seed ~slo ())
    in
    Experiments.print_serve sweep;
    write_json out (Kard_harness.Json_report.of_serve_sweep ~threads ~scale ~seed sweep)
  in
  Cmd.v
    (Cmd.info "serve-sweep"
       ~doc:
         "Open-loop serving benchmark: sweep offered load over detectors, report latency \
          percentiles and goodput under the p99 SLO")
    Term.(const action $ server_arg $ arrivals_arg $ rates_arg $ slo_arg $ threads_opt_arg
          $ serve_scale_arg $ seed_arg $ jobs_arg $ sampling_arg $ out_arg)

(* fuzz: the differential campaign.  Exit code 1 on any unexpected
   divergence so CI can gate on it. *)

let fuzz_cmd =
  let count_arg =
    Arg.(value & opt positive_int 1000
         & info [ "n"; "count" ] ~docv:"N"
             ~doc:"Cumulative number of programs (a resumed corpus runs only the remainder).")
  in
  let corpus_arg =
    Arg.(value & opt (some string) None
         & info [ "corpus" ] ~docv:"DIR"
             ~doc:
               "Corpus directory: campaign state (resumable), per-class exemplar repros, and \
                minimized repros for unexpected divergences.")
  in
  let replay_arg =
    Arg.(value & flag
         & info [ "replay" ]
             ~doc:
               "Run the record/replay gate on every program (default: only the replay-oracle \
                config entries): record the run's nondeterminism log, round-trip the codec, \
                strictly replay, and demand an identical report and race list.  Any difference \
                is the never-expected replay-divergence class.")
  in
  let action count seed corpus jobs sampling replay =
    let replay = if replay then Some true else None in
    let r = Kard_fuzz.Campaign.run ?jobs ?corpus ?sampling ?replay ~count ~seed () in
    Format.printf "%a@." Kard_fuzz.Campaign.report r;
    Printf.printf "(%d programs this invocation%s)\n" r.Kard_fuzz.Campaign.programs
      (match corpus with None -> "" | Some dir -> Printf.sprintf ", corpus %s" dir);
    if r.Kard_fuzz.Campaign.unexpected_indices <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: random programs under the Kard runtime, replayed through pure \
          Algorithm 1, happens-before and Eraser-lockset oracles; every divergence must match \
          the documented taxonomy")
    Term.(const action $ count_arg $ seed_arg $ corpus_arg $ jobs_arg $ sampling_arg
          $ replay_arg)

(* repro: every experiment of the paper's evaluation, in `repro all`
   order.  An experiment answers to its id and to its aliases, the
   paper's other numbers for the same table or figure. *)

let experiments =
  let open Experiments in
  let run ?jobs plan print = print (Pool.execute ?jobs plan) in
  [ ("micro", [], fun ~jobs:_ ~scale:_ -> print_micro ());
    ("figure2", [], fun ~jobs:_ ~scale:_ -> print_figure2 (figure2 ()));
    ( "table1",
      [ "figure1"; "table4"; "figure4"; "scenarios" ],
      fun ~jobs ~scale:_ -> run ?jobs (scenarios_plan ()) print_scenarios );
    ("table3", [], fun ~jobs ~scale -> run ?jobs (table3_plan ~scale ()) print_table3);
    ( "table5",
      [],
      fun ~jobs ~scale ->
        print_endline "full key budget (13 data keys):";
        run ?jobs (table5_plan ~scale ()) print_table5;
        print_endline "\npressure-scaled key budget (4 data keys; see EXPERIMENTS.md):";
        run ?jobs (table5_plan ~data_keys:4 ~scale ()) print_table5 );
    ("table6", [], fun ~jobs ~scale -> run ?jobs (table6_plan ~scale ()) print_table6);
    ("figure5", [], fun ~jobs ~scale -> run ?jobs (figure5_plan ~scale ()) print_figure5);
    ( "nginx-sweep",
      [],
      fun ~jobs ~scale -> run ?jobs (nginx_sweep_plan ~scale ()) print_nginx_sweep );
    ("memory", [], fun ~jobs ~scale -> run ?jobs (memory_plan ~scale ()) print_memory);
    ("ablation", [], fun ~jobs ~scale -> run ?jobs (ablation_plan ~scale ()) print_ablation);
    ("nolock", [], fun ~jobs ~scale -> run ?jobs (nolock_plan ~scale ()) print_nolock);
    ("explore", [], fun ~jobs ~scale:_ -> run ?jobs (explore_plan ()) print_explore) ]

(* Resolves to the (name, run) pairs to execute; a single name keeps
   the spelling it was given for its header. *)
let find_experiments = function
  | "all" -> List.map (fun (id, _, run) -> (id, run)) experiments
  | name ->
    let _, _, run =
      List.find (fun (id, aliases, _) -> id = name || List.mem name aliases) experiments
    in
    [ (name, run) ]

let experiment_conv =
  name_conv ~kind:"experiment" ~hint:"--help" find_experiments (fun fmt runs ->
      Format.pp_print_string fmt (String.concat "," (List.map fst runs)))

let repro_cmd =
  let exp_arg =
    Arg.(required & pos 0 (some experiment_conv) None
         & info [] ~docv:"EXPERIMENT"
             ~doc:
               (Printf.sprintf "One of: %s, or all (every one in that order)."
                  (String.concat ", "
                     (List.map
                        (fun (id, aliases, _) ->
                          if aliases = [] then id
                          else Printf.sprintf "%s (also %s)" id (String.concat ", " aliases))
                        experiments))))
  in
  let action runs scale jobs =
    List.iter
      (fun (name, run) ->
        Printf.printf "== %s ==\n%!" name;
        run ~jobs ~scale;
        print_newline ())
      runs
  in
  Cmd.v (Cmd.info "repro" ~doc:"Regenerate a table or figure from the paper")
    Term.(const action $ exp_arg $ scale_arg $ jobs_arg)

let () =
  let info = Cmd.info "kard" ~doc:"Kard: MPK-based data race detection (ASPLOS'21), simulated" in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; trace_cmd; hunt_cmd; record_cmd; replay_cmd;
            bench_cmd; serve_sweep_cmd; repro_cmd; fuzz_cmd ]))
