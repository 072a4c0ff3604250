(* kard — command-line driver for the Kard reproduction.

   Subcommands:
     list                      catalog of workloads and race scenarios
     run <workload>            run one workload under one detector
     scenario <name>           run one controlled race scenario
     trace <workload>          run with tracing; export a Chrome/Perfetto trace
     record <target>           run with the nondeterminism recorder on; write a replay log
     replay <file>             re-execute a recorded log, verifying fidelity against the tape
     bench                     tracked benchmarks: throughput (Defaults.throughput_out),
                               --only keys, the key-pressure precision sweep (Defaults.keys_out),
                               --only sampling, the sampling sweep (Defaults.sampling_out),
                               or --only record, recording overhead (Defaults.record_out)
     serve-sweep               open-loop serving latency/goodput sweep (writes Defaults.serve_out)
     repro <experiment>        regenerate a paper table/figure
     fuzz                      differential fuzzing campaign over random programs
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

let detector_conv =
  let parse = function
    | "baseline" -> Ok Runner.Baseline
    | "alloc" -> Ok Runner.Alloc
    | "kard" -> Ok (Runner.Kard (Defaults.kard_config ()))
    | "tsan" -> Ok Runner.Tsan
    | "lockset" -> Ok Runner.Lockset
    | s -> Error (`Msg (Printf.sprintf "unknown detector %S" s))
  in
  let print fmt d = Format.pp_print_string fmt (Runner.detector_name d) in
  Arg.conv (parse, print)

let detector_arg =
  Arg.(value & opt detector_conv (Runner.Kard (Defaults.kard_config ()))
       & info [ "d"; "detector" ] ~docv:"DETECTOR"
           ~doc:"Detector: baseline, alloc, kard, tsan or lockset.")

let vkeys_arg =
  Arg.(value & opt (some int) None
       & info [ "vkeys" ] ~docv:"N"
           ~doc:
             "Virtual-key pool size for the kard detector (default: $(b,\\$KARD_VKEYS) or 0).  \
              0 is identity mode — the detector works directly on the physical data pkeys, \
              byte-identical to the pre-vkey layer; a positive pool virtualizes key identity \
              over the hardware registers with clock eviction (DESIGN.md section 11).")

(* --vkeys only parameterizes the kard detector; other detectors have
   no key space and ignore it. *)
let with_vkeys vkeys detector =
  match (vkeys, detector) with
  | Some n, Runner.Kard c -> Runner.Kard { c with Kard_core.Config.vkeys = n }
  | _, d -> d

let sampling_arg =
  Arg.(value & opt (some float) None
       & info [ "sampling" ] ~docv:"RATE"
           ~doc:
             "Sampling rate in (0,1] for the kard detector (default: $(b,\\$KARD_SAMPLING) or \
              1.0).  1.0 is full Kard — byte-identical to the unsampled detector; below it a \
              seeded per-object/per-section policy decides what gets pkey protection each \
              epoch, and unsampled accesses take a near-zero fast path.  Reports under a rate \
              are always a subset of full Kard's (DESIGN.md section 12).")

(* Like --vkeys: only the kard detector has a sampling policy. *)
let with_sampling sampling detector =
  match (sampling, detector) with
  | Some r, Runner.Kard c -> Runner.Kard { c with Kard_core.Config.sampling = r }
  | _, d -> d

let threads_arg =
  Arg.(value & opt (some int) None & info [ "t"; "threads" ] ~docv:"N" ~doc:"Thread count.")

let scale_arg =
  Arg.(value & opt float Defaults.scale
       & info [ "scale" ] ~docv:"F" ~doc:"Workload scale factor (0,1].")

let seed_arg =
  Arg.(value & opt int Defaults.seed & info [ "seed" ] ~docv:"SEED" ~doc:"Scheduler seed.")

let jobs_arg =
  Arg.(value & opt (some int) None
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
    Printf.printf "\nRace scenarios (Tables 1/4, Figures 1/4):\n";
    List.iter
      (fun s -> Printf.printf "  %-28s %s\n" s.Race_suite.name s.Race_suite.description)
      Race_suite.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List workloads and race scenarios")
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
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc:"Workload name.")
  in
  let seeds_arg =
    Arg.(value & opt (some (list int)) None
         & info [ "seeds" ] ~docv:"S,S,..."
             ~doc:"Run one job per seed (reported in seed-list order) instead of --seed alone.")
  in
  let action name detector vkeys sampling threads scale seed seeds jobs json =
    match Registry.find name with
    | spec ->
      let detector = with_sampling sampling (with_vkeys vkeys detector) in
      let seeds = Option.value ~default:[ seed ] seeds in
      let results =
        Pool.run_jobs ?jobs
          (List.map (fun seed -> Job.spec ?threads ~scale ~seed detector spec) seeds)
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
    | exception Not_found -> Printf.eprintf "unknown workload %S; try `kard list`\n" name
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one workload under one detector")
    Term.(const action $ name_arg $ detector_arg $ vkeys_arg $ sampling_arg $ threads_arg
          $ scale_arg $ seed_arg $ seeds_arg $ jobs_arg $ json_arg)

let scenario_cmd =
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SCENARIO" ~doc:"Scenario name.")
  in
  let action name detector vkeys sampling seed =
    match Race_suite.find name with
    | scenario ->
      (* A scenario normally runs under its own configuration; --vkeys
         and --sampling override just those knobs on top of it. *)
      let override_config =
        match (vkeys, sampling) with
        | None, None -> None
        | _ ->
          let c = scenario.Race_suite.config in
          let c =
            match vkeys with Some n -> { c with Kard_core.Config.vkeys = n } | None -> c
          in
          let c =
            match sampling with
            | Some r -> { c with Kard_core.Config.sampling = r }
            | None -> c
          in
          Some c
      in
      print_result (Runner.run_scenario ~seed ?override_config ~detector scenario)
    | exception Not_found -> Printf.eprintf "unknown scenario %S; try `kard list`\n" name
  in
  Cmd.v (Cmd.info "scenario" ~doc:"Run one controlled race scenario")
    Term.(const action $ name_arg $ detector_arg $ vkeys_arg $ sampling_arg $ seed_arg)

(* trace: run a workload with the observability sink on and export a
   Perfetto-loadable Chrome trace plus the metrics registry. *)

let trace_cmd =
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc:"Workload name.")
  in
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
    Arg.(value & opt int 65536
         & info [ "capacity" ] ~docv:"N"
             ~doc:"Event ring capacity; oldest events are dropped beyond it.")
  in
  let action name detector vkeys sampling threads scale seed out steps capacity =
    let detector = with_sampling sampling (with_vkeys vkeys detector) in
    if capacity <= 0 then Printf.eprintf "trace: --capacity must be positive (got %d)\n" capacity
    else
    match Registry.find name with
    | exception Not_found -> Printf.eprintf "unknown workload %S; try `kard list`\n" name
    | spec ->
      let tr = Kard_obs.Trace.create ~capacity ~steps () in
      let result = Runner.run ~trace:tr ?threads ~scale ~seed ~detector spec in
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
       ~doc:"Run a workload with event tracing on; write a Perfetto-loadable Chrome trace")
    Term.(const action $ name_arg $ detector_arg $ vkeys_arg $ sampling_arg $ threads_arg
          $ scale_arg $ seed_arg $ out_arg $ steps_arg $ capacity_arg)

(* hunt: sweep seeds until a schedule manifests a race, then replay
   that exact interleaving to confirm — the race-debugging loop. *)

let hunt_cmd =
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SCENARIO" ~doc:"Scenario name.")
  in
  let tries_arg =
    Arg.(value & opt int 50 & info [ "tries" ] ~docv:"N" ~doc:"Seeds to sweep (default 50).")
  in
  let action name tries jobs =
    match Race_suite.find name with
    | exception Not_found -> Printf.eprintf "unknown scenario %S; try `kard list`\n" name
    | scenario ->
      let detector = Runner.Kard scenario.Race_suite.config in
      (* Sweep one pool-width batch of seeds at a time, scanning each
         batch in seed order: the reported hit is always the smallest
         racing seed, exactly as the old serial loop found it. *)
      let width = Pool.resolve_jobs jobs in
      let rec sweep = function
        | [] -> None
        | batch :: rest ->
          let results =
            Pool.run_jobs ?jobs
              (List.map (fun seed -> Job.scenario ~seed detector scenario) batch)
          in
          let hit =
            List.find_opt
              (fun (_, r) -> r.Runner.kard_ilu_races <> [])
              (List.combine batch results)
          in
          (match hit with Some _ -> hit | None -> sweep rest)
      in
      (match sweep (Pool.chunks width (List.init tries (fun i -> i + 1))) with
      | None -> Printf.printf "no race manifested in %d schedules\n" tries
      | Some (seed, found) ->
        Printf.printf "race manifested at seed %d (%d/%d schedules swept):\n" seed seed tries;
        List.iter
          (fun race -> Format.printf "  %a@." Kard_core.Race_record.pp race)
          found.Runner.kard_ilu_races;
        (* Replay the recorded interleaving: must reproduce exactly. *)
        let tape = found.Runner.report.Machine.schedule_trace in
        let cell = ref None in
        let machine =
          Machine.create ~schedule:(Kard_sched.Schedule.Replay tape)
            ~allocator:(Machine.Unique_page { granule = 32; recycle_virtual_pages = false })
            ~make_detector:(Kard_core.Detector.make ~config:scenario.Race_suite.config ~cell)
            ()
        in
        scenario.Race_suite.build machine;
        let (_ : Machine.report) = Machine.run machine in
        let replayed = Kard_core.Detector.ilu_races (Option.get !cell) in
        Printf.printf "replayed the %d-step schedule: %d race(s) reproduced %s\n"
          (Array.length tape) (List.length replayed)
          (if List.length replayed = List.length found.Runner.kard_ilu_races then "(exact)"
           else "(differs!)"))
  in
  Cmd.v
    (Cmd.info "hunt" ~doc:"Sweep schedules for a race, then replay the found interleaving")
    Term.(const action $ name_arg $ tries_arg $ jobs_arg)

(* record / replay: the nondeterminism-log layer (DESIGN.md §13).
   With --json both commands print only the run's result JSON on
   stdout — status and fidelity lines go to stderr — so CI can diff a
   recorded run against its replay byte-for-byte.  Targets are
   workloads, scenario:NAME, or fuzz:SEED:INDEX (a campaign program,
   reconstructed from the pair). *)

let fuzz_build (r : Campaign.reconstructed) machine =
  let (_ : Kard_fuzz.Prog.run_ctx) =
    Kard_fuzz.Prog.spawn_all r.Campaign.rp_prog ~machine ~on_event:(fun _ -> ())
  in
  ()

let print_or_json ~json result =
  if json then
    print_endline (Kard_harness.Json_report.pretty (Kard_harness.Json_report.of_result result))
  else print_result result

let sanitize_target name =
  String.map (function ':' | '/' -> '-' | c -> c) name

let record_cmd =
  let target_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"TARGET"
             ~doc:
               "What to record: a workload name, $(b,scenario:)NAME, or \
                $(b,fuzz:)SEED$(b,:)INDEX (program INDEX of fuzz campaign SEED, reconstructed \
                from the pair — no program file needed).")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "out"; "output" ] ~docv:"FILE"
             ~doc:"Replay-log output path (default: $(docv) derived from the target name).")
  in
  let action target detector vkeys sampling threads scale seed out json =
    let fail msg =
      Printf.eprintf "record: %s\n" msg;
      exit 2
    in
    let out = Option.value ~default:(sanitize_target target ^ ".rlog") out in
    let result, log =
      match Campaign.of_target target with
      | Some (cseed, i) ->
        (* A campaign program records under its campaign entry's
           detector configuration and machine seed by default;
           --sampling/--vkeys (e.g. record cheap, replay full) and
           --seed still apply on top. *)
        let r = Campaign.reconstruct ~seed:cseed i in
        let detector =
          with_sampling sampling (with_vkeys vkeys (Runner.Kard r.Campaign.rp_config))
        in
        let seed =
          if seed = Defaults.seed then r.Campaign.rp_machine_seed else seed
        in
        Record.record_build ~threads:(r.Campaign.rp_prog.Kard_fuzz.Prog.workers + 1)
          ~scale:1.0 ~seed ~detector ~target (fuzz_build r)
          (Printf.sprintf "fuzz-%d-%d" cseed i)
      | None -> (
        match Record.find_subject target with
        | Error msg -> fail msg
        | Ok subject ->
          let detector = with_sampling sampling (with_vkeys vkeys detector) in
          let override_config =
            match subject with
            | Record.Scenario sc when vkeys <> None || sampling <> None ->
              let c = sc.Race_suite.config in
              let c =
                match vkeys with Some n -> { c with Kard_core.Config.vkeys = n } | None -> c
              in
              let c =
                match sampling with
                | Some r -> { c with Kard_core.Config.sampling = r }
                | None -> c
              in
              Some c
            | Record.Scenario _ | Record.Spec _ -> None
          in
          Record.record ?threads ~scale ~seed ?override_config ~detector subject)
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
    Term.(const action $ target_arg $ detector_arg $ vkeys_arg $ sampling_arg $ threads_arg
          $ scale_arg $ seed_arg $ out_arg $ json_arg)

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
                fidelity checking drops to schedule-only strength).")
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
    (* An explicit -d/--vkeys/--sampling builds an override detector;
       otherwise the header's own detector replays in strict mode. *)
    let detector =
      match (detector, vkeys, sampling) with
      | None, None, None -> None
      | _ ->
        let base =
          match detector with
          | Some d -> d
          | None -> (match Record.detector_of_header h with Ok d -> d | Error msg -> fail msg)
        in
        Some (with_sampling sampling (with_vkeys vkeys base))
    in
    let outcome =
      match Campaign.of_target h.Log.target with
      | Some (cseed, i) ->
        let r = Campaign.reconstruct ~seed:cseed i in
        Record.replay_build ?detector log (fuzz_build r)
          (Printf.sprintf "fuzz-%d-%d" cseed i)
      | None -> Record.replay ?detector log
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

(* bench: the tracked simulator-throughput benchmark (BENCH_pr4.json). *)

let bench_cmd =
  let only_conv =
    let parse = function
      | "throughput" -> Ok `Throughput
      | "keys" -> Ok `Keys
      | "sampling" -> Ok `Sampling
      | "record" -> Ok `Record
      | s ->
        Error
          (`Msg (Printf.sprintf "unknown benchmark %S (throughput, keys, sampling or record)" s))
    in
    let print fmt o =
      Format.pp_print_string fmt
        (match o with
        | `Throughput -> "throughput"
        | `Keys -> "keys"
        | `Sampling -> "sampling"
        | `Record -> "record")
    in
    Arg.conv (parse, print)
  in
  (* The tracked filenames render from Defaults so the help text can
     never go stale against where `kard bench` actually writes. *)
  let only_arg =
    Arg.(value & opt only_conv `Throughput
         & info [ "only" ] ~docv:"BENCH"
             ~doc:
               (Printf.sprintf
                  "Which tracked benchmark to run: $(b,throughput) (simulator ops/sec, %s), \
                   $(b,keys) (the key-pressure precision sweep, %s), $(b,sampling) (detection \
                   probability/latency vs rate plus the sampled-kard serve sweep, %s) or \
                   $(b,record) (record/replay overhead and log bytes per step, %s)."
                  Defaults.throughput_out Defaults.keys_out Defaults.sampling_out
                  Defaults.record_out))
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "out"; "output" ] ~docv:"FILE"
             ~doc:"JSON output path (default: the benchmark's tracked file).")
  in
  let threads_arg =
    Arg.(value & opt (list int) [ 1; 2; 4; 8; 16; 32; 64 ]
         & info [ "threads" ] ~docv:"N,N,..." ~doc:"Thread counts to sweep (throughput only).")
  in
  let scale_opt_arg =
    Arg.(value & opt (some float) None
         & info [ "scale" ] ~docv:"F"
             ~doc:
               "Workload scale factor (0,1] (default: the global default for throughput, 1.0 \
                for keys — the precision claim is about object count).")
  in
  let action only scale seed threads_list vkeys jobs out =
    match only with
    | `Throughput ->
      let scale = Option.value ~default:Defaults.scale scale in
      let out = Option.value ~default:Defaults.throughput_out out in
      let rows = Experiments.throughput ~threads_list ~scale ~seed () in
      Experiments.print_throughput rows;
      let json =
        Kard_harness.Json_report.of_throughput ~build:"dev" ~workload:"memcached" ~scale ~seed
          rows
      in
      let oc = open_out out in
      output_string oc (Kard_harness.Json_report.pretty json);
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n" out
    | `Keys ->
      let scale = Option.value ~default:1.0 scale in
      let out = Option.value ~default:Defaults.keys_out out in
      let b = Experiments.keys ?jobs ?pool:vkeys ~scale ~seed () in
      Experiments.print_keys_bench b;
      let json = Kard_harness.Json_report.of_keys_bench ~build:"dev" b in
      let oc = open_out out in
      output_string oc (Kard_harness.Json_report.pretty json);
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n" out
    | `Sampling ->
      let out = Option.value ~default:Defaults.sampling_out out in
      let b = Experiments.sampling ?jobs ?scale () in
      Experiments.print_sampling b;
      let json =
        Kard_harness.Json_report.of_sampling_bench ~build:"dev"
          ~threads:Defaults.table_threads ~scale:Defaults.serve_scale ~seed:Defaults.seed b
      in
      let oc = open_out out in
      output_string oc (Kard_harness.Json_report.pretty json);
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n" out
    | `Record ->
      let out = Option.value ~default:Defaults.record_out out in
      let b = Experiments.record_bench ?scale ~seed () in
      Experiments.print_record b;
      let json = Kard_harness.Json_report.of_record_bench ~build:"dev" b in
      let oc = open_out out in
      output_string oc (Kard_harness.Json_report.pretty json);
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n" out
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run a tracked benchmark: simulator throughput (default), the key-pressure precision \
          sweep (--only keys), the sampling sweep (--only sampling) or record/replay overhead \
          (--only record)")
    Term.(const action $ only_arg $ scale_opt_arg $ seed_arg $ threads_arg $ vkeys_arg $ jobs_arg
          $ out_arg)

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
    Arg.(value & opt (list float) Experiments.default_serve_rates
         & info [ "rates" ] ~docv:"R,R,..."
             ~doc:"Offered loads to sweep, in requests per million simulated cycles.")
  in
  let slo_arg =
    Arg.(value & opt int Defaults.serve_slo
         & info [ "slo" ] ~docv:"CYCLES" ~doc:"Latency SLO: p99 budget in simulated cycles.")
  in
  let serve_scale_arg =
    Arg.(value & opt float Defaults.serve_scale
         & info [ "scale" ] ~docv:"F" ~doc:"Workload scale factor (0,1].")
  in
  let out_arg =
    Arg.(value & opt string Defaults.serve_out
         & info [ "o"; "out"; "output" ] ~docv:"FILE" ~doc:"JSON output path.")
  in
  let threads_opt_arg =
    Arg.(value & opt int Defaults.table_threads
         & info [ "t"; "threads" ] ~docv:"N" ~doc:"Worker thread count of the simulated server.")
  in
  let action server model rates slo threads scale seed jobs sampling out =
    (* --sampling swaps the default kard contestant for a sampled one
       (same "kard" label, so goodput keys stay comparable). *)
    let detectors =
      match sampling with
      | None -> Experiments.serve_detectors
      | Some _ ->
        List.map (fun (name, d) -> (name, with_sampling sampling d)) Experiments.serve_detectors
    in
    let sweep =
      Experiments.serve ?jobs ~server ~model ~detectors ~rates ~threads ~scale ~seed ~slo ()
    in
    Experiments.print_serve sweep;
    let json = Kard_harness.Json_report.of_serve_sweep ~threads ~scale ~seed sweep in
    let oc = open_out out in
    output_string oc (Kard_harness.Json_report.pretty json);
    output_char oc '\n';
    close_out oc;
    Printf.printf "wrote %s\n" out
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
    Arg.(value & opt int 1000
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

(* repro *)

let repro_one ?jobs ~scale = function
  | "table1" | "figure1" | "table4" | "figure4" | "scenarios" ->
    Experiments.print_scenarios (Experiments.scenarios ?jobs ())
  | "table3" -> Experiments.print_table3 (Experiments.table3 ?jobs ~scale ())
  | "table5" ->
    print_endline "full key budget (13 data keys):";
    Experiments.print_table5 (Experiments.table5 ?jobs ~scale ());
    print_endline "\npressure-scaled key budget (4 data keys; see EXPERIMENTS.md):";
    Experiments.print_table5 (Experiments.table5 ?jobs ~data_keys:4 ~scale ())
  | "table6" -> Experiments.print_table6 (Experiments.table6 ?jobs ~scale ())
  | "figure2" -> Experiments.print_figure2 (Experiments.figure2 ())
  | "figure5" -> Experiments.print_figure5 (Experiments.figure5 ?jobs ~scale ())
  | "nginx-sweep" -> Experiments.print_nginx_sweep (Experiments.nginx_sweep ?jobs ~scale ())
  | "memory" -> Experiments.print_memory (Experiments.memory ?jobs ~scale ())
  | "ablation" -> Experiments.print_ablation (Experiments.ablation ?jobs ~scale ())
  | "micro" -> Experiments.print_micro ()
  | exp -> Printf.eprintf "unknown experiment %S\n" exp

let repro_cmd =
  let exp_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"EXPERIMENT"
             ~doc:
               "One of: table1, table3, table4, table5, table6, figure2, figure5, nginx-sweep, \
                memory, ablation, micro, all.")
  in
  let action exp scale jobs =
    let experiments =
      if exp = "all" then
        [ "micro"; "figure2"; "scenarios"; "table3"; "table5"; "table6"; "figure5"; "nginx-sweep";
          "memory"; "ablation" ]
      else [ exp ]
    in
    List.iter
      (fun e ->
        Printf.printf "== %s ==\n" e;
        repro_one ?jobs ~scale e;
        print_newline ())
      experiments
  in
  Cmd.v (Cmd.info "repro" ~doc:"Regenerate a table or figure from the paper")
    Term.(const action $ exp_arg $ scale_arg $ jobs_arg)

let () =
  let info = Cmd.info "kard" ~doc:"Kard: MPK-based data race detection (ASPLOS'21), simulated" in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; scenario_cmd; trace_cmd; hunt_cmd; record_cmd; replay_cmd;
            bench_cmd; serve_sweep_cmd; repro_cmd; fuzz_cmd ]))
