(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (section 7) and runs Bechamel micro-benchmarks
   of the library's hot paths.

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- --only table3
     dune exec bench/main.exe -- --scale 0.05 # closer to full size
     dune exec bench/main.exe -- --jobs 4     # Domain-parallel tables
     dune exec bench/main.exe -- --list

   Experiment ids: micro, bechamel, figure2, table1 (= table4 =
   scenarios), table3, table5, table6, figure5, nginx-sweep, memory,
   throughput, parallel, serve, keys, sampling, record, obs,
   nolock, explore, ablation.

   [throughput] additionally writes its rows as JSON to --bench-out
   (default BENCH_pr4.json): the tracked simulator ops/sec benchmark
   behind the scheduler/TLB fast paths and the allocation-free
   compiled loop.  The checked-in file is produced with

     dune exec --profile release bench/main.exe -- \
       --only throughput --scale 0.05 --build-label release

   (release is ~20% faster than dev with bit-identical simulation
   results; --build-label records which profile the rows came from).
   [parallel] writes
   --parallel-out (default BENCH_pr3.json): serial vs Domain-parallel
   wall-clock of the Table 3 job list, with an end-to-end identity
   check of the two result lists.  [serve] writes --serve-out
   (default BENCH_pr6.json): the open-loop serving sweep — latency
   percentiles per (detector, offered rate) and goodput under the
   p99 SLO; its rows are simulation outputs, byte-identical at any
   --jobs value.  [keys] writes --keys-out (default BENCH_pr8.json):
   the key-pressure precision sweep — planted vs detected wrong-lock
   races per
   (object-count point, detector config), physical-key ablation
   4/8/13 each with and without the virtual-key pool; rows are
   simulation outputs, byte-identical at any --jobs value.
   [sampling] writes --sampling-out (default BENCH_pr9.json): the
   sampling sweep — detection probability and detection-latency
   distribution (CS entries until the first race record) per
   (subject, rate), the subset check against the same-seed rate-1.0
   runs, plus the serve sweep rerun with sampled-kard detectors; rows
   are simulation outputs, byte-identical at any --jobs value.
   [record] writes --record-out (default BENCH_pr10.json):
   record/replay overhead — host-time cost of the nondeterminism
   recorder, the simulated-cycle overhead (contract: exactly 0), log
   bytes per step against the DESIGN.md section 13 budget, and a
   strict-replay identity check per subject; its cells are wall-clock
   timed, so like [throughput] it stays serial.

   Table experiments run on the Domain pool; --jobs (or $KARD_JOBS)
   sets the worker count, defaulting to the host core count.
   [throughput] stays serial regardless — its cells are wall-clock
   timed and must not compete for host cores. *)

module Experiments = Kard_harness.Experiments
module Runner = Kard_harness.Runner
module Registry = Kard_workloads.Registry
module Config = Kard_core.Config
module Defaults = Kard_harness.Defaults

let scale = ref 0.01
let only = ref []
let bench_out = ref Kard_harness.Defaults.throughput_out
let parallel_out = ref Kard_harness.Defaults.parallel_out
let serve_out = ref Kard_harness.Defaults.serve_out
let keys_out = ref Kard_harness.Defaults.keys_out
let sampling_out = ref Kard_harness.Defaults.sampling_out
let record_out = ref Kard_harness.Defaults.record_out
let build_label = ref "dev"

(* [None] lets Pool fall back to $KARD_JOBS / the host core count. *)
let jobs : int option ref = ref None

(* {1 Bechamel micro-benchmarks: the simulator's real hot paths} *)

let bench_mpk_check () =
  let hw = Kard_mpk.Mpk_hw.create () in
  Kard_mpk.Mpk_hw.register_thread hw 0;
  let (_ : int) = Kard_mpk.Mpk_hw.pkey_mprotect hw ~base:0x10000 ~len:4096 (Kard_mpk.Pkey.of_int 3) in
  Bechamel.Test.make ~name:"mpk_hw.check_access"
    (Bechamel.Staged.stage (fun () ->
         ignore
           (Kard_mpk.Mpk_hw.check_access hw ~tid:0 ~addr:0x10010 ~access:`Read ~ip:0 ~time:0
             : (int, Kard_mpk.Fault.t) result)))

let bench_pkru_update () =
  Bechamel.Test.make ~name:"pkru.set"
    (Bechamel.Staged.stage (fun () ->
         ignore
           (Kard_mpk.Pkru.set Kard_mpk.Pkru.deny_all (Kard_mpk.Pkey.of_int 5)
              Kard_mpk.Perm.Read_write
             : Kard_mpk.Pkru.t)))

let bench_algorithm_step () =
  let t = Kard_core.Algorithm.create () in
  let i = ref 0 in
  Bechamel.Test.make ~name:"algorithm.step (enter/write/exit)"
    (Bechamel.Staged.stage (fun () ->
         incr i;
         let thread = !i land 1 in
         ignore (Kard_core.Algorithm.step t (Kard_core.Algorithm.Enter { thread; section = 1 }));
         ignore (Kard_core.Algorithm.step t (Kard_core.Algorithm.Write { thread; obj = 1 }));
         ignore (Kard_core.Algorithm.step t (Kard_core.Algorithm.Exit { thread }))))

let bench_tlb () =
  let tlb = Kard_mpk.Tlb.create () in
  let i = ref 0 in
  Bechamel.Test.make ~name:"tlb.access"
    (Bechamel.Staged.stage (fun () ->
         incr i;
         ignore (Kard_mpk.Tlb.access tlb (!i land 127) : [ `Hit | `Miss ])))

let bench_unique_alloc () =
  let phys = Kard_vm.Phys_mem.create () in
  let aspace = Kard_vm.Address_space.create phys in
  let meta = Kard_alloc.Meta_table.create () in
  let upa =
    Kard_alloc.Unique_page_alloc.create aspace ~meta ~cost:Kard_mpk.Cost_model.default ()
  in
  let iface = Kard_alloc.Unique_page_alloc.iface upa in
  Bechamel.Test.make ~name:"unique_page_alloc.alloc(32B)"
    (Bechamel.Staged.stage (fun () ->
         ignore (iface.Kard_alloc.Alloc_iface.alloc ~site:0 32 : Kard_alloc.Obj_meta.t * int)))

let run_bechamel () =
  let open Bechamel in
  let tests =
    Test.make_grouped ~name:"kard"
      [ bench_mpk_check (); bench_pkru_update (); bench_algorithm_step (); bench_tlb ();
        bench_unique_alloc () ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 100) () in
  let raw = Benchmark.all cfg instances tests in
  let results =
    Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      (Toolkit.Instance.monotonic_clock) raw
  in
  Printf.printf "host-time cost of the library's hot paths (ns/op):\n";
  Hashtbl.iter
    (fun name result ->
      match Bechamel.Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "  %-36s %8.1f\n" name est
      | _ -> ())
    results;
  print_newline ()

(* {1 Observability: latency distributions behind the Table 3 means} *)

let obs () =
  Printf.printf
    "metrics registries of traced Kard runs — the distributions (p50/p95/p99)\n\
     behind the mean overheads the tables report:\n\n";
  List.iter
    (fun name ->
      let spec = Registry.find name in
      let tr = Kard_obs.Trace.create () in
      let r = Runner.run ~trace:tr ~scale:!scale ~detector:(Runner.Kard (Defaults.kard_config ())) spec in
      Printf.printf "-- %s (%s cycles, %d faults) --\n" name
        (Kard_harness.Text_table.fmt_int r.Runner.report.Kard_sched.Machine.cycles)
        r.Runner.report.Kard_sched.Machine.faults;
      Kard_harness.Obs_report.print_trace_summary tr;
      print_newline ();
      Kard_harness.Obs_report.print_metrics (Kard_obs.Trace.metrics tr);
      print_newline ())
    [ "memcached"; "aget" ]

(* {1 Lock-free benchmarks: the section 7.2 omission claim} *)

let nolock () =
  Printf.printf
    "benchmarks without locks were omitted from Table 3 because Kard adds no overhead;\n\
     demonstrated here (only the allocator substitution remains):\n";
  let cells =
    List.map
      (fun spec ->
        let base = Runner.run ~scale:!scale ~detector:Runner.Baseline spec in
        let alloc = Runner.run ~scale:!scale ~detector:Runner.Alloc spec in
        let kard = Runner.run ~scale:!scale ~detector:(Runner.Kard (Defaults.kard_config ())) spec in
        [ spec.Kard_workloads.Spec.name;
          Kard_harness.Text_table.fmt_pct (Runner.overhead_pct ~baseline:base alloc);
          Kard_harness.Text_table.fmt_pct (Runner.overhead_pct ~baseline:base kard);
          string_of_int kard.Runner.report.Kard_sched.Machine.faults;
          string_of_int kard.Runner.report.Kard_sched.Machine.cs_entries ])
      Registry.lock_free
  in
  print_string
    (Kard_harness.Text_table.render
       ~header:[ "benchmark"; "alloc%"; "kard%"; "faults"; "cs entries" ]
       cells)

(* {1 Schedule exploration: detection is schedule-sensitive} *)

let explore () =
  Printf.printf "per-run detection probability across 20 scheduler seeds:\n";
  List.iter
    (fun name ->
      let scenario = Kard_workloads.Race_suite.find name in
      Kard_harness.Explorer.print_summary ~name
        (Kard_harness.Explorer.explore_scenario ?jobs:!jobs scenario))
    [ "ilu-lock-lock"; "ilu-lock-nolock"; "exclusive-write"; "different-offset-small-cs";
      "small-cs-race" ];
  List.iter
    (fun name ->
      Kard_harness.Explorer.print_summary ~name
        (Kard_harness.Explorer.explore_spec ?jobs:!jobs (Registry.find name)))
    [ "aget"; "nginx" ];
  (* Section 5.5's mitigation: delay injection raises the detection
     rate of rarely-overlapping sections. *)
  let scenario = Kard_workloads.Race_suite.small_cs_race in
  List.iter
    (fun (label, delay) ->
      let config = { Config.default with Config.exit_delay_cycles = delay } in
      Kard_harness.Explorer.print_summary
        ~name:(Printf.sprintf "small-cs-race %s" label)
        (Kard_harness.Explorer.explore_scenario ?jobs:!jobs ~config scenario))
    [ ("(no delay)", 0); ("(delay 50k)", 50_000); ("(delay 200k)", 200_000) ]

(* {1 Tracked throughput benchmark (BENCH_pr4.json)} *)

(* The reference measurement for the compiled-loop PR: the same
   harness (GC counters included) on the same host, at the last
   commit before the compiled interpreter and array-indexed detector
   state landed.  Embedded as constants so regenerating the file
   keeps the before/after comparison self-contained; the rows were
   taken on the dev profile (the release numbers in the main section
   are ~20% faster for build reasons alone — compare
   minor_words_per_step and steps/sim_cycles across sections, and
   wall-clock only within one). *)
let pre_pr_commit = "5c85b9a"
let pre_pr_build = "dev"

let pre_pr_rows =
  Experiments.
    [ { tp_threads = 1; tp_detector = "baseline"; tp_steps = 113595; tp_sim_cycles = 289376447;
        tp_host_seconds = 0.0235062; tp_ops_per_sec = 4832560.0; tp_minor_words = 5174950.0;
        tp_promoted_words = 6223.0; tp_minor_words_per_step = 45.5561 };
      { tp_threads = 1; tp_detector = "kard"; tp_steps = 113595; tp_sim_cycles = 373179631;
        tp_host_seconds = 0.036963; tp_ops_per_sec = 3073210.0; tp_minor_words = 7566910.0;
        tp_promoted_words = 23274.0; tp_minor_words_per_step = 66.613 };
      { tp_threads = 2; tp_detector = "baseline"; tp_steps = 113064; tp_sim_cycles = 289376136;
        tp_host_seconds = 0.0267441; tp_ops_per_sec = 4227620.0; tp_minor_words = 5089600.0;
        tp_promoted_words = 8827.0; tp_minor_words_per_step = 45.0152 };
      { tp_threads = 2; tp_detector = "kard"; tp_steps = 113064; tp_sim_cycles = 345380331;
        tp_host_seconds = 0.0380261; tp_ops_per_sec = 2973330.0; tp_minor_words = 7566240.0;
        tp_promoted_words = 29316.0; tp_minor_words_per_step = 66.92 };
      { tp_threads = 4; tp_detector = "baseline"; tp_steps = 112840; tp_sim_cycles = 289376434;
        tp_host_seconds = 0.025737; tp_ops_per_sec = 4384340.0; tp_minor_words = 5110440.0;
        tp_promoted_words = 13065.0; tp_minor_words_per_step = 45.2892 };
      { tp_threads = 4; tp_detector = "kard"; tp_steps = 112840; tp_sim_cycles = 331027744;
        tp_host_seconds = 0.0404019; tp_ops_per_sec = 2792940.0; tp_minor_words = 7410110.0;
        tp_promoted_words = 35468.0; tp_minor_words_per_step = 65.6692 };
      { tp_threads = 8; tp_detector = "baseline"; tp_steps = 112822; tp_sim_cycles = 289377453;
        tp_host_seconds = 0.0278182; tp_ops_per_sec = 4055690.0; tp_minor_words = 5089250.0;
        tp_promoted_words = 21785.0; tp_minor_words_per_step = 45.1087 };
      { tp_threads = 8; tp_detector = "kard"; tp_steps = 112822; tp_sim_cycles = 324521712;
        tp_host_seconds = 0.0426519; tp_ops_per_sec = 2645180.0; tp_minor_words = 7172760.0;
        tp_promoted_words = 47805.0; tp_minor_words_per_step = 63.5759 };
      { tp_threads = 16; tp_detector = "baseline"; tp_steps = 112935; tp_sim_cycles = 310683857;
        tp_host_seconds = 0.0313699; tp_ops_per_sec = 3600100.0; tp_minor_words = 5289080.0;
        tp_promoted_words = 41844.0; tp_minor_words_per_step = 46.833 };
      { tp_threads = 16; tp_detector = "kard"; tp_steps = 112935; tp_sim_cycles = 347724375;
        tp_host_seconds = 0.0475202; tp_ops_per_sec = 2376570.0; tp_minor_words = 7341980.0;
        tp_promoted_words = 79160.0; tp_minor_words_per_step = 65.0107 };
      { tp_threads = 32; tp_detector = "baseline"; tp_steps = 113567; tp_sim_cycles = 396181631;
        tp_host_seconds = 0.0349629; tp_ops_per_sec = 3248220.0; tp_minor_words = 5119030.0;
        tp_promoted_words = 96828.0; tp_minor_words_per_step = 45.075 };
      { tp_threads = 32; tp_detector = "kard"; tp_steps = 113567; tp_sim_cycles = 470199551;
        tp_host_seconds = 0.053087; tp_ops_per_sec = 2139260.0; tp_minor_words = 7343570.0;
        tp_promoted_words = 160051.0; tp_minor_words_per_step = 64.6629 };
      { tp_threads = 64; tp_detector = "baseline"; tp_steps = 114584; tp_sim_cycles = 588743173;
        tp_host_seconds = 0.0404811; tp_ops_per_sec = 2830560.0; tp_minor_words = 5250340.0;
        tp_promoted_words = 200132.0; tp_minor_words_per_step = 45.8209 };
      { tp_threads = 64; tp_detector = "kard"; tp_steps = 114584; tp_sim_cycles = 753003442;
        tp_host_seconds = 0.0626559; tp_ops_per_sec = 1828780.0; tp_minor_words = 7516430.0;
        tp_promoted_words = 296597.0; tp_minor_words_per_step = 65.5975 } ]

let throughput () =
  let rows = Experiments.throughput ~scale:!scale () in
  Experiments.print_throughput rows;
  let json =
    Kard_harness.Json_report.of_throughput
      ~pre:(pre_pr_commit, pre_pr_build, pre_pr_rows)
      ~build:!build_label ~workload:"memcached" ~scale:!scale ~seed:42 rows
  in
  let oc = open_out !bench_out in
  output_string oc (Kard_harness.Json_report.pretty json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" !bench_out

(* {1 Tracked parallel-executor benchmark (BENCH_pr3.json)} *)

let parallel () =
  let b = Experiments.parallel_bench ?jobs:!jobs ~scale:!scale () in
  Experiments.print_parallel_bench b;
  let json = Kard_harness.Json_report.of_parallel_bench ~scale:!scale b in
  let oc = open_out !parallel_out in
  output_string oc (Kard_harness.Json_report.pretty json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" !parallel_out

(* {1 Tracked serve sweep (BENCH_pr6.json)} *)

let serve () =
  (* The serve sweep has its own default scale: percentile tails need
     more requests per point than the table experiments need entries,
     and the sweep is cheap.  --scale only overrides it when the user
     moved it off the global default. *)
  let scale =
    if !scale = 0.01 then Kard_harness.Defaults.serve_scale else !scale
  in
  let threads = Kard_harness.Defaults.table_threads in
  let seed = Kard_harness.Defaults.seed in
  let sweep = Experiments.serve ?jobs:!jobs ~threads ~scale ~seed () in
  Experiments.print_serve sweep;
  let json = Kard_harness.Json_report.of_serve_sweep ~threads ~scale ~seed sweep in
  let oc = open_out !serve_out in
  output_string oc (Kard_harness.Json_report.pretty json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" !serve_out

(* {1 Tracked key-pressure precision sweep (BENCH_pr8.json)} *)

let keys () =
  (* The precision claim is about object {e count}, so the sweep runs
     at full scale by default — 10k and 100k objects per point, far
     past the 13 physical keys.  --scale only overrides it when the
     user moved it off the global default. *)
  let scale = if !scale = 0.01 then 1.0 else !scale in
  let seed = Kard_harness.Defaults.seed in
  let b = Experiments.keys ?jobs:!jobs ~scale ~seed () in
  Experiments.print_keys_bench b;
  let json = Kard_harness.Json_report.of_keys_bench ~build:!build_label b in
  let oc = open_out !keys_out in
  output_string oc (Kard_harness.Json_report.pretty json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" !keys_out

(* {1 Tracked sampling sweep (BENCH_pr9.json)} *)

let sampling () =
  (* Race scenarios run at full scale regardless; --scale only moves
     the key-pressure subject off its 0.1 default. *)
  let scale = if !scale = 0.01 then None else Some !scale in
  let b = Experiments.sampling ?jobs:!jobs ?scale () in
  Experiments.print_sampling b;
  let json =
    Kard_harness.Json_report.of_sampling_bench ~build:!build_label
      ~threads:Kard_harness.Defaults.table_threads ~scale:Kard_harness.Defaults.serve_scale
      ~seed:Kard_harness.Defaults.seed b
  in
  let oc = open_out !sampling_out in
  output_string oc (Kard_harness.Json_report.pretty json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" !sampling_out

(* {1 Tracked record/replay overhead benchmark (BENCH_pr10.json)} *)

let record () =
  (* Wall-clock timed cells: serial like [throughput], and the default
     subjects already mix spec, key-pressure and scenario targets. *)
  let b = Experiments.record_bench ~scale:!scale () in
  Experiments.print_record b;
  let json = Kard_harness.Json_report.of_record_bench ~build:!build_label b in
  let oc = open_out !record_out in
  output_string oc (Kard_harness.Json_report.pretty json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" !record_out

(* {1 Driver} *)

let experiments =
  [ ("micro", fun () -> Experiments.print_micro ());
    ("bechamel", run_bechamel);
    ("figure2", fun () -> Experiments.print_figure2 (Experiments.figure2 ()));
    ("table1", fun () -> Experiments.print_scenarios (Experiments.scenarios ?jobs:!jobs ()));
    ( "table3",
      fun () -> Experiments.print_table3 (Experiments.table3 ?jobs:!jobs ~scale:!scale ()) );
    ( "table5",
      fun () ->
        print_endline "full key budget (13 data keys):";
        Experiments.print_table5 (Experiments.table5 ?jobs:!jobs ~scale:!scale ());
        print_endline "\npressure-scaled key budget (4 data keys; see EXPERIMENTS.md):";
        Experiments.print_table5 (Experiments.table5 ?jobs:!jobs ~data_keys:4 ~scale:!scale ()) );
    ( "table6",
      fun () -> Experiments.print_table6 (Experiments.table6 ?jobs:!jobs ~scale:!scale ()) );
    ( "figure5",
      fun () -> Experiments.print_figure5 (Experiments.figure5 ?jobs:!jobs ~scale:!scale ()) );
    ( "nginx-sweep",
      fun () ->
        Experiments.print_nginx_sweep (Experiments.nginx_sweep ?jobs:!jobs ~scale:!scale ()) );
    ("memory", fun () -> Experiments.print_memory (Experiments.memory ?jobs:!jobs ~scale:!scale ()));
    ("throughput", throughput);
    ("parallel", parallel);
    ("serve", serve);
    ("keys", keys);
    ("sampling", sampling);
    ("record", record);
    ("obs", obs);
    ("nolock", nolock);
    ("explore", explore);
    ( "ablation",
      fun () -> Experiments.print_ablation (Experiments.ablation ?jobs:!jobs ~scale:!scale ()) ) ]

let () =
  let rec parse = function
    | [] -> ()
    | "--only" :: name :: rest ->
      (* Fail fast on a typo: a name outside the registry would
         otherwise silently drop out of a multi-name selection. *)
      if not (List.mem_assoc name experiments) then begin
        Printf.eprintf "unknown experiment %S; known experiments:\n" name;
        List.iter (fun (n, _) -> Printf.eprintf "  %s\n" n) experiments;
        exit 2
      end;
      only := name :: !only;
      parse rest
    | "--scale" :: s :: rest ->
      scale := float_of_string s;
      parse rest
    | "--bench-out" :: path :: rest ->
      bench_out := path;
      parse rest
    | "--parallel-out" :: path :: rest ->
      parallel_out := path;
      parse rest
    | "--serve-out" :: path :: rest ->
      serve_out := path;
      parse rest
    | "--keys-out" :: path :: rest ->
      keys_out := path;
      parse rest
    | "--sampling-out" :: path :: rest ->
      sampling_out := path;
      parse rest
    | "--record-out" :: path :: rest ->
      record_out := path;
      parse rest
    | "--build-label" :: label :: rest ->
      build_label := label;
      parse rest
    | "--jobs" :: n :: rest ->
      jobs := Some (int_of_string n);
      parse rest
    | "--list" :: _ ->
      List.iter (fun (name, _) -> print_endline name) experiments;
      exit 0
    | arg :: _ ->
      Printf.eprintf "unknown argument %S\n" arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let selected =
    if !only = [] then experiments
    else List.filter (fun (name, _) -> List.mem name !only) experiments
  in
  if selected = [] then begin
    Printf.eprintf "no experiment matched; try --list\n";
    exit 2
  end;
  List.iter
    (fun (name, run) ->
      Printf.printf "==== %s ====\n%!" name;
      run ();
      print_newline ())
    selected
