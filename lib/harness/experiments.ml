module Machine = Kard_sched.Machine
module Spec = Kard_workloads.Spec
module Race_suite = Kard_workloads.Race_suite
module Registry = Kard_workloads.Registry

(* Each experiment is a {!Pool.plan} composed from its runs: a row
   names the jobs it reads with [let+ ... and+ ...], and a table is
   the [Pool.all] of its rows, so no builder sees a result list.
   [Pool.execute ~jobs:1] and [~jobs:N] produce identical tables (see
   DESIGN.md §7). *)

let ( let+ ), ( and+ ) = Pool.(( let+ ), ( and+ ))

(* {1 Table 3} *)

type t3_row = {
  spec : Spec.t;
  base : Runner.result;
  alloc : Runner.result;
  kard : Runner.result;
  tsan : Runner.result;
}

let table3_plan ?(threads = Defaults.table_threads) ?(scale = Defaults.scale)
    ?(specs = Registry.all) () =
  let detector = Runner.Kard (Defaults.kard_config ()) in
  Pool.all
    (List.map
       (fun spec ->
         let run d = Pool.job (Job.make ~threads ~scale d (Runner.Spec spec)) in
         let+ base = run Runner.Baseline
         and+ alloc = run Runner.Alloc
         and+ kard = run detector
         and+ tsan = run Runner.Tsan in
         { spec; base; alloc; kard; tsan })
       specs)

let t3_kard_pct row = Runner.overhead_pct ~baseline:row.base row.kard
let t3_alloc_pct row = Runner.overhead_pct ~baseline:row.base row.alloc
let t3_tsan_pct row = Runner.overhead_pct ~baseline:row.base row.tsan
let t3_rss_pct row = Runner.rss_overhead_pct ~baseline:row.base row.kard

let print_geomean label rows pct_of paper_of =
  if rows <> [] then
    Printf.printf "%s geomean: Kard %s (paper %s)\n" label
      (Text_table.fmt_pct (Stats.geomean_overhead_pct (List.map pct_of rows)))
      (Text_table.fmt_pct (Stats.geomean_overhead_pct (List.map paper_of rows)))

let print_table3 rows =
  let header =
    [ "benchmark"; "heap"; "glob"; "RO"; "RW"; "CS"; "act"; "entries"; "base(Mc)"; "alloc%";
      "(paper)"; "kard%"; "(paper)"; "tsan"; "(paper)"; "rss%"; "(paper)"; "dTLBk"; "faults" ]
  in
  let cells row =
    let p = row.spec.Spec.paper in
    let r = row.base.Runner.report in
    let allocs = r.Machine.alloc_stats.Kard_alloc.Alloc_iface.allocations in
    [ row.spec.Spec.name;
      Text_table.fmt_int allocs;
      Text_table.fmt_int r.Machine.alloc_stats.Kard_alloc.Alloc_iface.global_allocations;
      Text_table.fmt_int row.kard.Runner.kard_unique_ro;
      Text_table.fmt_int row.kard.Runner.kard_unique_rw;
      Text_table.fmt_int row.base.Runner.report.Machine.unique_sections;
      Text_table.fmt_int row.kard.Runner.report.Machine.max_concurrent_sections;
      Text_table.fmt_int r.Machine.cs_entries;
      Text_table.fmt_int (r.Machine.cycles / 1_000_000);
      Text_table.fmt_pct (t3_alloc_pct row);
      Text_table.fmt_pct p.Spec.p_alloc_pct;
      Text_table.fmt_pct (t3_kard_pct row);
      Text_table.fmt_pct p.Spec.p_kard_pct;
      Text_table.fmt_times (1. +. (t3_tsan_pct row /. 100.));
      Text_table.fmt_times (1. +. (p.Spec.p_tsan_pct /. 100.));
      Text_table.fmt_pct (t3_rss_pct row);
      Text_table.fmt_pct p.Spec.p_rss_kard_pct;
      Text_table.fmt_rate (Runner.dtlb_rate row.kard);
      Text_table.fmt_int row.kard.Runner.report.Machine.faults ]
  in
  print_string (Text_table.render ~header (List.map cells rows));
  let benches, apps =
    List.partition (fun row -> row.spec.Spec.category <> Spec.Real_world) rows
  in
  print_geomean "PARSEC+SPLASH-2x" benches t3_kard_pct (fun r -> r.spec.Spec.paper.Spec.p_kard_pct);
  print_geomean "real-world" apps t3_kard_pct (fun r -> r.spec.Spec.paper.Spec.p_kard_pct)

(* {1 Race scenarios (Tables 1 and 4, Figures 1 and 4)} *)

type scenario_row = {
  scenario : Race_suite.t;
  kard_ilu : int;
  tsan : int;
  lockset : int;
  kard_ok : bool;
  tsan_ok : bool;
  lockset_ok : bool;
}

let scenarios_plan ?(names = List.map (fun s -> s.Race_suite.name) Race_suite.all)
    ?(seed = Defaults.seed) () =
  Pool.all
    (List.map
       (fun name ->
         let scenario = Race_suite.find name in
         let run d = Pool.job (Job.make ~seed d (Runner.Scenario scenario)) in
         let+ kard = run (Runner.Kard scenario.Race_suite.config)
         and+ tsan = run Runner.Tsan
         and+ lockset = run Runner.Lockset in
         let kard_ilu = List.length kard.Runner.kard_ilu_races in
         let tsan_n = List.length tsan.Runner.tsan_races in
         let lockset_n = List.length lockset.Runner.lockset_warnings in
         { scenario;
           kard_ilu;
           tsan = tsan_n;
           lockset = lockset_n;
           kard_ok = Race_suite.check scenario.Race_suite.expect_kard_ilu kard_ilu;
           tsan_ok = Race_suite.check scenario.Race_suite.expect_tsan tsan_n;
           lockset_ok = Race_suite.check scenario.Race_suite.expect_lockset lockset_n })
       names)

let print_scenarios rows =
  let header = [ "scenario"; "kard"; "expect"; "tsan"; "expect"; "lockset"; "expect"; "ok" ] in
  let cells row =
    let fmt_exp e = Format.asprintf "%a" Race_suite.pp_expectation e in
    [ row.scenario.Race_suite.name;
      string_of_int row.kard_ilu;
      fmt_exp row.scenario.Race_suite.expect_kard_ilu;
      string_of_int row.tsan;
      fmt_exp row.scenario.Race_suite.expect_tsan;
      string_of_int row.lockset;
      fmt_exp row.scenario.Race_suite.expect_lockset;
      (if row.kard_ok && row.tsan_ok && row.lockset_ok then "yes" else "NO") ]
  in
  print_string (Text_table.render ~header (List.map cells rows))

(* {1 Table 5} *)

type t5_row = {
  t5_threads : int;
  total_cs : int;
  unique_cs : int;
  max_concurrent : int;
  recycling : int;
  sharing : int;
}

let table5_plan ?(data_keys = Kard_mpk.Pkey.data_key_count) ?(threads_list = [ 4; 8; 16; 32 ])
    ?(scale = Defaults.scale) () =
  let memcached = Runner.Spec (Registry.find "memcached") in
  let config = { Kard_core.Config.default with Kard_core.Config.data_keys } in
  Pool.all
    (List.map
       (fun threads ->
         let+ result = Pool.job (Job.make ~threads ~scale (Runner.Kard config) memcached) in
         let stats = Option.get result.Runner.kard_stats in
         { t5_threads = threads;
           total_cs = result.Runner.report.Machine.cs_entries;
           unique_cs = result.Runner.report.Machine.unique_sections;
           max_concurrent = result.Runner.report.Machine.max_concurrent_sections;
           recycling = stats.Kard_core.Detector.recycling_events;
           sharing = stats.Kard_core.Detector.sharing_events })
       threads_list)

let print_table5 rows =
  let header = [ "memcached"; "t=4"; "t=8"; "t=16"; "t=32" ] in
  let line label f =
    label :: List.map (fun row -> Text_table.fmt_int (f row)) rows
  in
  let table =
    [ line "Total executed CS" (fun r -> r.total_cs);
      line "Uniquely executed CS" (fun r -> r.unique_cs);
      line "Maximum concurrent CS" (fun r -> r.max_concurrent);
      line "Key recycling events" (fun r -> r.recycling);
      line "Key sharing events" (fun r -> r.sharing) ]
  in
  let header =
    match rows with
    | _ when List.length rows = 4 -> header
    | _ -> "memcached" :: List.map (fun r -> Printf.sprintf "t=%d" r.t5_threads) rows
  in
  print_string (Text_table.render ~header table)

(* {1 Table 6} *)

type t6_row = {
  app : string;
  kard_races : int;
  tsan_ilu : int;
  tsan_non_ilu : int;
  paper_kard : int;
  paper_tsan_ilu : int;
  paper_tsan_non_ilu : int;
}

(* The paper counts racy variables, not conflicting thread pairs:
   collapse records to distinct objects (Kard) / granules (TSan). *)
let distinct_by f items =
  let seen = Hashtbl.create 16 in
  List.iter (fun item -> Hashtbl.replace seen (f item) ()) items;
  Hashtbl.length seen

let table6_plan ?(scale = Defaults.scale) () =
  let paper = [ ("aget", 1, 1, 0); ("memcached", 3, 3, 0); ("nginx", 1, 1, 0); ("pigz", 1, 0, 0) ] in
  Pool.all
    (List.map
       (fun (name, pk, pti, ptn) ->
         let app = Runner.Spec (Registry.find name) in
         let+ kard = Pool.job (Job.make ~scale (Runner.Kard (Defaults.kard_config ())) app)
         and+ tsan = Pool.job (Job.make ~scale Runner.Tsan app) in
         let granule (r : Kard_baselines.Tsan.race) = r.Kard_baselines.Tsan.addr lsr 3 in
         let tsan_ilu = distinct_by granule tsan.Runner.tsan_ilu_races in
         { app = name;
           kard_races =
             distinct_by (fun (r : Kard_core.Race_record.t) -> r.Kard_core.Race_record.obj_id)
               kard.Runner.kard_races;
           tsan_ilu;
           tsan_non_ilu = distinct_by granule tsan.Runner.tsan_races - tsan_ilu;
           paper_kard = pk;
           paper_tsan_ilu = pti;
           paper_tsan_non_ilu = ptn })
       paper)

let print_table6 rows =
  let header =
    [ "application"; "kard"; "(paper)"; "tsan ILU"; "(paper)"; "tsan non-ILU"; "(paper)" ]
  in
  let cells row =
    [ row.app;
      string_of_int row.kard_races;
      string_of_int row.paper_kard;
      string_of_int row.tsan_ilu;
      string_of_int row.paper_tsan_ilu;
      string_of_int row.tsan_non_ilu;
      string_of_int row.paper_tsan_non_ilu ]
  in
  print_string (Text_table.render ~header (List.map cells rows))

(* {1 Figure 5} *)

type f5_row = {
  f5_name : string;
  by_threads : (int * float) list;
}

(* A baseline run and a Kard run of one target, in that order. *)
let base_and_kard ?threads ~scale target =
  let run d = Pool.job (Job.make ?threads ~scale d target) in
  let+ base = run Runner.Baseline
  and+ kard = run (Runner.Kard (Defaults.kard_config ())) in
  (base, kard)

let figure5_plan ?(threads_list = [ 8; 16; 32 ]) ?(scale = Defaults.scale)
    ?(specs = Registry.benchmarks) () =
  Pool.all
    (List.map
       (fun spec ->
         let+ by_threads =
           Pool.all
             (List.map
                (fun threads ->
                  let+ base, kard = base_and_kard ~threads ~scale (Runner.Spec spec) in
                  (threads, Runner.overhead_pct ~baseline:base kard))
                threads_list)
         in
         { f5_name = spec.Spec.name; by_threads })
       specs)

let print_figure5 rows =
  match rows with
  | [] -> ()
  | first :: _ ->
    let threads_list = List.map fst first.by_threads in
    let header = "benchmark" :: List.map (fun t -> Printf.sprintf "t=%d" t) threads_list in
    let cells row =
      row.f5_name :: List.map (fun (_, p) -> Text_table.fmt_pct p) row.by_threads
    in
    print_string (Text_table.render ~header (List.map cells rows));
    List.iter
      (fun t ->
        let pcts = List.map (fun row -> List.assoc t row.by_threads) rows in
        Printf.printf "geomean t=%d: %s\n" t
          (Text_table.fmt_pct (Stats.geomean_overhead_pct pcts)))
      threads_list;
    print_newline ();
    print_string
      (Chart.grouped
         ~series:(List.map (fun t -> Printf.sprintf "t=%d" t) threads_list)
         (List.map (fun row -> (row.f5_name, List.map snd row.by_threads)) rows))

(* {1 NGINX sweep} *)

type nginx_row = { file_kb : int; kard_pct : float }

let nginx_sweep_plan ?(sizes = [ 128; 256; 512; 1024 ]) ?(scale = Defaults.scale) () =
  Pool.all
    (List.map
       (fun file_kb ->
         let+ base, kard =
           base_and_kard ~scale (Runner.Spec (Kard_workloads.Apps.nginx_with_file ~file_kb))
         in
         { file_kb; kard_pct = Runner.overhead_pct ~baseline:base kard })
       sizes)

let print_nginx_sweep rows =
  let header = [ "file size"; "kard overhead" ] in
  let cells row = [ Printf.sprintf "%d kB" row.file_kb; Text_table.fmt_pct row.kard_pct ] in
  print_string (Text_table.render ~header (List.map cells rows));
  print_string
    (Chart.bars ~unit_label:"%"
       (List.map (fun row -> (Printf.sprintf "%d kB" row.file_kb, row.kard_pct)) rows));
  print_string "paper: 128 kB -> +58.7%, 1 MB -> +8.8% (average +15.1%)\n"

(* {1 Figure 2} *)

type f2_stats = {
  objects : int;
  object_bytes : int;
  virtual_pages : int;
  physical_pages : int;
  file_bytes : int;
}

let figure2 ?(objects = 128) ?(object_bytes = 32) () =
  let phys = Kard_vm.Phys_mem.create () in
  let aspace = Kard_vm.Address_space.create phys in
  let meta = Kard_alloc.Meta_table.create () in
  let upa =
    Kard_alloc.Unique_page_alloc.create aspace ~meta ~cost:Kard_mpk.Cost_model.default ()
  in
  let iface = Kard_alloc.Unique_page_alloc.iface upa in
  for i = 0 to objects - 1 do
    let (_ : Kard_alloc.Obj_meta.t * int) = iface.Kard_alloc.Alloc_iface.alloc ~site:i object_bytes in
    ()
  done;
  { objects;
    object_bytes;
    virtual_pages = Kard_vm.Address_space.mapped_pages aspace;
    physical_pages = Kard_vm.Phys_mem.resident_frames phys;
    file_bytes = Kard_alloc.Unique_page_alloc.file_bytes upa }

let print_figure2 stats =
  Printf.printf
    "consolidated unique page allocation: %d objects of %d B -> %d virtual pages backed by %d \
     physical pages (in-memory file: %d B)\n"
    stats.objects stats.object_bytes stats.virtual_pages stats.physical_pages stats.file_bytes

(* {1 Memory consumption breakdown (section 7.5)} *)

type mem_row = {
  mem_name : string;
  base_rss : int;
  kard_rss : int;
  kard_data : int;
  kard_page_tables : int;
  kard_metadata : int;
  wasted : int;
}

let memory_plan ?(threads = Defaults.table_threads) ?(scale = Defaults.scale)
    ?(specs = Registry.all) () =
  Pool.all
    (List.map
       (fun spec ->
         let+ base, kard = base_and_kard ~threads ~scale (Runner.Spec spec) in
         let kr = kard.Runner.report in
         let alloc_stats = kr.Machine.alloc_stats in
         { mem_name = spec.Spec.name;
           base_rss = base.Runner.report.Machine.rss_bytes;
           kard_rss = kr.Machine.rss_bytes;
           kard_data = kr.Machine.data_rss_bytes;
           kard_page_tables = kr.Machine.page_table_bytes;
           kard_metadata = kr.Machine.detector_metadata_bytes;
           wasted =
             alloc_stats.Kard_alloc.Alloc_iface.bytes_reserved
             - alloc_stats.Kard_alloc.Alloc_iface.bytes_requested })
       specs)

let print_memory rows =
  let header =
    [ "workload"; "base KiB"; "kard KiB"; "overhead"; "data KiB"; "pt KiB"; "meta KiB";
      "waste KiB" ]
  in
  let cells row =
    [ row.mem_name;
      Text_table.fmt_kb row.base_rss;
      Text_table.fmt_kb row.kard_rss;
      Text_table.fmt_pct (Stats.pct (float_of_int row.kard_rss) (float_of_int row.base_rss));
      Text_table.fmt_kb row.kard_data;
      Text_table.fmt_kb row.kard_page_tables;
      Text_table.fmt_kb row.kard_metadata;
      Text_table.fmt_kb row.wasted ]
  in
  print_string (Text_table.render ~header (List.map cells rows));
  (* An empty row list must degrade to a note, not an
     [Invalid_argument] escaping mid-table (Stats.geomean rejects []). *)
  if rows = [] then print_string "(no rows)\n"
  else
    let pcts =
      List.map
        (fun row -> Stats.pct (float_of_int row.kard_rss) (float_of_int row.base_rss))
        rows
    in
    Printf.printf "RSS overhead geomean: %s (paper: +68.0%% benchmarks, +85.6%% real-world)\n"
      (Text_table.fmt_pct (Stats.geomean_overhead_pct pcts))

(* {1 Ablation: the design choices DESIGN.md calls out} *)

type ablation_row = {
  ab_label : string;
  ab_pct : float;
  ab_records : int;
  ab_recycling : int;
  ab_sharing : int;
}

let ablation_variants =
  let module Config = Kard_core.Config in
  [ ("default (13 keys, all filters)", Config.default);
    ("no proactive acquisition", { Config.default with Config.proactive_acquisition = false });
    ("no protection interleaving", { Config.default with Config.protection_interleaving = false });
    ("no redundancy pruning", { Config.default with Config.redundancy_pruning = false });
    ("no metadata pruning", { Config.default with Config.metadata_pruning = false });
    ("4 data keys", { Config.default with Config.data_keys = 4 });
    ("1 data key", { Config.default with Config.data_keys = 1 });
    ("1 data key + 192 vkeys", { Config.default with Config.data_keys = 1; vkeys = 192 });
    ( "binary mode (sections = locks)",
      { Config.default with Config.section_identity = Config.By_lock } ) ]

let ablation_plan ?(scale = Defaults.scale) () =
  let memcached = Runner.Spec (Registry.find "memcached") in
  let+ base = Pool.job (Job.make ~scale Runner.Baseline memcached)
  and+ variants =
    Pool.all
      (List.map
         (fun (label, config) ->
           let+ r = Pool.job (Job.make ~scale (Runner.Kard config) memcached) in
           (label, r))
         ablation_variants)
  in
  List.map
    (fun (label, r) ->
      let stats = Option.get r.Runner.kard_stats in
      { ab_label = label;
        ab_pct = Runner.overhead_pct ~baseline:base r;
        ab_records = List.length r.Runner.kard_races;
        ab_recycling = stats.Kard_core.Detector.recycling_events;
        ab_sharing = stats.Kard_core.Detector.sharing_events })
    variants

let print_ablation rows =
  print_string
    (Text_table.render
       ~header:[ "memcached, kard variant"; "overhead"; "records"; "recycle"; "share" ]
       (List.map
          (fun row ->
            [ row.ab_label;
              Text_table.fmt_pct row.ab_pct;
              string_of_int row.ab_records;
              string_of_int row.ab_recycling;
              string_of_int row.ab_sharing ])
          rows))

(* {1 Lock-free benchmarks: the section 7.2 omission claim} *)

type nolock_row = {
  nl_name : string;
  nl_alloc_pct : float;
  nl_kard_pct : float;
  nl_faults : int;
  nl_cs_entries : int;
}

let nolock_plan ?(scale = Defaults.scale) () =
  let detector = Runner.Kard (Defaults.kard_config ()) in
  Pool.all
    (List.map
       (fun spec ->
         let run d = Pool.job (Job.make ~scale d (Runner.Spec spec)) in
         let+ base = run Runner.Baseline
         and+ alloc = run Runner.Alloc
         and+ kard = run detector in
         { nl_name = spec.Spec.name;
           nl_alloc_pct = Runner.overhead_pct ~baseline:base alloc;
           nl_kard_pct = Runner.overhead_pct ~baseline:base kard;
           nl_faults = kard.Runner.report.Machine.faults;
           nl_cs_entries = kard.Runner.report.Machine.cs_entries })
       Registry.lock_free)

let print_nolock rows =
  print_string
    "benchmarks without locks were omitted from Table 3 because Kard adds no overhead;\n\
     demonstrated here (only the allocator substitution remains):\n";
  print_string
    (Text_table.render
       ~header:[ "benchmark"; "alloc%"; "kard%"; "faults"; "cs entries" ]
       (List.map
          (fun row ->
            [ row.nl_name;
              Text_table.fmt_pct row.nl_alloc_pct;
              Text_table.fmt_pct row.nl_kard_pct;
              string_of_int row.nl_faults;
              string_of_int row.nl_cs_entries ])
          rows))

(* {1 Schedule exploration: detection is schedule-sensitive} *)

let explore_plan () =
  let labelled name plan =
    let+ summary = plan in
    (name, summary)
  in
  let scenario name = labelled name (Explorer.explore_scenario_plan (Race_suite.find name)) in
  let spec name = labelled name (Explorer.explore_spec_plan (Registry.find name)) in
  (* Section 5.5's mitigation: delay injection raises the detection
     rate of rarely-overlapping sections. *)
  let delayed (label, delay) =
    let config = { Kard_core.Config.default with Kard_core.Config.exit_delay_cycles = delay } in
    labelled ("small-cs-race " ^ label)
      (Explorer.explore_scenario_plan ~config Race_suite.small_cs_race)
  in
  Pool.all
    (List.map scenario
       [ "ilu-lock-lock"; "ilu-lock-nolock"; "exclusive-write"; "different-offset-small-cs";
         "small-cs-race" ]
    @ List.map spec [ "aget"; "nginx" ]
    @ List.map delayed [ ("(no delay)", 0); ("(delay 50k)", 50_000); ("(delay 200k)", 200_000) ])

let print_explore rows =
  Printf.printf "per-run detection probability across %d scheduler seeds:\n"
    (List.length Defaults.explorer_seeds);
  List.iter (fun (name, summary) -> Explorer.print_summary ~name summary) rows

(* {1 Open-loop serve sweep (BENCH_pr6.json)} *)

module Openloop = Kard_workloads.Openloop
module Snapshot = Kard_obs.Snapshot
module Window = Kard_obs.Window

type serve_row = {
  sv_detector : string;
  sv_rate : float;
  sv_requests : int;
  sv_cycles : int;
  sv_achieved : float;
  sv_latency : Window.row;
  sv_snapshot : Snapshot.t;
}

type serve_sweep = {
  ss_server : string;
  ss_model : string;
  ss_slo : int;
  ss_threads : int;
  ss_rows : serve_row list;
  ss_goodput : (string * float) list;
}

let serve_detectors =
  [ ("none", Runner.Baseline);
    ("kard", Runner.Kard (Defaults.kard_config ()));
    ("tsan", Runner.Tsan) ]

let default_serve_rates = [ 6.0; 10.0; 14.0; 18.0; 24.0; 32.0 ]

let empty_window_row =
  { Window.w_start = 0; count = 0; max = 0; mean = 0.; p50 = 0; p95 = 0; p99 = 0; p999 = 0 }

(* Goodput under the SLO: per detector, the highest offered rate whose
   p99 latency stays within [slo] (0 when every sweep point misses).
   The open loop makes this meaningful — a saturated detector cannot
   hide behind a slowed-down load generator. *)
let serve_goodput ~slo rows =
  (* Detector names in first-appearance order. *)
  let names =
    List.fold_left
      (fun acc r -> if List.mem r.sv_detector acc then acc else acc @ [ r.sv_detector ])
      [] rows
  in
  List.map
    (fun name ->
      let ok =
        List.filter
          (fun r ->
            String.equal r.sv_detector name
            && r.sv_requests > 0
            && r.sv_latency.Window.p99 <= slo)
          rows
      in
      (name, List.fold_left (fun acc r -> Float.max acc r.sv_rate) 0. ok))
    names

let serve_plan ?(server = Openloop.Nginx) ?(model = Openloop.Poisson)
    ?(detectors = serve_detectors) ?(rates = default_serve_rates)
    ?(threads = Defaults.table_threads) ?(scale = Defaults.serve_scale)
    ?(seed = Defaults.seed) ?(slo = Defaults.serve_slo) () =
  let specs = List.map (fun rate -> (rate, Openloop.spec ~model ~rate server)) rates in
  let row (dname, detector) (rate, spec) =
    let+ result =
      Pool.job
        (Job.make ~threads ~scale ~seed ~trace:(Job.trace_request ()) detector (Runner.Spec spec))
    in
    let snapshot =
      match result.Runner.trace with
      | Some tr -> Snapshot.of_metrics (Kard_obs.Trace.metrics tr)
      | None -> Snapshot.empty
    in
    let latency =
      match Snapshot.find_window snapshot Openloop.metric_latency with
      | Some w -> w.Snapshot.w_overall
      | None -> empty_window_row
    in
    let requests = Snapshot.find_counter snapshot Openloop.counter_requests in
    let cycles = result.Runner.report.Machine.cycles in
    { sv_detector = dname;
      sv_rate = rate;
      sv_requests = requests;
      sv_cycles = cycles;
      sv_achieved =
        (if cycles > 0 then float_of_int requests /. (float_of_int cycles /. 1_000_000.) else 0.);
      sv_latency = latency;
      sv_snapshot = snapshot }
  in
  let+ rows = Pool.all (List.concat_map (fun d -> List.map (row d) specs) detectors) in
  { ss_server = Openloop.server_name server;
    ss_model = Openloop.arrival_name model;
    ss_slo = slo;
    ss_threads = threads;
    ss_rows = rows;
    ss_goodput = serve_goodput ~slo rows }

let print_serve sweep =
  Printf.printf "open-loop %s, %s arrivals, %d workers; SLO: p99 <= %s cycles\n" sweep.ss_server
    sweep.ss_model sweep.ss_threads
    (Text_table.fmt_int sweep.ss_slo);
  let header =
    [ "detector"; "rate"; "requests"; "achieved"; "p50"; "p95"; "p99"; "p99.9"; "max"; "SLO" ]
  in
  let cells row =
    let l = row.sv_latency in
    [ row.sv_detector;
      Printf.sprintf "%g" row.sv_rate;
      Text_table.fmt_int row.sv_requests;
      Printf.sprintf "%.2f" row.sv_achieved;
      Text_table.fmt_int l.Window.p50;
      Text_table.fmt_int l.Window.p95;
      Text_table.fmt_int l.Window.p99;
      Text_table.fmt_int l.Window.p999;
      Text_table.fmt_int l.Window.max;
      (if row.sv_requests > 0 && l.Window.p99 <= sweep.ss_slo then "ok" else "MISS") ]
  in
  print_string (Text_table.render ~header (List.map cells sweep.ss_rows));
  List.iter
    (fun (name, rate) ->
      if rate > 0. then
        Printf.printf "goodput under SLO (%s): %g req/Mcycle\n" name rate
      else Printf.printf "goodput under SLO (%s): none (every rate misses)\n" name)
    sweep.ss_goodput

(* {1 Key-pressure sweep (BENCH_pr8.json)} *)

type keys_row = {
  kp_point : string;
  kp_mode : string;
  kp_objects : int;
  kp_sections : int;
  kp_data_keys : int;
  kp_vkeys : int;
  kp_planted : int;
  kp_detected : int;
  kp_detected_objects : int;
  kp_cycles : int;
  kp_overhead_pct : float;
  kp_sharing : int;
  kp_recycling : int;
  kp_vkey_evictions : int;
  kp_vkey_loads : int;
  kp_vkey_retag_pages : int;
  kp_vkey_stalls : int;
}

type keys_bench = {
  kp_threads : int;
  kp_scale : float;
  kp_seed : int;
  kp_rows : keys_row list;
}

let default_keys_points =
  [ ("10k", Kard_workloads.Keypressure.default);
    ("100k", Kard_workloads.Keypressure.profile_100k) ]

let default_keys_data_keys = [ 4; 8; Kard_mpk.Pkey.data_key_count ]

(* Twice the section count: comfortably past the active set, so the
   pool never forces sharing and the precision measurement isolates
   association lifetime. *)
let default_keys_pool sections = 2 * sections

(* Per sweep point: one baseline run (the overhead denominator), then
   the physical detector and the virtualized detector at each
   physical-key budget.  Precision = detected wrong-lock plants over
   planted; the physical rows lose detections to association churn
   (recycling) and key sharing, the vkey rows keep every association
   alive (DESIGN.md §11). *)
let keys_plan ?(points = default_keys_points) ?(data_keys = default_keys_data_keys) ?pool
    ?threads ?(scale = 1.0) ?(seed = Defaults.seed) () =
  let point (pname, profile) =
    let p = profile.Kard_workloads.Keypressure.sections in
    let pool = match pool with Some n -> n | None -> default_keys_pool p in
    let spec =
      Kard_workloads.Keypressure.spec ~name:("keys-" ^ pname) ~description:"key-pressure point"
        profile
    in
    let threads = Option.value ~default:spec.Spec.default_threads threads in
    let run d = Pool.job (Job.make ~threads ~scale ~seed d (Runner.Spec spec)) in
    let kard (mode, dk, vk) =
      let config = { Kard_core.Config.default with Kard_core.Config.data_keys = dk; vkeys = vk } in
      let+ result = run (Runner.Kard config) in
      ((mode, dk, vk), result)
    in
    let+ base = run Runner.Baseline
    and+ kards =
      Pool.all
        (List.concat_map
           (fun dk ->
             [ kard (Printf.sprintf "phys-%d" dk, dk, 0);
               kard (Printf.sprintf "vkeys-%d" dk, dk, pool) ])
           data_keys)
    in
    let base_cycles = base.Runner.report.Machine.cycles in
    let row ((mode, dk, vk), (result : Runner.result)) =
      let stats = Option.get result.Runner.kard_stats in
      let races = result.Runner.kard_races in
      let distinct =
        List.sort_uniq compare (List.map (fun r -> r.Kard_core.Race_record.obj_id) races)
      in
      { kp_point = pname;
        kp_mode = mode;
        kp_objects = Kard_workloads.Keypressure.effective_objects profile ~scale;
        kp_sections = profile.Kard_workloads.Keypressure.sections;
        kp_data_keys = dk;
        kp_vkeys = vk;
        kp_planted = Kard_workloads.Keypressure.planted profile ~scale;
        kp_detected = List.length races;
        kp_detected_objects = List.length distinct;
        kp_cycles = result.Runner.report.Machine.cycles;
        kp_overhead_pct =
          (if base_cycles > 0 then
             100.
             *. (float_of_int result.Runner.report.Machine.cycles /. float_of_int base_cycles
                -. 1.)
           else 0.);
        kp_sharing = stats.Kard_core.Detector.sharing_events;
        kp_recycling = stats.Kard_core.Detector.recycling_events;
        kp_vkey_evictions = stats.Kard_core.Detector.vkey_evictions;
        kp_vkey_loads = stats.Kard_core.Detector.vkey_loads;
        kp_vkey_retag_pages = stats.Kard_core.Detector.vkey_retag_pages;
        kp_vkey_stalls = stats.Kard_core.Detector.vkey_stalls }
    in
    (threads, List.map row kards)
  in
  let+ groups = Pool.all (List.map point points) in
  { kp_threads =
      (match groups with
      | (threads, _) :: _ -> threads
      | [] -> Defaults.table_threads);
    kp_scale = scale;
    kp_seed = seed;
    kp_rows = List.concat_map snd groups }

let print_keys_bench b =
  Printf.printf "key-pressure sweep: %d threads, scale %g, seed %d\n" b.kp_threads b.kp_scale
    b.kp_seed;
  let header =
    [ "point"; "mode"; "objects"; "sections"; "planted"; "detected"; "objs"; "overhead";
      "sharing"; "recycl"; "evict"; "loads"; "stalls" ]
  in
  let cells row =
    [ row.kp_point;
      row.kp_mode;
      Text_table.fmt_int row.kp_objects;
      string_of_int row.kp_sections;
      string_of_int row.kp_planted;
      string_of_int row.kp_detected;
      string_of_int row.kp_detected_objects;
      Text_table.fmt_pct row.kp_overhead_pct;
      string_of_int row.kp_sharing;
      string_of_int row.kp_recycling;
      Text_table.fmt_int row.kp_vkey_evictions;
      Text_table.fmt_int row.kp_vkey_loads;
      Text_table.fmt_int row.kp_vkey_stalls ]
  in
  print_string (Text_table.render ~header (List.map cells b.kp_rows))

(* {1 Sampling sweep (BENCH_pr9.json)} *)

type sampling_row = {
  sp_subject : string;
  sp_rate : float;
  sp_runs : int;
  sp_detected : int;
  sp_detection_pct : float;
  sp_subset_ok : bool;
  sp_latency_min : int;
  sp_latency_p50 : int;
  sp_latency_max : int;
  sp_mean_cs_entries : float;
  sp_sampled_sections : int;
  sp_skipped_sections : int;
  sp_skipped_accesses : int;
  sp_mean_cycles : float;
}

type sampling_bench = {
  sp_epoch : int;
  sp_seeds : int list;
  sp_rates : float list;
  sp_rows : sampling_row list;
  sp_serve : serve_sweep;
}

let default_sampling_rates = [ 0.1; 0.25; 0.5; 1.0 ]

(* Planted-race subjects whose full-rate detection is reliable across
   the seed sweep, so the rate column — not subject flakiness — is
   what moves detection probability. *)
let default_sampling_scenarios = [ "ilu-lock-lock"; "ilu-lock-nolock"; "exclusive-write" ]

let default_serve_sampling_rates = [ 0.1; 0.25; 0.5 ]

(* Small against the serve runs (which rotate many times), large
   against the race scenarios (which mostly fit inside one epoch, so
   their detection probability stays a clean per-object Bernoulli at
   the rate). *)
let default_sampling_epoch = 100_000

let serve_sampling_detectors rates =
  ("none", Runner.Baseline)
  :: ("kard", Runner.Kard (Defaults.kard_config ()))
  :: List.map
       (fun r ->
         ( Printf.sprintf "kard-s%d" (int_of_float (Float.round (r *. 100.))),
           Runner.Kard { (Defaults.kard_config ()) with Kard_core.Config.sampling = r } ))
       rates

let sampling_median = function
  | [] -> -1
  | l ->
    let a = Array.of_list (List.sort compare l) in
    a.(Array.length a / 2)

let sampling_race_objects (r : Runner.result) =
  List.sort_uniq compare
    (List.map (fun (x : Kard_core.Race_record.t) -> x.Kard_core.Race_record.obj_id)
       r.Runner.kard_races)

(* Per (subject, rate): one Kard run per seed.  Detection probability
   is the fraction of seeds with a surviving race record; detection
   latency is the first-fresh-record position in critical-section
   entries ([Detector.stats.first_race_cs]) over the detecting runs.
   Every sampled run's race-object set must be a subset of the same
   seed's rate-1.0 set ([sp_subset_ok]) — sampling may delay or miss,
   never invent.  The serve section reruns the open-loop nginx sweep
   with sampled-kard detectors next to the full one, so the tracked
   file carries the goodput-under-SLO recovery claim alongside the
   detection cost. *)
let sampling_plan ?(scenarios = default_sampling_scenarios) ?(rates = default_sampling_rates)
    ?(epoch = default_sampling_epoch) ?(seeds = Defaults.explorer_seeds)
    ?(serve_rates = default_serve_sampling_rates) ?(scale = 0.1) ?slo () =
  let subjects =
    List.map (fun name -> Runner.Scenario (Race_suite.find name)) scenarios
    @ [ Runner.Spec
          (Kard_workloads.Keypressure.spec ~name:"keys-10k"
             ~description:"key-pressure sampling point" Kard_workloads.Keypressure.default) ]
  in
  (* The sampling seed follows the run seed: each of the sweep's
     seeds draws an independent window, so detection per (subject,
     rate) row is a probability over [seeds] draws rather than an
     all-or-nothing replay of one fixed window (the scenarios have a
     handful of ids and runs too short to rotate — under one fixed
     window every seed would answer identically). *)
  let job subject rate seed =
    let own =
      match subject with
      | Runner.Scenario s -> s.Race_suite.config
      | Runner.Spec _ -> Kard_core.Config.default
    in
    let config =
      { own with Kard_core.Config.sampling = rate; sampling_epoch = epoch; sampling_seed = seed }
    in
    Job.make ~scale ~seed (Runner.Kard config) subject
  in
  let subject_rows subject =
    let+ by_rate =
      Pool.all
        (List.map
           (fun rate ->
             let+ group =
               Pool.all (List.map (fun seed -> Pool.job (job subject rate seed)) seeds)
             in
             (rate, group))
           rates)
    in
    let full = Option.map (List.map sampling_race_objects) (List.assoc_opt 1.0 by_rate) in
    List.map
      (fun (rate, group) ->
        let detecting = List.filter (fun r -> r.Runner.kard_races <> []) group in
        let latencies =
          List.filter_map
            (fun r ->
              match r.Runner.kard_stats with
              | Some s when s.Kard_core.Detector.first_race_cs >= 0 ->
                Some s.Kard_core.Detector.first_race_cs
              | Some _ | None -> None)
            group
        in
        (* The subset oracle only applies to pinned interleavings: the
           scenarios replay a fixed schedule, so the same seed's
           rate-1.0 run is the right superset.  Open-schedule subjects
           (keypressure) reschedule under sampling — the charges shift
           the virtual clock — so cross-run containment is undefined
           there; the fuzz taxonomy (same-execution oracles) carries
           the no-invented-races guarantee instead. *)
        let subset_ok =
          match (subject, full) with
          | Runner.Spec _, _ | _, None -> true
          | Runner.Scenario _, Some full_sets ->
            List.for_all2
              (fun r full_set ->
                List.for_all (fun o -> List.mem o full_set) (sampling_race_objects r))
              group full_sets
        in
        let sum_stat f =
          List.fold_left
            (fun acc r ->
              match r.Runner.kard_stats with
              | Some s -> acc + f s
              | None -> acc)
            0 group
        in
        let mean_int f =
          float_of_int (List.fold_left (fun acc r -> acc + f r) 0 group)
          /. float_of_int (List.length group)
        in
        { sp_subject = Runner.target_name subject;
          sp_rate = rate;
          sp_runs = List.length group;
          sp_detected = List.length detecting;
          sp_detection_pct =
            100. *. float_of_int (List.length detecting)
            /. float_of_int (max 1 (List.length group));
          sp_subset_ok = subset_ok;
          sp_latency_min = (match latencies with [] -> -1 | l -> List.fold_left min max_int l);
          sp_latency_p50 = sampling_median latencies;
          sp_latency_max = List.fold_left max (-1) latencies;
          sp_mean_cs_entries = mean_int (fun r -> r.Runner.report.Machine.cs_entries);
          sp_sampled_sections = sum_stat (fun s -> s.Kard_core.Detector.sampled_sections);
          sp_skipped_sections = sum_stat (fun s -> s.Kard_core.Detector.skipped_sections);
          sp_skipped_accesses = sum_stat (fun s -> s.Kard_core.Detector.skipped_accesses);
          sp_mean_cycles = mean_int (fun r -> r.Runner.report.Machine.cycles) })
      by_rate
  in
  let+ rows = Pool.all (List.map subject_rows subjects)
  and+ serve = serve_plan ~detectors:(serve_sampling_detectors serve_rates) ?slo () in
  { sp_epoch = epoch;
    sp_seeds = seeds;
    sp_rates = rates;
    sp_rows = List.concat rows;
    sp_serve = serve }

let print_sampling b =
  Printf.printf "sampling sweep: %d seeds per point, epoch %s cycles\n" (List.length b.sp_seeds)
    (Text_table.fmt_int b.sp_epoch);
  let header =
    [ "subject"; "rate"; "detect"; "pct"; "subset"; "lat-min"; "lat-p50"; "lat-max"; "cs-mean";
      "skip-cs"; "skip-acc" ]
  in
  let fmt_lat v = if v < 0 then "-" else Text_table.fmt_int v in
  let cells row =
    [ row.sp_subject;
      Printf.sprintf "%g" row.sp_rate;
      Printf.sprintf "%d/%d" row.sp_detected row.sp_runs;
      Printf.sprintf "%.0f%%" row.sp_detection_pct;
      (if row.sp_subset_ok then "ok" else "VIOLATED");
      fmt_lat row.sp_latency_min;
      fmt_lat row.sp_latency_p50;
      fmt_lat row.sp_latency_max;
      Printf.sprintf "%.0f" row.sp_mean_cs_entries;
      Text_table.fmt_int row.sp_skipped_sections;
      Text_table.fmt_int row.sp_skipped_accesses ]
  in
  print_string (Text_table.render ~header (List.map cells b.sp_rows));
  print_newline ();
  print_serve b.sp_serve

(* {1 MPK micro} *)

let print_micro () =
  let c = Kard_mpk.Cost_model.default in
  let header = [ "operation"; "modeled cycles"; "paper/literature" ] in
  let rows =
    [ [ "RDPKRU"; string_of_int c.Kard_mpk.Cost_model.rdpkru; "<1 cycle (libmpk)" ];
      [ "WRPKRU"; string_of_int c.Kard_mpk.Cost_model.wrpkru; "~20 cycles (libmpk)" ];
      [ "pkey_mprotect";
        Printf.sprintf "%d + %d/page" c.Kard_mpk.Cost_model.pkey_mprotect_base
          c.Kard_mpk.Cost_model.pkey_mprotect_page;
        "~1 us syscall" ];
      [ "#GP fault round trip";
        string_of_int c.Kard_mpk.Cost_model.fault_roundtrip;
        "24,000 cycles (section 5.5)" ] ]
  in
  print_string (Text_table.render ~header rows)
