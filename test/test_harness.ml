(* Tests for the experiment harness: statistics, table rendering, the
   runner, and experiment shapes. *)

module Stats = Kard_harness.Stats
module Text_table = Kard_harness.Text_table
module Runner = Kard_harness.Runner
module Experiments = Kard_harness.Experiments
module Pool = Kard_harness.Pool
module Registry = Kard_workloads.Registry
module Machine = Kard_sched.Machine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-6))

(* Paper-matching assertions run the full detector: experiments that
   read $KARD_SAMPLING through [Defaults.kard_config] would
   legitimately sample the documented races out, so pin the identity
   rate for the call's duration (DESIGN.md §12).  [Defaults.sampling]
   re-reads the environment on every call, making this deterministic;
   a blank value reads as unset, so restoring an unset variable is
   safe. *)
let with_full_kard f =
  let old = Sys.getenv_opt "KARD_SAMPLING" in
  Unix.putenv "KARD_SAMPLING" "1.0";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "KARD_SAMPLING" (Option.value old ~default:""))
    f

(* {1 Environment overrides} *)

module Defaults = Kard_harness.Defaults

(* Set [var] for the duration of [f]; blank restores "unset". *)
let with_env var value f =
  let old = Sys.getenv_opt var in
  Unix.putenv var value;
  Fun.protect ~finally:(fun () -> Unix.putenv var (Option.value old ~default:"")) f

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let raises_naming var value f =
  with_env var value (fun () ->
      match f () with
      | (_ : _) -> Alcotest.failf "%s=%S was accepted" var value
      | exception Failure msg ->
        check (Printf.sprintf "%s=%S: message names the variable" var value) true (contains msg var);
        check (Printf.sprintf "%s=%S: message names the value" var value) true (contains msg value))

(* The CLI's [--vkeys], [--sampling] and [--jobs] parse with the same
   functions as [$KARD_VKEYS], [$KARD_SAMPLING] and [$KARD_JOBS], so
   each value below goes through both doors and must get the same
   answer. *)
let test_env_overrides () =
  List.iter
    (fun (value, n) ->
      with_env Defaults.vkeys_env value (fun () ->
          check_int ("KARD_VKEYS=" ^ value) n (Defaults.vkeys ()));
      check ("--vkeys " ^ value) true (Defaults.vkeys_of_string value = Ok n))
    [ (" 19 ", 19); ("0", 0) ];
  with_env Defaults.vkeys_env "" (fun () ->
      check_int "blank KARD_VKEYS is unset" 0 (Defaults.vkeys ()));
  List.iter
    (fun (value, r) ->
      with_env Defaults.sampling_env value (fun () ->
          check_float ("KARD_SAMPLING=" ^ value) r (Defaults.sampling ()));
      check ("--sampling " ^ value) true (Defaults.sampling_of_string value = Ok r))
    [ ("0.25", 0.25); ("1", 1.0) ];
  with_env Defaults.sampling_env "  " (fun () ->
      check_float "blank KARD_SAMPLING is unset" 1.0 (Defaults.sampling ()));
  with_env Defaults.jobs_env "3" (fun () -> check_int "KARD_JOBS=3" 3 (Defaults.jobs ()));
  check "--jobs 3" true (Defaults.positive_int_of_string "3" = Ok 3);
  check "--scale 0.002" true (Defaults.scale_of_string " 0.002 " = Ok 0.002);
  check "--scale 1" true (Defaults.scale_of_string "1" = Ok 1.0);
  check "--rates 12" true (Defaults.positive_float_of_string "12" = Ok 12.0)

let test_env_overrides_fail_loudly () =
  let rejected flag of_string value =
    check (Printf.sprintf "%s %S rejected" flag value) true (Result.is_error (of_string value))
  in
  List.iter
    (fun value ->
      raises_naming Defaults.vkeys_env value Defaults.vkeys;
      rejected "--vkeys" Defaults.vkeys_of_string value)
    [ "19x"; "-1"; "-3"; "lots" ];
  List.iter
    (fun value ->
      raises_naming Defaults.sampling_env value Defaults.sampling;
      rejected "--sampling" Defaults.sampling_of_string value)
    [ "1.5"; "0"; "-0.5"; "half"; "nan" ];
  (* A blank variable means "unset"; a blank flag value is malformed. *)
  rejected "--vkeys" Defaults.vkeys_of_string "";
  rejected "--sampling" Defaults.sampling_of_string " ";
  List.iter
    (fun value ->
      raises_naming Defaults.jobs_env value Defaults.jobs;
      rejected "--jobs" Defaults.positive_int_of_string value)
    [ "0"; "-2"; "4x" ];
  List.iter (rejected "--scale" Defaults.scale_of_string) [ "0"; "2"; "-1"; "nan"; "inf"; "" ];
  List.iter (rejected "--rates" Defaults.positive_float_of_string) [ "0"; "-3"; "nan"; "inf" ];
  raises_naming Defaults.vkeys_env "19x" Defaults.kard_config

(* {1 Stats} *)

let test_geomean_ratio () =
  check_float "geomean of 2 and 8" 4.0 (Stats.geomean_ratio [ 2.; 8. ]);
  check_float "singleton" 3.0 (Stats.geomean_ratio [ 3. ]);
  check "empty rejected" true
    (try
       ignore (Stats.geomean_ratio []);
       false
     with Invalid_argument _ -> true);
  check "non-positive rejected" true
    (try
       ignore (Stats.geomean_ratio [ 1.; 0. ]);
       false
     with Invalid_argument _ -> true)

let test_geomean_overhead () =
  (* Matches the paper's convention: percentages become ratios. *)
  check "identity" true (abs_float (Stats.geomean_overhead_pct [ 0.; 0. ]) < 1e-9);
  let g = Stats.geomean_overhead_pct [ 100.; 0. ] in
  check "sqrt(2) - 1" true (abs_float (g -. 41.42135) < 0.001);
  (* Negative overheads are legal (ocean_cp, lu_cb rows). *)
  let g2 = Stats.geomean_overhead_pct [ -50.; 100. ] in
  check "mixed signs" true (abs_float g2 < 1e-9)

let rejects_empty f =
  try
    ignore (f [] : float);
    false
  with Invalid_argument _ -> true

let test_pct_and_mean () =
  check_float "pct" 50.0 (Stats.pct 150. 100.);
  check_float "pct zero base" 0.0 (Stats.pct 5. 0.);
  check_float "mean" 2.0 (Stats.mean [ 1.; 2.; 3. ]);
  check "mean empty rejected" true (rejects_empty Stats.mean)

let test_stddev () =
  check_float "constant" 0.0 (Stats.stddev [ 5.; 5.; 5. ]);
  (* Population stddev of [2;4;4;4;5;5;7;9] is exactly 2. *)
  check_float "textbook set" 2.0 (Stats.stddev [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ]);
  check "empty rejected" true (rejects_empty Stats.stddev)

let test_percentile () =
  let values = [ 4.; 1.; 3.; 2. ] in
  check_float "p0 is min" 1.0 (Stats.percentile values 0.);
  check_float "p100 is max" 4.0 (Stats.percentile values 100.);
  check_float "median interpolates" 2.5 (Stats.percentile values 50.);
  check_float "p25 on sorted ranks" 1.75 (Stats.percentile values 25.);
  check_float "singleton" 7.0 (Stats.percentile [ 7. ] 99.);
  check "empty rejected" true (rejects_empty (fun vs -> Stats.percentile vs 50.));
  check "q out of range rejected" true
    (try
       ignore (Stats.percentile values 101. : float);
       false
     with Invalid_argument _ -> true)

let test_summarize () =
  (* Known distribution: 1..1000 uniformly.  The type-7 estimator lands
     p-th percentiles of 1..n on 1 + p/100 * (n - 1) exactly. *)
  let values = List.init 1000 (fun i -> float_of_int (i + 1)) in
  let s = Stats.summarize values in
  check_int "count" 1000 s.Stats.count;
  check_float "min" 1.0 s.Stats.min;
  check_float "max" 1000.0 s.Stats.max;
  check_float "mean" 500.5 s.Stats.mean;
  check_float "p50" 500.5 s.Stats.p50;
  check_float "p95" 950.05 s.Stats.p95;
  check_float "p99" 990.01 s.Stats.p99;
  check_float "p999" 999.001 s.Stats.p999;
  (* Agrees with the standalone estimator on an unsorted sample. *)
  let sample = [ 9.; 1.; 4.; 25.; 16. ] in
  let s2 = Stats.summarize sample in
  check_float "p95 matches percentile" (Stats.percentile sample 95.) s2.Stats.p95;
  check_float "p999 matches percentile" (Stats.percentile sample 99.9) s2.Stats.p999;
  (* A two-point mass at 0 and 100: every tail rank sits inside the
     last gap, so p99 < p99.9 < max strictly. *)
  let bimodal = List.init 100 (fun i -> if i < 99 then 0. else 100.) in
  let s3 = Stats.summarize bimodal in
  check_float "bimodal p50" 0.0 s3.Stats.p50;
  check "bimodal tail ordering" true
    (s3.Stats.p99 < s3.Stats.p999 && s3.Stats.p999 < s3.Stats.max);
  let s4 = Stats.summarize [ 7. ] in
  check_float "singleton collapses" 7.0 s4.Stats.p999;
  check "empty rejected" true
    (try
       ignore (Stats.summarize []);
       false
     with Invalid_argument _ -> true)

(* {1 Text_table} *)

let test_table_render () =
  let s = Text_table.render ~header:[ "a"; "bb" ] [ [ "xxx"; "1" ]; [ "y"; "22" ] ] in
  let lines = String.split_on_char '\n' s in
  check_int "header+rule+2 rows+trailer" 5 (List.length lines);
  check "rows aligned" true
    (String.length (List.nth lines 2) = String.length (List.nth lines 3))

let test_table_formats () =
  check "pct" true (String.equal "+7.0%" (Text_table.fmt_pct 7.0));
  check "negative pct" true (String.equal "-5.9%" (Text_table.fmt_pct (-5.9)));
  check "times" true (String.equal "7.9x" (Text_table.fmt_times 7.9));
  check "thousands" true (String.equal "4,402,000" (Text_table.fmt_int 4_402_000));
  check "small int" true (String.equal "37" (Text_table.fmt_int 37));
  check "kb" true (String.equal "4" (Text_table.fmt_kb 4096));
  check "rate" true (String.equal "0.00013" (Text_table.fmt_rate 0.00013))

(* {1 Runner} *)

let test_runner_detector_names () =
  check "baseline" true (Runner.detector_name Runner.Baseline = "baseline");
  check "kard" true (Runner.detector_name (Runner.Kard (Kard_harness.Defaults.kard_config ())) = "kard");
  check "tsan" true (Runner.detector_name Runner.Tsan = "tsan")

let test_runner_overhead_math () =
  let spec = Registry.find "aget" in
  let base = Runner.run ~scale:0.002 ~detector:Runner.Baseline (Runner.Spec spec) in
  let kard =
    Runner.run ~scale:0.002 ~detector:(Runner.Kard (Kard_harness.Defaults.kard_config ()))
      (Runner.Spec spec)
  in
  let pct = Runner.overhead_pct ~baseline:base kard in
  check "kard costs something" true (pct > 0.);
  check "self overhead is zero" true (abs_float (Runner.overhead_pct ~baseline:base base) < 1e-9)

let test_runner_detector_payloads () =
  let spec = Registry.find "aget" in
  let base = Runner.run ~scale:0.002 ~detector:Runner.Baseline (Runner.Spec spec) in
  check "baseline has no kard stats" true (base.Runner.kard_stats = None);
  check "baseline reports no races" true (base.Runner.kard_races = []);
  let tsan = Runner.run ~scale:0.002 ~detector:Runner.Tsan (Runner.Spec spec) in
  check "tsan run has no kard stats" true (tsan.Runner.kard_stats = None)

(* A kard detector runs with exactly its own configuration, on a
   scenario too: the 13-key default keeps key-sharing-false-negative's
   two sections on separate keys and reports the race; the scenario's
   own one-key configuration shares the key and misses it. *)
let test_runner_detector_as_given () =
  let sc = Kard_workloads.Race_suite.key_sharing_false_negative in
  let ilu config =
    List.length
      (Runner.run ~detector:(Runner.Kard config) (Runner.Scenario sc)).Runner.kard_ilu_races
  in
  check "the default config reports the race" true (ilu Kard_core.Config.default >= 1);
  check_int "the scenario's own config misses it" 0
    (ilu sc.Kard_workloads.Race_suite.config)

(* {1 Experiments} *)

let test_table3_shape () =
  let specs = [ Registry.find "aget"; Registry.find "streamcluster" ] in
  let rows = Pool.execute (Experiments.table3_plan ~scale:0.002 ~specs ()) in
  check_int "two rows" 2 (List.length rows);
  List.iter
    (fun row ->
      (* TSan is far slower than Kard on every workload. *)
      check "tsan slower than kard" true (Experiments.t3_tsan_pct row > Experiments.t3_kard_pct row);
      check "kard not slower than 10x" true (Experiments.t3_kard_pct row < 1000.))
    rows

let test_scenarios_all_pass () =
  let rows = Pool.execute (Experiments.scenarios_plan ()) in
  List.iter
    (fun row ->
      let name = row.Experiments.scenario.Kard_workloads.Race_suite.name in
      check (name ^ " kard") true row.Experiments.kard_ok;
      check (name ^ " tsan") true row.Experiments.tsan_ok;
      check (name ^ " lockset") true row.Experiments.lockset_ok)
    rows

let test_figure2_numbers () =
  let s = Experiments.figure2 () in
  check_int "128 objects" 128 s.Experiments.objects;
  check_int "128 virtual pages" 128 s.Experiments.virtual_pages;
  check "physically consolidated" true (s.Experiments.physical_pages <= 16)

let test_nginx_sweep_monotone () =
  let rows = Pool.execute (Experiments.nginx_sweep_plan ~sizes:[ 128; 1024 ] ~scale:0.002 ()) in
  match rows with
  | [ small; large ] ->
    check "smaller files suffer more" true
      (small.Experiments.kard_pct > large.Experiments.kard_pct)
  | _ -> Alcotest.fail "expected two rows"

let test_chart_bars () =
  let s = Kard_harness.Chart.bars ~width:10 [ ("a", 10.); ("bb", 5.) ] in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' s) in
  check_int "two lines" 2 (List.length lines);
  check "largest bar fills width" true
    (String.length (List.nth (String.split_on_char '|' (List.hd lines)) 1) = 10);
  (* Zero and negative values keep the chart well-formed. *)
  let s2 = Kard_harness.Chart.bars ~width:10 [ ("x", 0.); ("y", -3.) ] in
  check "handles non-positive" true (String.length s2 > 0)

let test_chart_grouped () =
  let s =
    Kard_harness.Chart.grouped ~width:8 ~series:[ "t=8"; "t=16" ]
      [ ("alpha", [ 1.; 2. ]); ("beta", [ 4.; 8. ]) ]
  in
  check "contains labels" true
    (List.for_all
       (fun needle ->
         let rec find i =
           i + String.length needle <= String.length s
           && (String.sub s i (String.length needle) = needle || find (i + 1))
         in
         find 0)
       [ "alpha"; "beta"; "t=8"; "t=16" ])

let test_explorer_scenarios () =
  let s =
    Pool.execute
      (Kard_harness.Explorer.explore_scenario_plan ~seeds:[ 1; 2; 3; 4; 5 ]
         Kard_workloads.Race_suite.ilu_lock_lock)
  in
  check_int "five runs" 5 s.Kard_harness.Explorer.runs;
  check "always detected" true (s.Kard_harness.Explorer.detection_rate = 1.0);
  let clean =
    Pool.execute
      (Kard_harness.Explorer.explore_scenario_plan ~seeds:[ 1; 2; 3 ]
         Kard_workloads.Race_suite.same_lock)
  in
  check "never false positives" true (clean.Kard_harness.Explorer.detection_rate = 0.0)

let test_explorer_spec () =
  with_full_kard @@ fun () ->
  let s =
    Pool.execute (Kard_harness.Explorer.explore_spec_plan ~seeds:[ 1; 2 ] (Registry.find "aget"))
  in
  check_int "two runs" 2 s.Kard_harness.Explorer.runs;
  check "aget race robust" true (s.Kard_harness.Explorer.detecting_runs >= 1)

let test_memory_breakdown () =
  let rows =
    Pool.execute
      (Experiments.memory_plan ~scale:0.002
         ~specs:[ Registry.find "water_spatial"; Registry.find "aget" ] ())
  in
  check_int "two rows" 2 (List.length rows);
  List.iter
    (fun row ->
      check "components do not exceed the total" true
        (row.Experiments.kard_data + row.Experiments.kard_page_tables
         + row.Experiments.kard_metadata
        <= row.Experiments.kard_rss + 4096))
    rows;
  (* water_spatial's unique-paged molecules dominate aget's footprint. *)
  (match rows with
  | [ water; aget ] ->
    let pct r =
      Stats.pct (float_of_int r.Experiments.kard_rss) (float_of_int r.Experiments.base_rss)
    in
    check "water_spatial blows up, aget does not" true (pct water > pct aget)
  | _ -> Alcotest.fail "expected two rows")

(* The ablation's key-budget rows on memcached: 13 keys neither
   recycle nor share, 4 keys recycle, 1 key also shares, and a
   192-key virtual pool over that one key recycles nothing and shares
   less, at the default's record count. *)
let test_ablation_key_budget_rows () =
  let rows = Pool.execute ~jobs:1 (Experiments.ablation_plan ~scale:0.002 ()) in
  check "one row per variant, in order" true
    (List.map (fun r -> r.Experiments.ab_label) rows = List.map fst Experiments.ablation_variants);
  let row label = List.find (fun r -> r.Experiments.ab_label = label) rows in
  let default = row "default (13 keys, all filters)" in
  check_int "13 keys: no recycling" 0 default.Experiments.ab_recycling;
  check_int "13 keys: no sharing" 0 default.Experiments.ab_sharing;
  check "4 keys recycle" true ((row "4 data keys").Experiments.ab_recycling > 0);
  let one = row "1 data key" and pooled = row "1 data key + 192 vkeys" in
  check "1 key shares" true (one.Experiments.ab_sharing > 0);
  check_int "the pool recycles nothing" 0 pooled.Experiments.ab_recycling;
  check "the pool shares less" true (pooled.Experiments.ab_sharing < one.Experiments.ab_sharing);
  check_int "the pool keeps the default's records" default.Experiments.ab_records
    pooled.Experiments.ab_records

let test_table6_shape () =
  with_full_kard @@ fun () ->
  let rows = Pool.execute (Experiments.table6_plan ~scale:0.01 ()) in
  check_int "four applications" 4 (List.length rows);
  List.iter
    (fun row ->
      check
        (row.Experiments.app ^ " matches paper")
        true
        (row.Experiments.kard_races = row.Experiments.paper_kard))
    rows

(* {1 Json_report} *)

module Json = Kard_harness.Json_report

let contains haystack needle =
  let n = String.length needle in
  let rec find i =
    i + n <= String.length haystack && (String.sub haystack i n = needle || find (i + 1))
  in
  find 0

let test_json_escape () =
  check "quotes" true (String.equal "a\\\"b" (Json.escape "a\"b"));
  check "backslash" true (String.equal "a\\\\b" (Json.escape "a\\b"));
  check "newline" true (String.equal "a\\nb" (Json.escape "a\nb"));
  check "control" true (String.equal "\\u0001" (Json.escape "\x01"))

let test_json_race () =
  let race =
    { Kard_core.Race_record.obj_id = 7;
      obj_base = 0x1000;
      offset = 16;
      faulting = { Kard_core.Race_record.thread = 1; section = None; access = `Read; ip = 3 };
      holding = [ { Kard_core.Race_record.thread = 2; section = Some 9; access = `Write; ip = -1 } ];
      time = 42 }
  in
  let json = Json.of_race race in
  check "object id" true (contains json "\"object\":7");
  check "null section" true (contains json "\"section\":null");
  check "ilu true" true (contains json "\"ilu\":true");
  check "holder section" true (contains json "\"section\":9")

let test_json_result () =
  let r = Runner.run ~scale:0.002 ~detector:(Runner.Kard (Kard_harness.Defaults.kard_config ()))
      (Runner.Spec (Registry.find "aget"))
  in
  let json = Json.of_result r in
  check "workload" true (contains json "\"workload\":\"aget\"");
  check "kard stats present" true (contains json "\"kard\":{");
  check "races array" true (contains json "\"races\":[");
  let base =
    Runner.run ~scale:0.002 ~detector:Runner.Baseline (Runner.Spec (Registry.find "aget"))
  in
  check "baseline has no kard object" false (contains (Json.of_result base) "\"kard\":{")

let test_json_metrics () =
  let m = Kard_obs.Metrics.create () in
  Kard_obs.Metrics.incr (Kard_obs.Metrics.counter m "hits");
  let h = Kard_obs.Metrics.histogram m "lat" in
  List.iter (Kard_obs.Metrics.observe h) [ 1; 2; 3; 4 ];
  let json = Json.of_metrics m in
  check "counter emitted" true (contains json "\"hits\":1");
  check "histogram named" true (contains json "\"lat\":{");
  List.iter
    (fun field -> check (field ^ " present") true (contains json ("\"" ^ field ^ "\":")))
    [ "count"; "total"; "min"; "max"; "mean"; "p50"; "p95"; "p99"; "p999" ];
  check "count value" true (contains json "\"count\":4")

let test_json_traced_result () =
  let tr = Kard_obs.Trace.create () in
  let r =
    Runner.run ~trace:tr ~scale:0.002 ~detector:(Runner.Kard (Kard_harness.Defaults.kard_config ()))
      (Runner.Spec (Registry.find "aget"))
  in
  let json = Json.of_result r in
  check "trace summary" true (contains json "\"trace\":{");
  check "category counts" true (contains json "\"categories\":{");
  check "metrics registry" true (contains json "\"metrics\":{");
  let untraced =
    Runner.run ~scale:0.002 ~detector:(Runner.Kard (Kard_harness.Defaults.kard_config ()))
      (Runner.Spec (Registry.find "aget"))
  in
  check "untraced run embeds neither" false (contains (Json.of_result untraced) "\"metrics\":{")

let test_json_pretty () =
  let pretty = Json.pretty "{\"a\":1,\"b\":[2,3]}" in
  check "newlines added" true (contains pretty "\n");
  check "content preserved" true (contains pretty "\"a\": 1");
  (* Braces inside strings must not be re-indented. *)
  let tricky = Json.pretty "{\"s\":\"a{b}c\"}" in
  check "string braces untouched" true (contains tricky "a{b}c");
  (* Pretty-printing only moves whitespace: stripping it back yields
     the compact input, even with escapes inside strings. *)
  let strip s =
    String.to_seq s
    |> Seq.filter (fun c -> c <> '\n' && c <> ' ')
    |> String.of_seq
  in
  let compact = "{\"s\":\"a\\\"{\\\\\",\"n\":[1,{\"m\":2}]}" in
  check "round-trips modulo whitespace" true (String.equal compact (strip (Json.pretty compact)))

let () =
  Alcotest.run "kard_harness"
    [ ( "env",
        [ Alcotest.test_case "overrides" `Quick test_env_overrides;
          Alcotest.test_case "malformed overrides fail loudly" `Quick
            test_env_overrides_fail_loudly ] );
      ( "stats",
        [ Alcotest.test_case "geomean ratio" `Quick test_geomean_ratio;
          Alcotest.test_case "geomean overhead" `Quick test_geomean_overhead;
          Alcotest.test_case "pct and mean" `Quick test_pct_and_mean;
          Alcotest.test_case "summarize" `Quick test_summarize;
          Alcotest.test_case "stddev" `Quick test_stddev;
          Alcotest.test_case "percentile" `Quick test_percentile ] );
      ( "text_table",
        [ Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "formats" `Quick test_table_formats ] );
      ( "runner",
        [ Alcotest.test_case "detector names" `Quick test_runner_detector_names;
          Alcotest.test_case "overhead math" `Slow test_runner_overhead_math;
          Alcotest.test_case "detector payloads" `Slow test_runner_detector_payloads;
          Alcotest.test_case "kard config as given" `Quick test_runner_detector_as_given ] );
      ( "experiments",
        [ Alcotest.test_case "table3 shape" `Slow test_table3_shape;
          Alcotest.test_case "scenarios pass" `Slow test_scenarios_all_pass;
          Alcotest.test_case "figure2" `Quick test_figure2_numbers;
          Alcotest.test_case "nginx sweep monotone" `Slow test_nginx_sweep_monotone;
          Alcotest.test_case "memory breakdown" `Slow test_memory_breakdown;
          Alcotest.test_case "ablation key-budget rows" `Slow test_ablation_key_budget_rows;
          Alcotest.test_case "table6 matches paper" `Slow test_table6_shape ] );
      ( "explorer",
        [ Alcotest.test_case "scenario sweep" `Slow test_explorer_scenarios;
          Alcotest.test_case "spec sweep" `Slow test_explorer_spec ] );
      ( "chart",
        [ Alcotest.test_case "bars" `Quick test_chart_bars;
          Alcotest.test_case "grouped" `Quick test_chart_grouped ] );
      ( "json",
        [ Alcotest.test_case "escape" `Quick test_json_escape;
          Alcotest.test_case "race record" `Quick test_json_race;
          Alcotest.test_case "result" `Slow test_json_result;
          Alcotest.test_case "metrics" `Quick test_json_metrics;
          Alcotest.test_case "traced result" `Slow test_json_traced_result;
          Alcotest.test_case "pretty" `Quick test_json_pretty ] ) ]
