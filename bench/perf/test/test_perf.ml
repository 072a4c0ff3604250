(* Tests for the repository benchmark: its order statistics, the
   --out format and --compare verdicts, a tiny-scale pass through the
   real harness for every workload, and BENCHMARK.json against the
   spec. *)

open Kard_perf

let check = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let floats n f = List.init n (fun i -> f (float_of_int i))

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* {1 Order statistics} *)

let test_median_quartiles () =
  check_float "odd median" 3. (Quantile.median [ 5.; 1.; 3. ]);
  check_float "even median" 2.5 (Quantile.median [ 4.; 1.; 3.; 2. ]);
  let s = Quantile.spread [ 4.; 1.; 3.; 2. ] in
  check_float "p25" 1.75 s.Quantile.p25;
  check_float "p75" 3.25 s.Quantile.p75;
  check_int "n" 4 s.Quantile.n;
  check_float "iqr share" 0.6 (Quantile.iqr_share s);
  check_float "iqr share of a zero median" 0. (Quantile.iqr_share (Quantile.spread [ -1.; 0.; 1. ]))

(* A p99 needs ten samples beyond it, so about 1,000 distinct samples. *)
let test_tail_rule () =
  check "900 samples: nine beyond, no p99" true (Quantile.tail (floats 900 Fun.id) 99. = None);
  (match Quantile.tail (floats 1000 Fun.id) 99. with
   | Some v -> check "p99 of 0..999" true (v > 989. && v < 990.)
   | None -> Alcotest.fail "1000 distinct samples must give a p99");
  check "ties at the top give no tail" true (Quantile.tail (floats 2000 (fun _ -> 7.)) 99. = None);
  check "p50 of 20 samples" true (Quantile.tail (floats 20 Fun.id) 50. <> None);
  check "p50 of 19 samples" true (Quantile.tail (floats 19 Fun.id) 50. = None)

let test_hist () =
  let h = Quantile.Hist.create () in
  List.iter (Quantile.Hist.add h) [ 10; 20; 30; 40 ];
  check_int "p50 nearest rank" 20 (Quantile.Hist.percentile h 50.);
  check_int "p100" 40 (Quantile.Hist.percentile h 100.);
  check_float "mean" 25. (Quantile.Hist.mean h);
  check "too few for p99" true (Quantile.Hist.tail h 99. = None);
  (* Durations past the array are kept exactly. *)
  let big = Quantile.Hist.cap + 5 in
  Quantile.Hist.add h big;
  Quantile.Hist.add h (big + 1);
  check_int "overflow rank" (big + 1) (Quantile.Hist.percentile h 100.);
  check_int "overflow middle" big (Quantile.Hist.percentile h 80.);
  let h = Quantile.Hist.create () in
  for d = 1 to 1000 do Quantile.Hist.add h d done;
  check "p99 with ten beyond" true (Quantile.Hist.tail h 99. = Some 990);
  check "empty hist has no tail" true (Quantile.Hist.tail (Quantile.Hist.create ()) 99. = None)

(* {1 --out lines and --compare} *)

let test_outfile_roundtrip () =
  let line =
    Outfile.
      [ ("kind", S "metric"); ("note", S "a \"quoted\"\\ line\n"); ("value", F 0.1);
        ("big", F 41600000.); ("n", I 10); ("ok", B true); ("none", Null); ("nan", F nan) ]
  in
  let back = Outfile.parse (Outfile.render line) in
  check "strings survive" true (Outfile.str back "note" = Outfile.str line "note");
  check "floats round-trip exactly" true (Outfile.num back "value" = Some 0.1);
  check "integral floats" true (Outfile.num back "big" = Some 41600000.);
  check "ints" true (Outfile.num back "n" = Some 10.);
  check "bools" true (Outfile.bool back "ok");
  check "null" true (List.assoc "none" back = Outfile.Null);
  check "nan is written as null" true (List.assoc "nan" back = Outfile.Null);
  check "garbage rejected" true
    (match Outfile.parse "{\"a\": }" with _ -> false | exception Outfile.Parse_error _ -> true)

let metric_line ?(unresolved = false) workload name value : Outfile.line =
  Outfile.
    [ ("kind", S "metric"); ("workload", S workload); ("name", S name); ("value", F value);
      ("unresolved", B unresolved) ]

let verdict_of a b =
  match Suite.compare_lines a b with
  | [ c ] -> c.Suite.c_verdict
  | cs -> Alcotest.failf "expected one comparison, got %d" (List.length cs)

let test_compare_verdicts () =
  let w = Spec.memcached in
  let host v = [ metric_line w "host_ns_per_step" v ] in
  let bound = (Spec.find "host_ns_per_step").Spec.bound in
  check "half the bound slower is within" true
    (verdict_of (host 300.) (host (300. *. (1. +. (bound /. 2.)))) = Suite.Within);
  check "twice the bound slower is outside" true
    (verdict_of (host 300.) (host (300. *. (1. +. (2. *. bound)))) = Suite.Outside);
  check "faster is within" true (verdict_of (host 300.) (host 200.) = Suite.Within);
  check "wide spread is unresolved" true
    (verdict_of [ metric_line ~unresolved:true w "host_ns_per_step" 300. ] (host 360.)
     = Suite.Unresolved);
  let cycles v = [ metric_line w "sim_cycles" v ] in
  check "exact metric equal" true (verdict_of (cycles 41e6) (cycles 41e6) = Suite.Equal);
  check "exact metric changed" true (verdict_of (cycles 41e6) (cycles (41e6 +. 1.)) = Suite.Changed);
  let higher = { (Spec.find "host_ns_per_step") with Spec.better = Spec.Higher } in
  check "higher-is-better: a drop is worse" true
    (Suite.verdict higher ~a:(Some 100.) ~b:(Some (100. *. (1. -. (2. *. bound)))) ~unresolved:false
     = Suite.Outside);
  check "higher-is-better: a rise is within" true
    (Suite.verdict higher ~a:(Some 100.) ~b:(Some 130.) ~unresolved:false = Suite.Within);
  (* setup_s carries an absolute 1 ms floor on top of its bound. *)
  let setup v = [ metric_line w "setup_s" v ] in
  check "tiny absolute setup change" true (verdict_of (setup 0.0002) (setup 0.0009) = Suite.Within);
  check "missing metric" true (verdict_of (host 300.) [] = Suite.Missing);
  check "failing verdicts" true
    (List.for_all Suite.failing [ Suite.Outside; Suite.Changed; Suite.Missing ]
     && not (List.exists Suite.failing [ Suite.Within; Suite.Equal; Suite.Unresolved; Suite.Info ]))

(* {1 The harness at tiny scale} *)

let tiny = { Workload.scale = 0.002; race_seeds = 1 }

let test_smoke () =
  let ms, micro = Suite.run_all ~seed:7 ~size:tiny ~micro_quota:0.002 in
  let lines, ok = Suite.report ~seed:7 (ms, micro) in
  List.iter
    (fun m ->
      List.iter
        (fun (name, r) ->
          check (Printf.sprintf "%s %s" m.Suite.w.Workload.name name) true (Result.is_ok r))
        (Suite.checks m);
      check (m.Suite.w.Workload.name ^ " failure rate") true (Suite.failed m = 0))
    ms;
  check "all checks pass" true ok;
  let emitted =
    List.filter_map
      (fun l ->
        match (Outfile.str l "kind", Outfile.str l "workload", Outfile.str l "name") with
        | Some "metric", Some w, Some n -> Some (w, n)
        | _ -> None)
      lines
  in
  List.iter
    (fun (m : Spec.metric) ->
      check (m.Spec.name ^ " emitted") true (List.exists (fun (_, n) -> n = m.Spec.name) emitted);
      List.iter
        (fun (w : Spec.workload) ->
          if Spec.applies m ~workload:w.Spec.w_name then
            check
              (Printf.sprintf "%s emitted for %s" m.Spec.name w.Spec.w_name)
              true
              (List.mem (w.Spec.w_name, m.Spec.name) emitted))
        Spec.workloads)
    Spec.all_metrics;
  check "provenance line" true
    (List.exists (fun l -> Outfile.str l "kind" = Some "meta" && Outfile.num l "domains" <> None) lines);
  check "a config line per workload" true
    (List.for_all
       (fun (w : Spec.workload) ->
         List.exists
           (fun l -> Outfile.str l "kind" = Some "config" && Outfile.str l "workload" = Some w.Spec.w_name)
           lines)
       Spec.workloads);
  (* Every BENCHMARK.json metric has a value on every workload (p99s
     need full-size runs for their samples). *)
  List.iter
    (fun m ->
      List.iter
        (fun (r : Suite.row) ->
          if r.Suite.metric.Spec.driver && not (String.ends_with ~suffix:"_p99" r.Suite.metric.Spec.name)
          then check (r.Suite.workload ^ " " ^ r.Suite.metric.Spec.name ^ " has a value") true (r.Suite.value <> None))
        (Suite.rows ~micro ~applies:(fun x -> x.Spec.driver) m))
    ms;
  check "the traced pass saw steps" true
    (List.for_all (fun m -> Tracer.step_count m.Suite.tracer > 0) ms)

(* The driver path: one workload, a fixed time, the last-line JSON. *)
let test_driver_line () =
  let w = Option.get (Workload.find ~seed:3 tiny Spec.race_suite) in
  let line = Suite.driver_json ~trace:false (Suite.run_for ~seconds:1 ~trace:false w) in
  check "correct" true (String.starts_with ~prefix:"{\"correct\": true" line);
  let traced = Suite.driver_json ~trace:true (Suite.run_for ~seconds:1 ~trace:true w) in
  let has (ms : Spec.metric list) line =
    List.iter
      (fun (x : Spec.metric) ->
        if x.Spec.driver then check (x.Spec.name ^ " in the line") true (contains line (Printf.sprintf "%S" x.Spec.name)))
      ms
  in
  has Spec.end_to_end line;
  has Spec.per_layer traced

(* {1 BENCHMARK.json} *)

let test_benchmark_json () =
  let ic = open_in_bin "../../../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "BENCHMARK.json is perf.exe --spec" (Spec.benchmark_json ()) text

let () =
  Alcotest.run "perf"
    [ ( "quantile",
        [ Alcotest.test_case "median and quartiles" `Quick test_median_quartiles;
          Alcotest.test_case "p99 needs ten samples beyond" `Quick test_tail_rule;
          Alcotest.test_case "histogram" `Quick test_hist ] );
      ( "compare",
        [ Alcotest.test_case "--out round trip" `Quick test_outfile_roundtrip;
          Alcotest.test_case "verdicts" `Quick test_compare_verdicts ] );
      ( "harness",
        [ Alcotest.test_case "every workload at tiny scale" `Quick test_smoke;
          Alcotest.test_case "driver line" `Quick test_driver_line;
          Alcotest.test_case "BENCHMARK.json matches the spec" `Quick test_benchmark_json ] ) ]
