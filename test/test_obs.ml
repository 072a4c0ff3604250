(* Tests for the observability layer: the event ring, the metrics
   registry, traced machine runs, the Chrome trace export, and the
   zero-cost claim of the no-op sink. *)

module Ring = Kard_obs.Ring
module Event = Kard_obs.Event
module Metrics = Kard_obs.Metrics
module Window = Kard_obs.Window
module Span = Kard_obs.Span
module Snapshot = Kard_obs.Snapshot
module Trace = Kard_obs.Trace
module Chrome_trace = Kard_obs.Chrome_trace
module Runner = Kard_harness.Runner
module Registry = Kard_workloads.Registry
module Machine = Kard_sched.Machine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* {1 Ring} *)

let test_ring_basic () =
  let r = Ring.create ~capacity:4 in
  check_int "empty" 0 (Ring.length r);
  List.iter (Ring.push r) [ 1; 2; 3 ];
  check "order below capacity" true (Ring.to_list r = [ 1; 2; 3 ]);
  check_int "pushed" 3 (Ring.pushed r);
  check_int "nothing dropped" 0 (Ring.dropped r)

let test_ring_wraps () =
  let r = Ring.create ~capacity:4 in
  List.iter (Ring.push r) [ 1; 2; 3; 4; 5; 6 ];
  check "keeps newest, oldest first" true (Ring.to_list r = [ 3; 4; 5; 6 ]);
  check_int "capacity bounds length" 4 (Ring.length r);
  check_int "pushed counts all" 6 (Ring.pushed r);
  check_int "dropped the overflow" 2 (Ring.dropped r);
  Ring.clear r;
  check_int "clear empties" 0 (Ring.length r)

let test_ring_rejects_bad_capacity () =
  check "zero capacity rejected" true
    (try
       ignore (Ring.create ~capacity:0 : int Ring.t);
       false
     with Invalid_argument _ -> true)

(* {1 Metrics} *)

let test_metrics_counters () =
  let m = Metrics.create () in
  let c = Metrics.counter m "x" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  check_int "accumulates" 5 (Metrics.counter_value c);
  (* Find-or-create: the same name is the same counter. *)
  Metrics.incr (Metrics.counter m "x");
  check_int "shared by name" 6 (Metrics.counter_value c);
  check "listed sorted" true (Metrics.counters m = [ ("x", 6) ])

let test_metrics_histogram () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  for v = 1 to 100 do
    Metrics.observe h v
  done;
  let s = Metrics.summary h in
  check_int "count" 100 s.Metrics.count;
  check_int "min exact" 1 s.Metrics.min;
  check_int "max exact" 100 s.Metrics.max;
  check "mean exact" true (abs_float (s.Metrics.mean -. 50.5) < 1e-9);
  check "percentiles ordered" true (s.Metrics.p50 <= s.Metrics.p95 && s.Metrics.p95 <= s.Metrics.p99);
  check "p50 in range" true (s.Metrics.p50 >= 1. && s.Metrics.p50 <= 100.);
  (* Bucket interpolation stays within a doubling of the true rank. *)
  check "p50 near median" true (s.Metrics.p50 >= 25. && s.Metrics.p50 <= 100.)

let test_metrics_constant_histogram () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "const" in
  for _ = 1 to 50 do
    Metrics.observe h 7
  done;
  let s = Metrics.summary h in
  (* Percentiles are clamped to the exact observed range. *)
  check "p50 exact on constants" true (abs_float (s.Metrics.p50 -. 7.) < 1e-9);
  check "p99 exact on constants" true (abs_float (s.Metrics.p99 -. 7.) < 1e-9);
  check "p999 exact on constants" true (abs_float (s.Metrics.p999 -. 7.) < 1e-9)

(* {1 Windowed histograms} *)

let test_window_buckets () =
  (* Log-linear bucketing: values below 64 (two octaves of 32
     sub-buckets) are exact; above that the bucket's inclusive upper
     bound over-reports by at most ~3% (1/32 of an octave). *)
  for v = 0 to 63 do
    check_int "small values exact" v (Window.bucket_upper (Window.bucket_index v))
  done;
  List.iter
    (fun v ->
      let upper = Window.bucket_upper (Window.bucket_index v) in
      check "upper bound never under-reports" true (upper >= v);
      check "relative error within ~3%" true
        (float_of_int (upper - v) <= 0.033 *. float_of_int v))
    [ 64; 100; 1_000; 54_321; 1_000_000; 123_456_789 ]

let test_window_rows () =
  let w = Window.create ~width:1_000 () in
  (* Two samples in window 0, one in window 2; window 1 stays empty. *)
  Window.observe w ~ts:10 100;
  Window.observe w ~ts:900 200;
  Window.observe w ~ts:2_500 50;
  check_int "count totals all windows" 3 (Window.count w);
  let rows = Window.rows w in
  check_int "empty windows omitted" 2 (List.length rows);
  let r0 = List.nth rows 0 and r2 = List.nth rows 1 in
  check_int "first window start" 0 r0.Window.w_start;
  check_int "first window count" 2 r0.Window.count;
  check_int "third window start" 2_000 r2.Window.w_start;
  check_int "max is exact" 200 r0.Window.max;
  let overall = Window.overall w in
  check_int "overall spans the run" 3 overall.Window.count;
  check_int "overall max" 200 overall.Window.max;
  check "percentiles ordered" true
    (overall.Window.p50 <= overall.Window.p95
     && overall.Window.p95 <= overall.Window.p99
     && overall.Window.p99 <= overall.Window.p999
     && overall.Window.p999 <= overall.Window.max)

let test_window_percentiles_known () =
  (* 1..1000 uniform: every percentile's bucket upper bound sits within
     the ~3% bucketing error of the true rank. *)
  let w = Window.create ~width:1_000_000 () in
  for v = 1 to 1_000 do
    Window.observe w ~ts:0 v
  done;
  List.iter
    (fun (q, expect) ->
      let got = float_of_int (Window.percentile w q) in
      check
        (Printf.sprintf "p%g within bucket error" (q *. 100.))
        true
        (got >= expect && got <= expect *. 1.033))
    [ (0.5, 500.); (0.95, 950.); (0.99, 990.); (0.999, 999.) ];
  check_int "max exact" 1_000 (Window.max_value w)

let test_window_determinism () =
  let fill () =
    let w = Window.create ~width:4_096 () in
    for i = 1 to 500 do
      Window.observe w ~ts:(i * 37) (i * i mod 9_001)
    done;
    w
  in
  check "identical fills give identical rows" true (Window.rows (fill ()) = Window.rows (fill ()));
  check "zero width rejected" true
    (try
       ignore (Window.create ~width:0 () : Window.t);
       false
     with Invalid_argument _ -> true)

(* {1 Spans} *)

let test_span_lifecycle () =
  let s = Span.create () in
  Span.open_ s ~id:1 ~lane:0 ~name:"request" ~ts:100;
  Span.open_ s ~id:2 ~lane:1 ~name:"request" ~ts:150;
  check_int "two open" 2 (Span.open_count s);
  Span.close s ~id:2 ~ts:300;
  Span.close s ~id:1 ~ts:400;
  check_int "none left open" 0 (Span.open_count s);
  (* Close order, not open order. *)
  check "closed in close order" true
    (List.map (fun sp -> sp.Span.id) (Span.closed s) = [ 2; 1 ]);
  let sp = List.hd (Span.closed s) in
  check_int "duration" 150 (Span.duration sp);
  Span.close s ~id:99 ~ts:500;
  check_int "stray close counted, not raised" 1 (Span.dropped_closes s);
  (* A span may stop before its recorded start never: clamped. *)
  Span.open_ s ~id:3 ~lane:0 ~name:"request" ~ts:1_000;
  Span.close s ~id:3 ~ts:900;
  let sp3 = List.nth (Span.closed s) 2 in
  check_int "stop clamped to start" 0 (Span.duration sp3)

(* {1 Snapshots} *)

let test_snapshot_of_metrics () =
  let m = Metrics.create () in
  Metrics.incr ~by:3 (Metrics.counter m "reqs");
  Metrics.observe (Metrics.histogram m "lat") 42;
  let w = Metrics.window m ~width:1_000 "lat_w" in
  Window.observe w ~ts:100 7;
  Window.observe w ~ts:1_500 9;
  let s = Snapshot.of_metrics m in
  check_int "counter captured" 3 (Snapshot.find_counter s "reqs");
  check_int "absent counter is zero" 0 (Snapshot.find_counter s "nope");
  (match Snapshot.find_window s "lat_w" with
  | None -> check "window captured" true false
  | Some v ->
      check_int "width captured" 1_000 v.Snapshot.w_width;
      check_int "overall count" 2 v.Snapshot.w_overall.Window.count;
      check_int "two windows" 2 (List.length v.Snapshot.w_rows));
  check "absent window is None" true (Snapshot.find_window s "nope" = None);
  (* Pure data: snapshots of equal registries are structurally equal. *)
  check "snapshot is stable" true (s = Snapshot.of_metrics m)

(* {1 Traced machine runs} *)

let traced_run () =
  let tr = Trace.create () in
  let r =
    Runner.run ~trace:tr ~scale:0.002 ~seed:42 ~detector:(Runner.Kard (Kard_harness.Defaults.kard_config ()))
      (Runner.Spec (Registry.find "memcached"))
  in
  (tr, r)

let test_trace_categories () =
  let tr, _ = traced_run () in
  let cats = List.map fst (Trace.category_counts tr) in
  List.iter
    (fun cat -> check (cat ^ " events present") true (List.mem cat cats))
    [ "lock"; "fault"; "pkey"; "alloc" ]

let test_trace_monotone_per_thread () =
  let tr, _ = traced_run () in
  let last = Hashtbl.create 8 in
  List.iter
    (fun (e : Event.t) ->
      (match Hashtbl.find_opt last e.Event.tid with
      | Some prev -> check "timestamps monotone per thread" true (e.Event.ts >= prev)
      | None -> ());
      Hashtbl.replace last e.Event.tid e.Event.ts)
    (Trace.events tr);
  check "saw several threads" true (Hashtbl.length last >= 2)

let test_trace_metrics_populated () =
  let tr, r = traced_run () in
  let m = Trace.metrics tr in
  check "registry populated" false (Metrics.is_empty m);
  let counters = Metrics.counters m in
  let value name = Option.value ~default:0 (List.assoc_opt name counters) in
  check_int "fault counter matches report" r.Runner.report.Machine.faults (value "hw.faults");
  check "fault roundtrips histogrammed" true
    (List.mem_assoc "fault.roundtrip_cycles" (Metrics.histograms m))

(* The trace's [sampling.skipped_accesses] counter is the run's stat
   of the same name, published once at run end — a block op's whole
   [count] lands in both, not one tick per op. *)
let test_trace_skipped_counter () =
  let tr = Trace.create () in
  let config = { Kard_core.Config.default with Kard_core.Config.sampling = 0.25 } in
  let r =
    Runner.run ~trace:tr ~scale:0.003 ~seed:42 ~detector:(Runner.Kard config)
      (Runner.Spec (Registry.find "memcached"))
  in
  let skipped = (Option.get r.Runner.kard_stats).Kard_core.Detector.skipped_accesses in
  check "accesses skipped" true (skipped > 0);
  check_int "counter equals the stat" skipped
    (Option.value ~default:0
       (List.assoc_opt "sampling.skipped_accesses" (Metrics.counters (Trace.metrics tr))))

(* {1 Chrome trace export} *)

(* Structural JSON validity: balanced braces/brackets outside strings,
   terminated strings, no raw control characters. *)
let json_well_formed s =
  let depth = ref 0 in
  let in_str = ref false in
  let esc = ref false in
  let ok = ref true in
  String.iter
    (fun c ->
      if !in_str then
        if !esc then esc := false
        else if c = '\\' then esc := true
        else if c = '"' then in_str := false
        else if Char.code c < 0x20 then ok := false
      else
        match c with
        | '"' -> in_str := true
        | '{' | '[' -> incr depth
        | '}' | ']' ->
          decr depth;
          if !depth < 0 then ok := false
        | _ -> ())
    s;
  !ok && !depth = 0 && not !in_str

let contains haystack needle =
  let n = String.length needle in
  let rec find i =
    i + n <= String.length haystack && (String.sub haystack i n = needle || find (i + 1))
  in
  find 0

let test_chrome_export () =
  let tr, _ = traced_run () in
  let json = Chrome_trace.to_json ~t:tr in
  check "well formed" true (json_well_formed json);
  check "trace events array" true (contains json "\"traceEvents\":[");
  check "thread metadata" true (contains json "\"thread_name\"");
  check "runtime track" true (contains json "\"runtime\"");
  check "async span begin" true (contains json "\"ph\":\"b\"");
  check "async span end" true (contains json "\"ph\":\"e\"");
  check "instants" true (contains json "\"ph\":\"i\"");
  check "counter track" true (contains json "\"ph\":\"C\"");
  List.iter
    (fun cat -> check ("category " ^ cat) true (contains json ("\"cat\":\"" ^ cat ^ "\"")))
    [ "lock"; "fault"; "pkey"; "alloc" ]

let test_chrome_export_empty () =
  let tr = Trace.create () in
  check "empty trace still valid" true (json_well_formed (Chrome_trace.to_json ~t:tr))

(* {1 The zero-cost no-op sink} *)

let test_tracing_costs_no_cycles () =
  let spec = Registry.find "aget" in
  let detector = Runner.Kard (Kard_harness.Defaults.kard_config ()) in
  let plain = Runner.run ~scale:0.002 ~seed:7 ~detector (Runner.Spec spec) in
  let traced =
    Runner.run ~trace:(Trace.create ()) ~scale:0.002 ~seed:7 ~detector (Runner.Spec spec)
  in
  let p = plain.Runner.report and t = traced.Runner.report in
  check_int "identical cycles" p.Machine.cycles t.Machine.cycles;
  check_int "identical wall cycles" p.Machine.wall_cycles t.Machine.wall_cycles;
  check_int "identical faults" p.Machine.faults t.Machine.faults;
  check_int "identical steps" p.Machine.steps t.Machine.steps;
  check_int "identical rss" p.Machine.rss_bytes t.Machine.rss_bytes

let test_step_events_off_by_default () =
  let tr, _ = traced_run () in
  check "no step events unless asked" false
    (List.mem_assoc "step" (Trace.category_counts tr))

let () =
  Alcotest.run "kard_obs"
    [ ( "ring",
        [ Alcotest.test_case "basic" `Quick test_ring_basic;
          Alcotest.test_case "wraps" `Quick test_ring_wraps;
          Alcotest.test_case "bad capacity" `Quick test_ring_rejects_bad_capacity ] );
      ( "metrics",
        [ Alcotest.test_case "counters" `Quick test_metrics_counters;
          Alcotest.test_case "histogram" `Quick test_metrics_histogram;
          Alcotest.test_case "constant histogram" `Quick test_metrics_constant_histogram ] );
      ( "window",
        [ Alcotest.test_case "bucket error bound" `Quick test_window_buckets;
          Alcotest.test_case "rows" `Quick test_window_rows;
          Alcotest.test_case "known percentiles" `Quick test_window_percentiles_known;
          Alcotest.test_case "determinism" `Quick test_window_determinism ] );
      ( "span",
        [ Alcotest.test_case "lifecycle" `Quick test_span_lifecycle ] );
      ( "snapshot",
        [ Alcotest.test_case "of_metrics" `Quick test_snapshot_of_metrics ] );
      ( "trace",
        [ Alcotest.test_case "categories" `Slow test_trace_categories;
          Alcotest.test_case "monotone per thread" `Slow test_trace_monotone_per_thread;
          Alcotest.test_case "metrics populated" `Slow test_trace_metrics_populated;
          Alcotest.test_case "skipped counter equals the stat" `Slow test_trace_skipped_counter;
          Alcotest.test_case "steps off by default" `Slow test_step_events_off_by_default ] );
      ( "chrome",
        [ Alcotest.test_case "export" `Slow test_chrome_export;
          Alcotest.test_case "empty export" `Quick test_chrome_export_empty ] );
      ( "zero-cost",
        [ Alcotest.test_case "no cycles charged" `Slow test_tracing_costs_no_cycles ] ) ]
