(* Tests for the open-loop serving stack: arrival-process determinism,
   the serve sweep's cross-jobs reproducibility, and the
   goodput-under-SLO computation. *)

module Openloop = Kard_workloads.Openloop
module Experiments = Kard_harness.Experiments
module Pool = Kard_harness.Pool
module Runner = Kard_harness.Runner
module Json = Kard_harness.Json_report
module Window = Kard_obs.Window
module Snapshot = Kard_obs.Snapshot

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* {1 Arrival processes} *)

let test_arrivals_deterministic () =
  let a = Openloop.arrivals ~model:Openloop.Poisson ~seed:42 ~rate:12.0 ~count:500 in
  let b = Openloop.arrivals ~model:Openloop.Poisson ~seed:42 ~rate:12.0 ~count:500 in
  check "pure function of (seed, rate)" true (a = b);
  (* A longer timetable at the same (seed, rate) extends, not reshuffles:
     saturation sweeps replay identical prefixes. *)
  let longer = Openloop.arrivals ~model:Openloop.Poisson ~seed:42 ~rate:12.0 ~count:800 in
  check "prefix stable under count" true (Array.sub longer 0 500 = a);
  let other_seed = Openloop.arrivals ~model:Openloop.Poisson ~seed:43 ~rate:12.0 ~count:500 in
  check "seed matters" false (a = other_seed);
  let other_rate = Openloop.arrivals ~model:Openloop.Poisson ~seed:42 ~rate:24.0 ~count:500 in
  check "rate matters" false (a = other_rate);
  let bursty =
    Openloop.arrivals ~model:Openloop.default_bursty ~seed:42 ~rate:12.0 ~count:500
  in
  check "model matters" false (a = bursty);
  check "bursty deterministic too" true
    (bursty = Openloop.arrivals ~model:Openloop.default_bursty ~seed:42 ~rate:12.0 ~count:500)

let test_arrivals_shape () =
  let a = Openloop.arrivals ~model:Openloop.Poisson ~seed:7 ~rate:20.0 ~count:2_000 in
  check_int "count honoured" 2_000 (Array.length a);
  let monotone = ref true in
  Array.iteri (fun i t -> if i > 0 && t < a.(i - 1) then monotone := false) a;
  check "non-decreasing" true !monotone;
  (* 2000 arrivals at 20 r/Mcy should span roughly 100 Mcy; the seeded
     draw lands well within 3x either way. *)
  let span = float_of_int a.(Array.length a - 1) in
  check "span near count/rate" true (span > 33e6 && span < 300e6);
  check "zero count fine" true (Openloop.arrivals ~model:Openloop.Poisson ~seed:1 ~rate:1.0 ~count:0 = [||]);
  let rejects f = try ignore (f () : int array); false with Invalid_argument _ -> true in
  check "rate 0 rejected" true
    (rejects (fun () -> Openloop.arrivals ~model:Openloop.Poisson ~seed:1 ~rate:0.0 ~count:1));
  check "negative count rejected" true
    (rejects (fun () -> Openloop.arrivals ~model:Openloop.Poisson ~seed:1 ~rate:1.0 ~count:(-1)))

let test_spec_names () =
  check_string "nginx exemplar" "serve-nginx:poisson:r12" Openloop.nginx.Kard_workloads.Spec.name;
  check_string "memcached exemplar" "serve-memcached:poisson:r24"
    Openloop.memcached.Kard_workloads.Spec.name;
  check "registered in the extended registry" true
    (List.exists
       (fun s -> s.Kard_workloads.Spec.name = "serve-nginx:poisson:r12")
       Kard_workloads.Registry.extended)

(* {1 Goodput under SLO} *)

let zero_window =
  { Window.w_start = 0; count = 0; max = 0; mean = 0.; p50 = 0; p95 = 0; p99 = 0; p999 = 0 }

let row detector rate p99 =
  { Experiments.sv_detector = detector;
    sv_rate = rate;
    sv_requests = 100;
    sv_cycles = 1_000_000;
    sv_achieved = rate;
    sv_latency = { zero_window with Window.count = 100; p99 };
    sv_snapshot = Snapshot.empty }

let test_goodput () =
  let rows =
    [ row "none" 8. 50_000; row "none" 16. 90_000; row "none" 32. 150_000;
      row "kard" 8. 80_000; row "kard" 16. 250_000; row "kard" 32. 400_000 ]
  in
  let g = Experiments.serve_goodput ~slo:200_000 rows in
  check "detector order is first appearance" true (List.map fst g = [ "none"; "kard" ]);
  check "none sustains the top rate" true (List.assoc "none" g = 32.);
  check "kard capped by its p99 knee" true (List.assoc "kard" g = 8.);
  (* Every rate missing the SLO yields 0, not an exception. *)
  let g2 = Experiments.serve_goodput ~slo:10_000 rows in
  check "all-miss is zero" true (List.assoc "kard" g2 = 0.);
  (* Rows with no served requests never count as meeting the SLO, even
     though their zeroed p99 is trivially under budget. *)
  let empty_row =
    { (row "none" 64. 0) with Experiments.sv_requests = 0; sv_latency = zero_window }
  in
  let g3 = Experiments.serve_goodput ~slo:200_000 (rows @ [ empty_row ]) in
  check "empty rows excluded" true (List.assoc "none" g3 = 32.)

(* {1 Sweep determinism across --jobs} *)

let sweep ~jobs =
  Pool.execute ~jobs
    (Experiments.serve_plan
       ~detectors:
         [ ("none", Runner.Baseline); ("kard", Runner.Kard (Kard_harness.Defaults.kard_config ())) ]
       ~rates:[ 10.0; 28.0 ] ~scale:0.01 ~seed:42 ())

let test_sweep_jobs_identical () =
  let serial = sweep ~jobs:1 in
  let parallel = sweep ~jobs:4 in
  (* The whole emitted benchmark file, byte for byte. *)
  let render s = Json.of_serve_sweep ~threads:4 ~scale:0.01 ~seed:42 s in
  check "JSON byte-identical across --jobs" true
    (String.equal (render serial) (render parallel));
  (* And the windowed-histogram contents specifically: every window row
     of every metric of every sweep point. *)
  List.iter2
    (fun (a : Experiments.serve_row) (b : Experiments.serve_row) ->
      check "windowed histograms identical" true
        (a.Experiments.sv_snapshot.Snapshot.windows = b.Experiments.sv_snapshot.Snapshot.windows))
    serial.Experiments.ss_rows parallel.Experiments.ss_rows

let test_sweep_shape () =
  let s = sweep ~jobs:2 in
  check_int "detectors x rates rows" 4 (List.length s.Experiments.ss_rows);
  List.iter
    (fun (r : Experiments.serve_row) ->
      check "every arrival served" true (r.Experiments.sv_requests > 0);
      check_int "latency samples = requests" r.Experiments.sv_requests
        r.Experiments.sv_latency.Window.count;
      check "achieved rate positive" true (r.Experiments.sv_achieved > 0.))
    s.Experiments.ss_rows;
  (* Detector-major, offered-rate-minor, in argument order. *)
  check "row order" true
    (List.map (fun r -> (r.Experiments.sv_detector, r.Experiments.sv_rate)) s.Experiments.ss_rows
     = [ ("none", 10.0); ("none", 28.0); ("kard", 10.0); ("kard", 28.0) ]);
  check "goodput covers both detectors" true
    (List.map fst s.Experiments.ss_goodput = [ "none"; "kard" ])

let () =
  Alcotest.run "kard_serve"
    [ ( "arrivals",
        [ Alcotest.test_case "deterministic" `Quick test_arrivals_deterministic;
          Alcotest.test_case "shape" `Quick test_arrivals_shape;
          Alcotest.test_case "spec names" `Quick test_spec_names ] );
      ( "goodput",
        [ Alcotest.test_case "under SLO" `Quick test_goodput ] );
      ( "sweep",
        [ Alcotest.test_case "jobs-identical" `Slow test_sweep_jobs_identical;
          Alcotest.test_case "shape" `Slow test_sweep_shape ] ) ]
