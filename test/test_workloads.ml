(* Tests for the workload catalog: every model must build, run to
   completion under every detector, reproduce its structural
   statistics, and be race-free (benchmarks) or exhibit exactly its
   documented races (real-world applications). *)

module Spec = Kard_workloads.Spec
module Registry = Kard_workloads.Registry
module Runner = Kard_harness.Runner
module Machine = Kard_sched.Machine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tiny_scale = 0.002

(* The documented-race assertions below count exact detections, so
   they pin the sampling rate at 1.0 (the identity — DESIGN.md §12):
   under an ambient $KARD_SAMPLING the races would legitimately be
   sampled out.  The $KARD_VKEYS knob still applies. *)
let full_kard () =
  { (Kard_harness.Defaults.kard_config ()) with Kard_core.Config.sampling = 1.0 }

(* {1 Catalog shape} *)

let test_registry_complete () =
  check_int "15 benchmarks" 15 (List.length Registry.benchmarks);
  check_int "4 real-world applications" 4 (List.length Registry.real_world);
  check_int "19 total" 19 (List.length Registry.all);
  let names = Registry.names in
  check "names unique" true
    (List.length names = List.length (List.sort_uniq String.compare names))

let test_registry_find () =
  check "finds nginx" true ((Registry.find "nginx").Spec.name = "nginx");
  check "unknown raises" true
    (try
       ignore (Registry.find "doom");
       false
     with Not_found -> true)

(* {1 Every workload completes under every detector} *)

let completion_case (spec : Spec.t) =
  Alcotest.test_case spec.Spec.name `Slow (fun () ->
      List.iter
        (fun detector ->
          let r = Runner.run ~scale:tiny_scale ~detector (Runner.Spec spec) in
          check "made progress" true (r.Runner.report.Machine.cycles > 0))
        [ Runner.Baseline; Runner.Alloc; Runner.Kard (Kard_harness.Defaults.kard_config ()); Runner.Tsan ])

(* {1 Benchmarks are race-free under Kard} *)

let race_free_case (spec : Spec.t) =
  Alcotest.test_case spec.Spec.name `Slow (fun () ->
      let r =
        Runner.run ~scale:tiny_scale ~detector:(Runner.Kard (Kard_harness.Defaults.kard_config ()))
          (Runner.Spec spec)
      in
      check_int "no ILU records" 0 (List.length r.Runner.kard_ilu_races))

(* {1 Structural statistics match the paper's columns} *)

let test_structure_sites () =
  List.iter
    (fun (name, expected_sites) ->
      let spec = Registry.find name in
      let r = Runner.run ~scale:tiny_scale ~detector:Runner.Baseline (Runner.Spec spec) in
      check_int (name ^ " unique sections") expected_sites r.Runner.report.Machine.unique_sections)
    [ ("streamcluster", 6); ("x264", 2); ("raytrace", 8); ("lu_ncb", 6); ("fft", 8) ]

let test_structure_scaling () =
  (* Entries scale with the factor; structure (sites) does not. *)
  let spec = Registry.find "raytrace" in
  let small = Runner.run ~scale:0.002 ~detector:Runner.Baseline (Runner.Spec spec) in
  let large = Runner.run ~scale:0.01 ~detector:Runner.Baseline (Runner.Spec spec) in
  check "entries grow with scale" true
    (large.Runner.report.Machine.cs_entries > small.Runner.report.Machine.cs_entries);
  check_int "sites stable" small.Runner.report.Machine.unique_sections
    large.Runner.report.Machine.unique_sections

let test_determinism () =
  let spec = Registry.find "pigz" in
  let r1 = Runner.run ~scale:tiny_scale ~seed:9 ~detector:Runner.Baseline (Runner.Spec spec) in
  let r2 = Runner.run ~scale:tiny_scale ~seed:9 ~detector:Runner.Baseline (Runner.Spec spec) in
  check_int "same seed, same cycles" r1.Runner.report.Machine.cycles
    r2.Runner.report.Machine.cycles

(* {1 The documented real-world races (Table 6)} *)

let distinct_objs races =
  List.length
    (List.sort_uniq compare
       (List.map (fun (r : Kard_core.Race_record.t) -> r.Kard_core.Race_record.obj_id) races))

let app_race_case name expected =
  Alcotest.test_case name `Slow (fun () ->
      let spec = Registry.find name in
      let r = Runner.run ~scale:0.01 ~detector:(Runner.Kard (full_kard ())) (Runner.Spec spec) in
      check_int "racy objects" expected (distinct_objs r.Runner.kard_races))

let test_pigz_fp_is_not_seen_by_tsan () =
  let spec = Registry.find "pigz" in
  let r = Runner.run ~scale:0.01 ~detector:Runner.Tsan (Runner.Spec spec) in
  check_int "granule detector sees nothing" 0 (List.length r.Runner.tsan_races)

let test_aget_race_is_the_counter () =
  let spec = Registry.find "aget" in
  let r = Runner.run ~scale:0.01 ~detector:(Runner.Kard (full_kard ())) (Runner.Spec spec) in
  match r.Runner.kard_ilu_races with
  | race :: _ ->
    check "faulting side is the lock-free reader" true
      (race.Kard_core.Race_record.faulting.Kard_core.Race_record.section = None
      || List.exists
           (fun (h : Kard_core.Race_record.side) -> h.Kard_core.Race_record.section = None)
           race.Kard_core.Race_record.holding)
  | [] -> Alcotest.fail "expected the byte-counter race"

(* {1 Workload builder helpers} *)

let test_builder_scale_factor () =
  let f = Kard_workloads.Builder.scale_factor ~scale:0.01 ~entries:100 ~min_entries:200 in
  check "floor keeps all entries" true (f = 1.0);
  let f2 = Kard_workloads.Builder.scale_factor ~scale:0.01 ~entries:1_000_000 ~min_entries:200 in
  check "large workloads scale" true (f2 = 0.01)

let test_builder_scaled () =
  check_int "rounds" 3 (Kard_workloads.Builder.scaled 0.01 250);
  check_int "never below one" 1 (Kard_workloads.Builder.scaled 0.0001 10);
  check_int "zero stays zero" 0 (Kard_workloads.Builder.scaled 0.5 0)

let test_synth_effective_entries () =
  let p = { Kard_workloads.Synth.default with Kard_workloads.Synth.entries = 1000; min_entries = 100 } in
  check_int "scaled" 100 (Kard_workloads.Synth.effective_entries p ~scale:0.1);
  check_int "floored" 100 (Kard_workloads.Synth.effective_entries p ~scale:0.001)

(* {1 Lock-free benchmarks: the section 7.2 no-overhead claim} *)

let lockfree_case (spec : Spec.t) =
  Alcotest.test_case spec.Spec.name `Slow (fun () ->
      let kard =
        Runner.run ~scale:tiny_scale ~detector:(Runner.Kard (Kard_harness.Defaults.kard_config ()))
          (Runner.Spec spec)
      in
      check_int "no critical sections" 0 kard.Runner.report.Machine.cs_entries;
      check_int "no faults" 0 kard.Runner.report.Machine.faults;
      check_int "no races" 0 (List.length kard.Runner.kard_races);
      check_int "nothing identified" 0 (kard.Runner.kard_unique_ro + kard.Runner.kard_unique_rw))

(* {1 Random profiles: the detector never deadlocks, never reports a
   false race on a consistently-locked workload} *)

let profile_gen =
  let open QCheck.Gen in
  let* heap_objects = int_range 0 60 in
  let* globals = int_range 0 20 in
  let* sites = int_range 1 12 in
  let* locks = int_range 1 sites in
  let* entries = int_range 20 120 in
  let* shared_rw = int_range 0 10 in
  let* shared_ro = int_range 0 10 in
  let* rw_writes = int_range 0 3 in
  let* ro_reads = int_range 0 3 in
  let* churn = oneofl [ 0.; 0.1; 1.0 ] in
  let* block = oneofl [ 0; 500 ] in
  return
    { Kard_workloads.Synth.default with
      Kard_workloads.Synth.heap_objects;
      globals;
      sites;
      locks;
      entries;
      shared_rw;
      shared_ro;
      rw_writes_per_entry = rw_writes;
      ro_reads_per_entry = ro_reads;
      churn_per_entry = churn;
      block_accesses = block;
      compute = 500;
      min_entries = 20 }

let random_profile_prop =
  QCheck.Test.make ~name:"random partitioned profiles are race-free under kard" ~count:60
    (QCheck.make ~print:(fun _ -> "<profile>") profile_gen)
    (fun profile ->
      let cell = ref None in
      let machine =
        Kard_sched.Machine.create ~seed:5 ~allocator:Machine.Unique_page
          ~make_detector:(Kard_core.Detector.make ~cell)
          ()
      in
      Kard_workloads.Synth.build profile ~threads:3 ~scale:1.0 ~seed:5 machine;
      let (_ : Machine.report) = Kard_sched.Machine.run machine in
      Kard_core.Detector.ilu_races (Option.get !cell) = [])

let random_profile_all_detectors_prop =
  QCheck.Test.make ~name:"random profiles complete under every detector" ~count:20
    (QCheck.make ~print:(fun _ -> "<profile>") profile_gen)
    (fun profile ->
      List.for_all
        (fun detector ->
          let spec =
            { Spec.name = "prop";
              category = Spec.Parsec;
              description = "";
              paper = (Registry.find "fft").Spec.paper;
              default_threads = 3;
              build =
                (fun ~threads ~scale ~seed machine ->
                  Kard_workloads.Synth.build profile ~threads ~scale ~seed machine) }
          in
          let r = Runner.run ~scale:1.0 ~detector (Runner.Spec spec) in
          r.Runner.report.Machine.cycles > 0)
        [ Runner.Baseline; Runner.Tsan; Runner.Lockset ])

let () =
  Alcotest.run "kard_workloads"
    [ ( "catalog",
        [ Alcotest.test_case "complete" `Quick test_registry_complete;
          Alcotest.test_case "find" `Quick test_registry_find ] );
      ("completion", List.map completion_case Registry.all);
      ("race-free benchmarks", List.map race_free_case Registry.benchmarks);
      ( "structure",
        [ Alcotest.test_case "site counts" `Slow test_structure_sites;
          Alcotest.test_case "scaling" `Slow test_structure_scaling;
          Alcotest.test_case "determinism" `Slow test_determinism ] );
      ( "real-world races",
        [ app_race_case "aget" 1;
          app_race_case "memcached" 3;
          app_race_case "nginx" 1;
          app_race_case "pigz" 1;
          Alcotest.test_case "pigz FP invisible to tsan" `Slow test_pigz_fp_is_not_seen_by_tsan;
          Alcotest.test_case "aget race identity" `Slow test_aget_race_is_the_counter ] );
      ("lock-free", List.map lockfree_case Kard_workloads.Registry.lock_free);
      ( "properties",
        [ QCheck_alcotest.to_alcotest random_profile_prop;
          QCheck_alcotest.to_alcotest random_profile_all_detectors_prop ] );
      ( "builder",
        [ Alcotest.test_case "scale factor" `Quick test_builder_scale_factor;
          Alcotest.test_case "scaled" `Quick test_builder_scaled;
          Alcotest.test_case "effective entries" `Quick test_synth_effective_entries ] ) ]
