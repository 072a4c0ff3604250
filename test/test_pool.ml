(* Tests for the job/plan/pool layer: plan composition, the
   deterministic error policy, the serial degenerate path, and the
   parallel-vs-serial oracle — bit-identical tables, summaries and
   JSON reports at any worker count. *)

module Defaults = Kard_harness.Defaults
module Job = Kard_harness.Job
module Pool = Kard_harness.Pool
module Runner = Kard_harness.Runner
module Experiments = Kard_harness.Experiments
module Explorer = Kard_harness.Explorer
module Json_report = Kard_harness.Json_report
module Registry = Kard_workloads.Registry
module Race_suite = Kard_workloads.Race_suite

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_ints = Alcotest.(check (list int))

(* Fast settings: the oracle cares about equality, not fidelity. *)
let scale = 0.002

(* {1 Pool mechanics} *)

let test_map_order () =
  let items = List.init 37 (fun i -> i) in
  List.iter
    (fun jobs ->
      check_ints
        (Printf.sprintf "submission order at jobs=%d" jobs)
        (List.map (fun i -> i * i) items)
        (Pool.map ~jobs (fun i -> i * i) items))
    [ 1; 2; 4; 8 ]

let test_map_empty_and_singleton () =
  check_ints "empty" [] (Pool.map ~jobs:4 (fun i -> i) []);
  check_ints "singleton" [ 7 ] (Pool.map ~jobs:4 (fun i -> i) [ 7 ])

let test_resolve_jobs () =
  check_int "explicit" 3 (Pool.resolve_jobs (Some 3));
  check_int "clamped to 1" 1 (Pool.resolve_jobs (Some 0));
  check "default >= 1" true (Pool.resolve_jobs None >= 1)

(* [~jobs:1] (and a singleton input at any [jobs]) is the inline fast
   path: every item runs on the caller's domain, no [Domain.spawn].
   Cheap sweeps and tests rely on this staying truly serial. *)
let test_jobs1_runs_inline () =
  let caller = Domain.self () in
  let seen = ref [] in
  let f i =
    seen := Domain.self () :: !seen;
    i
  in
  check_ints "jobs=1 maps" [ 0; 1; 2; 3 ] (Pool.map ~jobs:1 f [ 0; 1; 2; 3 ]);
  check "all on caller's domain" true (List.for_all (fun d -> d = caller) !seen);
  seen := [];
  check_ints "singleton at jobs=8" [ 5 ] (Pool.map ~jobs:8 f [ 5 ]);
  check "singleton on caller's domain" true (!seen = [ caller ])

(* Inline error semantics: the serial path stops at the first failing
   item — items after it are never evaluated — and the raised
   [Job_failed] carries that item's index and label. *)
let test_jobs1_error_semantics () =
  let executed = ref [] in
  let f i =
    executed := i :: !executed;
    if i = 3 then failwith "boom";
    i
  in
  (match Pool.map ~jobs:1 ~label:(fun i _ -> Printf.sprintf "item-%d" i) f (List.init 8 Fun.id) with
  | (_ : int list) -> Alcotest.fail "expected Job_failed"
  | exception Pool.Job_failed { index; label; message } ->
    check_int "failing index" 3 index;
    check "custom label" true (label = "item-3");
    check "message carries the exception" true
      (String.length message > 0 && String.sub message 0 (String.length "Failure") = "Failure"));
  check_ints "items after the failure never ran" [ 0; 1; 2; 3 ] (List.rev !executed)

(* A crash surfaces as [Job_failed] carrying the *smallest* failing
   submission index, at every worker count — the error a user sees
   must not depend on scheduling. *)
let test_crash_smallest_index () =
  let f i = if i mod 5 = 3 then failwith (Printf.sprintf "boom %d" i) else i in
  List.iter
    (fun jobs ->
      match Pool.map ~jobs f (List.init 20 (fun i -> i)) with
      | (_ : int list) -> Alcotest.fail "expected Job_failed"
      | exception Pool.Job_failed { index; label; message } ->
        check_int (Printf.sprintf "smallest failing index at jobs=%d" jobs) 3 index;
        check "label is the default index label" true (label = "#3");
        check "message carries the exception" true
          (String.length message >= String.length "boom 3"
          && String.sub message 0 (String.length "Failure") = "Failure"))
    [ 1; 2; 8 ]

(* {1 Plan composition} *)

let ( let+ ), ( and+ ) = Pool.(( let+ ), ( and+ ))

(* Cheap leaves: race scenarios, told apart by seed. *)
let leaf ?(detector = Runner.Tsan) seed =
  Job.make ~seed detector (Runner.Scenario (Race_suite.find "ilu-lock-lock"))

(* An [all] of [and+] pairs of [all]s, with an empty [all] inside, over
   leaves seeded 1..6 left to right. *)
let nested () =
  let part seeds = Pool.all (List.map (fun seed -> Pool.job (leaf seed)) seeds) in
  Pool.all
    [ (let+ a = part [ 1; 2 ] and+ b = part [ 3 ] in
       (a, b));
      (let+ a = part [] and+ b = part [ 4; 5; 6 ] in
       (a, b)) ]

(* Each sub-plan gets exactly its own jobs' results: the nested value
   equals running every leaf alone, at any worker count. *)
let test_nested_plan () =
  let alone seeds = List.map (fun seed -> Job.run (leaf seed)) seeds in
  let expected = [ (alone [ 1; 2 ], alone [ 3 ]); (alone [], alone [ 4; 5; 6 ]) ] in
  List.iter
    (fun jobs ->
      check (Printf.sprintf "nested plan at jobs=%d" jobs) true
        (Pool.execute ~jobs (nested ()) = expected))
    [ 1; 4 ]

let test_jobs_left_to_right () =
  check_ints "leaves in order" [ 1; 2; 3; 4; 5; 6 ]
    (List.map (fun (j : Job.t) -> j.Job.seed) (Pool.jobs (nested ())))

(* A leaf whose detector config is invalid fails at [Detector.create];
   its [Job_failed] index is its position in [Pool.jobs], whatever the
   nesting and the worker count. *)
let test_failing_leaf_index () =
  let bad =
    leaf ~detector:(Runner.Kard { Kard_core.Config.default with Kard_core.Config.data_keys = 0 }) 9
  in
  let plan =
    Pool.all
      [ (let+ a = Pool.job (leaf 1) and+ b = Pool.all [ Pool.job (leaf 2); Pool.job bad ] in
         a :: b);
        Pool.all [ Pool.job (leaf 3) ] ]
  in
  check_ints "the bad leaf is third" [ 1; 2; 9; 3 ]
    (List.map (fun (j : Job.t) -> j.Job.seed) (Pool.jobs plan));
  List.iter
    (fun jobs ->
      match Pool.execute ~jobs plan with
      | (_ : Runner.result list list) -> Alcotest.fail "expected Job_failed"
      | exception Pool.Job_failed { index; label; _ } ->
        check_int (Printf.sprintf "index at jobs=%d" jobs) 2 index;
        Alcotest.(check string) "label" (Job.describe bad) label)
    [ 1; 4 ]

let test_all_empty () =
  check_int "no leaves" 0 (List.length (Pool.jobs (Pool.all [])));
  check "empty value" true (Pool.execute ~jobs:4 (Pool.all []) = []);
  check_int "a mapped empty plan still runs nothing" 0
    (Pool.execute (let+ l = Pool.all [] in List.length l))

(* {1 Cross-run isolation (the shared-state audit's regression test)} *)

(* Two identical jobs racing on the pool must produce identical
   reports: any cross-run shared mutable state would show up here as a
   divergence (or a crash). *)
let test_concurrent_identical_jobs () =
  let job =
    Job.make ~scale ~seed:7 (Runner.Kard (Defaults.kard_config ()))
      (Runner.Spec (Registry.find "aget"))
  in
  match Pool.run_jobs ~jobs:2 [ job; job ] with
  | [ a; b ] ->
    check "identical reports" true (a = b);
    check_int "same cycles" a.Runner.report.Kard_sched.Machine.cycles
      b.Runner.report.Kard_sched.Machine.cycles
  | _ -> Alcotest.fail "expected two results"

(* {1 Parallel-vs-serial oracles} *)

(* Untraced [Runner.result] values are closure-free, so [=] compares
   every counter, race record and baseline warning. *)
let test_run_jobs_oracle () =
  let spec = Registry.find "aget" in
  let jobs =
    List.concat_map
      (fun seed ->
        [ Job.make ~scale ~seed Runner.Baseline (Runner.Spec spec);
          Job.make ~scale ~seed (Runner.Kard (Defaults.kard_config ())) (Runner.Spec spec) ])
      [ 1; 2; 3 ]
  in
  let serial = Pool.run_jobs ~jobs:1 jobs in
  let par = Pool.run_jobs ~jobs:4 jobs in
  check "results identical at jobs 1 vs 4" true (serial = par)

let test_table3_oracle () =
  let specs = [ Registry.find "aget"; Registry.find "streamcluster" ] in
  let serial = Pool.execute ~jobs:1 (Experiments.table3_plan ~scale ~specs ()) in
  let par = Pool.execute ~jobs:4 (Experiments.table3_plan ~scale ~specs ()) in
  check_int "same row count" (List.length serial) (List.length par);
  (* [t3_row.spec] holds build closures, so compare the result fields
     (all closure-free) rather than whole rows. *)
  List.iter2
    (fun (s : Experiments.t3_row) (p : Experiments.t3_row) ->
      check "spec name" true (s.Experiments.spec.Kard_workloads.Spec.name
                             = p.Experiments.spec.Kard_workloads.Spec.name);
      check "base" true (s.Experiments.base = p.Experiments.base);
      check "alloc" true (s.Experiments.alloc = p.Experiments.alloc);
      check "kard" true (s.Experiments.kard = p.Experiments.kard);
      check "tsan" true (s.Experiments.tsan = p.Experiments.tsan))
    serial par

(* An [all] of plans hands each plan exactly its own results: the
   same values as executing the plans one by one, at any worker
   count, in the given order. *)
let test_all_oracle () =
  let sweep name seeds = Explorer.explore_scenario_plan ~seeds (Race_suite.find name) in
  let plans = [ sweep "ilu-lock-lock" [ 1; 2; 3 ]; sweep "small-cs-race" [ 4; 5 ] ] in
  let one_by_one = List.map (Pool.execute ~jobs:1) plans in
  List.iter
    (fun jobs ->
      check (Printf.sprintf "all at jobs=%d" jobs) true
        (Pool.execute ~jobs (Pool.all plans) = one_by_one))
    [ 1; 4 ]

let test_explorer_oracle () =
  let scenario = Race_suite.find "ilu-lock-lock" in
  let seeds = [ 1; 2; 3; 4; 5; 6 ] in
  let serial = Pool.execute ~jobs:1 (Explorer.explore_scenario_plan ~seeds scenario) in
  let par = Pool.execute ~jobs:4 (Explorer.explore_scenario_plan ~seeds scenario) in
  check "summaries identical" true (serial = par);
  check_ints "outcomes in seed order" seeds
    (List.map (fun o -> o.Explorer.seed) par.Explorer.outcomes)

(* The strongest form of the contract: the rendered JSON reports are
   byte-for-byte identical, not just structurally equal. *)
let test_json_byte_identical () =
  let spec = Registry.find "aget" in
  let jobs =
    List.map
      (fun seed -> Job.make ~scale ~seed (Runner.Kard (Defaults.kard_config ())) (Runner.Spec spec))
      [ 1; 2; 3; 4 ]
  in
  let render results =
    String.concat "\n" (List.map (fun r -> Json_report.pretty (Json_report.of_result r)) results)
  in
  Alcotest.(check string)
    "JSON byte-for-byte at jobs 1 vs 4"
    (render (Pool.run_jobs ~jobs:1 jobs))
    (render (Pool.run_jobs ~jobs:4 jobs))

(* Traced jobs: the sink is created inside the executing worker, and
   the exported Chrome trace must not depend on the worker count. *)
let test_trace_oracle () =
  let spec = Registry.find "aget" in
  let jobs =
    List.map
      (fun seed ->
        Job.make ~scale ~seed
          ~trace:(Job.trace_request ~capacity:4096 ())
          (Runner.Kard (Defaults.kard_config ())) (Runner.Spec spec))
      [ 1; 2 ]
  in
  let export results =
    List.map
      (fun r -> Kard_obs.Chrome_trace.to_json ~t:(Option.get r.Runner.trace))
      results
  in
  Alcotest.(check (list string))
    "exported traces identical at jobs 1 vs 2"
    (export (Pool.run_jobs ~jobs:1 jobs))
    (export (Pool.run_jobs ~jobs:2 jobs))

(* {1 Job construction & defaults} *)

let test_job_defaults () =
  let job = Job.make (Runner.Kard (Defaults.kard_config ())) (Runner.Spec (Registry.find "aget")) in
  let r = Job.run job in
  check "default scale" true (r.Runner.scale = Defaults.scale);
  check_int "default seed" Defaults.seed r.Runner.seed;
  check "no trace unless requested" true (r.Runner.trace = None)

let test_job_describe () =
  let job = Job.make ~seed:9 Runner.Tsan (Runner.Spec (Registry.find "aget")) in
  Alcotest.(check string) "describe" "aget/tsan/seed=9" (Job.describe job)

let test_defaults_jobs_env () =
  check "defaults" true (Defaults.scale = 0.01 && Defaults.seed = 42);
  check_int "explorer seeds 1..20" 20 (List.length Defaults.explorer_seeds);
  check_int "first explorer seed" 1 (List.hd Defaults.explorer_seeds)

let () =
  Alcotest.run "pool"
    [ ( "pool",
        [ Alcotest.test_case "map preserves submission order" `Quick test_map_order;
          Alcotest.test_case "map empty/singleton" `Quick test_map_empty_and_singleton;
          Alcotest.test_case "resolve_jobs" `Quick test_resolve_jobs;
          Alcotest.test_case "jobs=1 runs inline" `Quick test_jobs1_runs_inline;
          Alcotest.test_case "jobs=1 error semantics" `Quick test_jobs1_error_semantics;
          Alcotest.test_case "crash reports smallest index" `Quick test_crash_smallest_index ] );
      ( "plan",
        [ Alcotest.test_case "nested plan equals each leaf alone" `Quick test_nested_plan;
          Alcotest.test_case "jobs lists leaves left to right" `Quick test_jobs_left_to_right;
          Alcotest.test_case "failing leaf's index" `Quick test_failing_leaf_index;
          Alcotest.test_case "all [] runs nothing" `Quick test_all_empty ] );
      ( "isolation",
        [ Alcotest.test_case "concurrent identical jobs" `Slow test_concurrent_identical_jobs ] );
      ( "oracle",
        [ Alcotest.test_case "run_jobs jobs 1 vs 4" `Slow test_run_jobs_oracle;
          Alcotest.test_case "table3 jobs 1 vs 4" `Slow test_table3_oracle;
          Alcotest.test_case "explorer jobs 1 vs 4" `Slow test_explorer_oracle;
          Alcotest.test_case "all jobs 1 vs 4" `Slow test_all_oracle;
          Alcotest.test_case "json byte-for-byte" `Slow test_json_byte_identical;
          Alcotest.test_case "traces identical" `Slow test_trace_oracle ] );
      ( "job",
        [ Alcotest.test_case "defaults" `Slow test_job_defaults;
          Alcotest.test_case "describe" `Quick test_job_describe;
          Alcotest.test_case "defaults module" `Quick test_defaults_jobs_env ] ) ]
