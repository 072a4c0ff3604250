(* The sampling layer (DESIGN.md §12): the policy's window arithmetic,
   the rate-1.0 identity oracle (byte-identical to the pre-sampling
   build at every jobs/vkeys combination), the soundness
   contract (a sampled run's reports are a subset of full Kard's on
   the same seed — delayed or missed, never invented), and a fuzz
   sweep under a forced sampling rate with zero unexpected
   divergences. *)

module Sampling = Kard_core.Sampling
module Config = Kard_core.Config
module Race_record = Kard_core.Race_record
module Pkey = Kard_mpk.Pkey
module Race_suite = Kard_workloads.Race_suite
module Keypressure = Kard_workloads.Keypressure
module Runner = Kard_harness.Runner
module Json_report = Kard_harness.Json_report
module Experiments = Kard_harness.Experiments
module Defaults = Kard_harness.Defaults
module Campaign = Kard_fuzz.Campaign

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* {1 The policy} *)

let test_create_validation () =
  let rejects rate epoch =
    try
      ignore (Sampling.create ~rate ~epoch_cycles:epoch ~seed:1);
      false
    with Invalid_argument _ -> true
  in
  check "rate 0 rejected" true (rejects 0.0 100);
  check "rate above 1 rejected" true (rejects 1.5 100);
  check "negative rate rejected" true (rejects (-0.5) 100);
  check "negative epoch rejected" true (rejects 0.5 (-1));
  check "rate 1 accepted and disabled" false
    (Sampling.enabled (Sampling.create ~rate:1.0 ~epoch_cycles:100 ~seed:1))

let test_identity_rate () =
  let t = Sampling.create ~rate:1.0 ~epoch_cycles:1_000 ~seed:99 in
  let all_true = ref true in
  for id = 0 to 999 do
    for epoch = 0 to 3 do
      if
        (not (Sampling.sampled_obj t ~epoch ~obj_id:id))
        || not (Sampling.sampled_section t ~epoch ~section:id)
      then all_true := false
    done
  done;
  check "rate 1.0 answers true everywhere" true !all_true

let population = 4_096

let sampled_set t ~epoch =
  let s = Hashtbl.create 512 in
  for id = 0 to population - 1 do
    if Sampling.sampled_obj t ~epoch ~obj_id:id then Hashtbl.replace s id ()
  done;
  s

let test_rate_fraction () =
  List.iter
    (fun rate ->
      let t = Sampling.create ~rate ~epoch_cycles:0 ~seed:7 in
      let n = Hashtbl.length (sampled_set t ~epoch:0) in
      let frac = float_of_int n /. float_of_int population in
      check
        (Printf.sprintf "fraction near rate %g (got %g)" rate frac)
        true
        (Float.abs (frac -. rate) < 0.05))
    [ 0.1; 0.25; 0.5; 0.75 ]

(* The sliding window: per-epoch membership churn stays far below an
   independent re-draw's 2*rate*(1-rate), and a revolution covers
   every id. *)
let test_window_churn_and_coverage () =
  let rate = 0.5 in
  let t = Sampling.create ~rate ~epoch_cycles:1 ~seed:13 in
  let churn_bound =
    (* 2 * min(rate, 1/128) of the population, with generous slack for
       hash placement variance. *)
    int_of_float (2.5 *. 2.0 /. 128.0 *. float_of_int population)
  in
  let prev = ref (sampled_set t ~epoch:0) in
  let max_churn = ref 0 in
  let covered = Hashtbl.create population in
  Hashtbl.iter (fun id () -> Hashtbl.replace covered id ()) !prev;
  for epoch = 1 to 160 do
    let cur = sampled_set t ~epoch in
    let churn = ref 0 in
    Hashtbl.iter (fun id () -> if not (Hashtbl.mem !prev id) then incr churn) cur;
    Hashtbl.iter (fun id () -> if not (Hashtbl.mem cur id) then incr churn) !prev;
    max_churn := max !max_churn !churn;
    Hashtbl.iter (fun id () -> Hashtbl.replace covered id ()) cur;
    prev := cur
  done;
  check
    (Printf.sprintf "churn per epoch bounded (max %d <= %d)" !max_churn churn_bound)
    true (!max_churn <= churn_bound);
  check_int "one revolution covers every id" population (Hashtbl.length covered)

let test_epoch_of () =
  let t = Sampling.create ~rate:0.5 ~epoch_cycles:1_000 ~seed:1 in
  check_int "epoch 0" 0 (Sampling.epoch_of t ~now:999);
  check_int "epoch 1" 1 (Sampling.epoch_of t ~now:1_000);
  check_int "epoch 41" 41 (Sampling.epoch_of t ~now:41_999);
  let frozen = Sampling.create ~rate:0.5 ~epoch_cycles:0 ~seed:1 in
  check_int "no rotation at epoch_cycles 0" 0 (Sampling.epoch_of frozen ~now:1_000_000)

(* {1 Whole runs: the rate-1.0 identity oracle} *)

let smoke_scale = 0.05

let full_config ~vkeys =
  { Config.default with Config.vkeys = (if vkeys then 64 else 0) }

let run_keys ?(sampling = 1.0) ~vkeys () =
  let config = { (full_config ~vkeys) with Config.sampling } in
  Runner.run ~scale:smoke_scale ~detector:(Runner.Kard config)
    Keypressure.keys_10k

let test_identity_oracle () =
  List.iter
    (fun vkeys ->
      let label = Printf.sprintf "vkeys=%b" vkeys in
      let base = run_keys ~vkeys () in
      let sampled = run_keys ~sampling:1.0 ~vkeys () in
      check (label ^ ": result byte-identical at rate 1.0") true (base = sampled);
      check (label ^ ": JSON byte-identical at rate 1.0") true
        (Json_report.of_result base = Json_report.of_result sampled))
    [ false; true ]

(* The sweep itself is deterministic across worker counts: the bench
   merge is a pure function of per-job results that are themselves
   byte-identical at any parallelism. *)
let smoke_sweep ~jobs =
  Experiments.sampling ~jobs
    ~scenarios:[ "ilu-lock-lock"; "exclusive-write" ]
    ~rates:[ 0.5; 1.0 ] ~seeds:[ 42; 43 ] ~serve_rates:[ 0.5 ] ~scale:0.02 ()

let test_sweep_jobs_identity () =
  let b1 = smoke_sweep ~jobs:1 and b4 = smoke_sweep ~jobs:4 in
  check "sampling sweep identical at 1 vs 4 jobs" true (b1 = b4);
  check "sampling JSON identical at 1 vs 4 jobs" true
    (Json_report.of_sampling_bench ~build:"test" ~threads:4 ~scale:0.02 ~seed:42 b1
    = Json_report.of_sampling_bench ~build:"test" ~threads:4 ~scale:0.02 ~seed:42 b4);
  check "every sweep row satisfies the subset property" true
    (List.for_all (fun r -> r.Experiments.sp_subset_ok) b1.Experiments.sp_rows)

(* {1 The soundness contract: sampled reports are a subset} *)

let race_objects (r : Runner.result) =
  List.sort_uniq compare
    (List.map (fun (x : Race_record.t) -> x.Race_record.obj_id) r.Runner.kard_races)

let subset a b = List.for_all (fun x -> List.mem x b) a

let test_subset_on_race_suite () =
  List.iter
    (fun (s : Race_suite.t) ->
      let run rate seed =
        let config =
          { s.Race_suite.config with Config.sampling = rate; sampling_epoch = 50_000 }
        in
        Runner.run_scenario ~seed ~override_config:config ~detector:(Runner.Kard config) s
      in
      List.iter
        (fun seed ->
          let full = race_objects (run 1.0 seed) in
          List.iter
            (fun rate ->
              let sampled = race_objects (run rate seed) in
              check
                (Printf.sprintf "%s seed %d rate %g: sampled races form a subset"
                   s.Race_suite.name seed rate)
                true (subset sampled full))
            [ 0.25; 0.5 ])
        [ 42; 43; 44 ])
    Race_suite.all

(* Detection latency is only defined when something was detected. *)
let test_first_race_cs () =
  let s = Race_suite.find "ilu-lock-lock" in
  let r =
    Runner.run_scenario ~seed:42 ~detector:(Runner.Kard s.Race_suite.config) s
  in
  match r.Runner.kard_stats with
  | None -> Alcotest.fail "kard run must report stats"
  | Some st ->
    if r.Runner.kard_races <> [] then
      check "first_race_cs set when a race is recorded" true
        (st.Kard_core.Detector.first_race_cs >= 0)
    else
      check_int "first_race_cs is -1 without a record" (-1)
        st.Kard_core.Detector.first_race_cs

(* {1 Fuzz: a forced-sampling sweep with zero unexpected divergences} *)

let test_fuzz_sweep () =
  let r = Campaign.run ~jobs:4 ~sampling:0.5 ~count:40 ~seed:20_260_809 () in
  check_int "forty programs ran" 40 r.Campaign.programs;
  check "no unexpected divergences under sampling" true
    (r.Campaign.unexpected_indices = [])

let () =
  Alcotest.run "kard_sampling"
    [ ( "policy",
        [ Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "rate 1.0 is the identity" `Quick test_identity_rate;
          Alcotest.test_case "sampled fraction tracks the rate" `Quick test_rate_fraction;
          Alcotest.test_case "window churn and coverage" `Quick test_window_churn_and_coverage;
          Alcotest.test_case "epoch arithmetic" `Quick test_epoch_of ] );
      ( "identity",
        [ Alcotest.test_case "rate 1.0 at every vkeys setting" `Quick
            test_identity_oracle;
          Alcotest.test_case "sweep at 1 vs 4 jobs" `Quick test_sweep_jobs_identity ] );
      ( "soundness",
        [ Alcotest.test_case "subset on the race suite" `Quick test_subset_on_race_suite;
          Alcotest.test_case "detection latency stat" `Quick test_first_race_cs ] );
      ( "fuzz",
        [ Alcotest.test_case "40-program sweep at rate 0.5" `Quick test_fuzz_sweep ] ) ]
