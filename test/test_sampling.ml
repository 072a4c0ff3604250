(* The sampling layer (DESIGN.md §12): the policy's window arithmetic
   (pinned to a reference copy of the formula), the rate-1.0 identity
   oracle (byte-identical to the pre-sampling build at every
   jobs/vkeys combination), what an epoch rotation drains and re-arms,
   the soundness contract (a sampled run's reports are a subset of
   full Kard's on the same seed — delayed or missed, never invented),
   and a fuzz sweep under a forced sampling rate with zero unexpected
   divergences. *)

module Sampling = Kard_core.Sampling
module Config = Kard_core.Config
module Race_record = Kard_core.Race_record
module Pkey = Kard_mpk.Pkey
module Page = Kard_mpk.Page
module Page_table = Kard_mpk.Page_table
module Mpk_hw = Kard_mpk.Mpk_hw
module Obj_meta = Kard_alloc.Obj_meta
module Meta_table = Kard_alloc.Meta_table
module Hooks = Kard_sched.Hooks
module Machine = Kard_sched.Machine
module Program = Kard_sched.Program
module Op = Kard_sched.Op
module Detector = Kard_core.Detector
module Race_suite = Kard_workloads.Race_suite
module Keypressure = Kard_workloads.Keypressure
module Apps = Kard_workloads.Apps
module Runner = Kard_harness.Runner
module Json_report = Kard_harness.Json_report
module Experiments = Kard_harness.Experiments
module Pool = Kard_harness.Pool
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

(* The decision procedure pinned to a copy of its formula: the
   window advances [max 1 (min threshold (2^20 lsr 7))] ring points
   per epoch, which is the threshold itself below rate 1/128 and
   1/128 of the ring above it.  The sweep crosses both branches, so
   any change to how [step] is computed or cached must leave every
   answer as it was. *)
module Reference = struct
  let one = 1 lsl 20
  let mask = one - 1

  let threshold rate =
    Stdlib.min one (Stdlib.max 1 (int_of_float (ceil (rate *. float_of_int one))))

  let step threshold = Stdlib.max 1 (Stdlib.min threshold (one lsr 7))

  let finalize z =
    let z = (z lxor (z lsr 30)) * 0x3f58476d1ce4e5b9 in
    let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb in
    (z lxor (z lsr 31)) land max_int

  let sampled ~rate ~seed ~epoch v =
    rate >= 1.0
    ||
    let threshold = threshold rate in
    let pos = finalize ((v * 0x1e3779b97f4a7c15) + seed) land mask in
    let lo = epoch * step threshold land mask in
    (pos - lo) land mask < threshold
end

let test_reference_decisions () =
  let seed = 0x5eed in
  List.iter
    (fun rate ->
      let t = Sampling.create ~rate ~epoch_cycles:1 ~seed in
      let mismatches = ref 0 in
      for epoch = 0 to 300 do
        for id = 0 to population - 1 do
          if
            Sampling.sampled_obj t ~epoch ~obj_id:id
            <> Reference.sampled ~rate ~seed ~epoch (2 * id)
          then incr mismatches;
          if
            Sampling.sampled_section t ~epoch ~section:id
            <> Reference.sampled ~rate ~seed ~epoch ((2 * id) + 1)
          then incr mismatches
        done
      done;
      check_int (Printf.sprintf "rate %g: decisions match the reference" rate) 0 !mismatches)
    [ 1.0 /. float_of_int Reference.one; 0.001; 1.0 /. 128.0; 0.1; 0.5; 0.999 ]

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
    (Runner.Spec Keypressure.keys_10k)

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
  Pool.execute ~jobs
    (Experiments.sampling_plan
       ~scenarios:[ "ilu-lock-lock"; "exclusive-write" ]
       ~rates:[ 0.5; 1.0 ] ~seeds:[ 42; 43 ] ~serve_rates:[ 0.5 ] ~scale:0.02 ())

let test_sweep_jobs_identity () =
  let b1 = smoke_sweep ~jobs:1 and b4 = smoke_sweep ~jobs:4 in
  check "sampling sweep identical at 1 vs 4 jobs" true (b1 = b4);
  check "sampling JSON identical at 1 vs 4 jobs" true
    (Json_report.of_sampling_bench ~threads:4 ~scale:0.02 ~seed:42 b1
    = Json_report.of_sampling_bench ~threads:4 ~scale:0.02 ~seed:42 b4);
  check "every sweep row satisfies the subset property" true
    (List.for_all (fun r -> r.Experiments.sp_subset_ok) b1.Experiments.sp_rows)

(* {1 Rotation} *)

(* [sampled_objects] counts protection decisions in favour, and a
   freed object cannot be protected: once every object is freed, no
   number of window revolutions may re-arm one. *)
let test_freed_not_rearmed () =
  let config = { Config.default with Config.sampling = 0.1; sampling_epoch = 1_000 } in
  let objects = 64 in
  let build m =
    let allocated = ref [] in
    let allocs =
      List.init objects (fun i ->
          Op.Alloc { size = 64; site = i; on_result = (fun o -> allocated := o :: !allocated) })
    in
    let frees =
      Program.delay (fun () -> Program.of_list (List.map (fun o -> Op.Free o) !allocated))
    in
    let rounds =
      Program.repeat 300 (fun _ ->
          Program.of_list
            [ Op.Lock { lock = 0; site = 0 }; Op.Compute 1_000; Op.Unlock { lock = 0 } ])
    in
    ignore (Machine.spawn m (Program.concat [ Program.of_list allocs; frees; rounds ]))
  in
  let r =
    Runner.run_build ~threads:1 ~scale:1.0 ~seed:1 ~detector:(Runner.Kard config) build
      "alloc-free-rotate"
  in
  let st = Option.get r.Runner.kard_stats in
  check "more than one window revolution" true (st.Detector.sampling_rotations > 128);
  check_int "one decision per object"
    objects
    (st.Detector.sampled_objects + st.Detector.skipped_objects)

(* What every rotation leaves behind: right after each section entry,
   a live object's pages carry the default key exactly when the
   current epoch does not sample it — drained if it slid out of the
   window, re-armed (off the default key) if it slid in.  The run's
   stats and the number of object checks come back with the
   violations, so a run that never rotated or never checked a live
   object cannot pass vacuously.  The wrapper also keeps an
   independent count of the accesses [skipped_accesses] reports: those
   landing on a live object the current epoch does not sample, a block
   op counting its [count]. *)
let rotation_violations config run =
  let sampling = Sampling.of_config config in
  let checks = ref 0 and violations = ref [] and skipped = ref 0 in
  let wrap (env : Hooks.env) (h : Hooks.t) =
    let live = Hashtbl.create 1024 in
    let cur_epoch = ref 0 in
    let tally_skipped addr n =
      match Meta_table.find_vpage env.Hooks.meta (Page.vpage_of_addr addr) with
      | Some m
        when Hashtbl.mem live m.Obj_meta.id
             && not (Sampling.sampled_obj sampling ~epoch:!cur_epoch ~obj_id:m.Obj_meta.id) ->
        skipped := !skipped + n
      | Some _ | None -> ()
    in
    let inner = Hooks.access_of h in
    let track (m : Obj_meta.t) = Hashtbl.replace live m.Obj_meta.id m in
    let pt = Mpk_hw.page_table env.Hooks.hw in
    let check_live epoch =
      Hashtbl.iter
        (fun obj_id (m : Obj_meta.t) ->
          incr checks;
          let outside = not (Sampling.sampled_obj sampling ~epoch ~obj_id) in
          let base = Page.base_of_vpage (Page.vpage_of_addr m.Obj_meta.base) in
          for p = 0 to m.Obj_meta.pages - 1 do
            let tag = Page_table.pkey_of_addr pt (base + (p * Page.size)) in
            if Pkey.equal tag Pkey.k_def <> outside then
              violations := (epoch, obj_id, p) :: !violations
          done)
        live
    in
    { h with
      Hooks.on_global =
        (fun m ->
          track m;
          h.Hooks.on_global m);
      on_alloc =
        (fun ~tid m ->
          track m;
          h.Hooks.on_alloc ~tid m);
      on_free =
        (fun ~tid m ->
          Hashtbl.remove live m.Obj_meta.id;
          h.Hooks.on_free ~tid m);
      on_lock =
        (fun ~tid ~lock ~site ->
          let epoch = Sampling.epoch_of sampling ~now:(env.Hooks.now ()) in
          let cycles = h.Hooks.on_lock ~tid ~lock ~site in
          cur_epoch := epoch;
          check_live epoch;
          cycles);
      access =
        Some
          { Hooks.on_read =
              (fun ~tid ~addr ->
                tally_skipped addr 1;
                inner.Hooks.on_read ~tid ~addr);
            on_write =
              (fun ~tid ~addr ->
                tally_skipped addr 1;
                inner.Hooks.on_write ~tid ~addr);
            on_read_block =
              (fun ~tid ~block ->
                tally_skipped block.Op.base block.Op.count;
                inner.Hooks.on_read_block ~tid ~block);
            on_write_block =
              (fun ~tid ~block ->
                tally_skipped block.Op.base block.Op.count;
                inner.Hooks.on_write_block ~tid ~block) } }
  in
  let r : Runner.result = run wrap in
  (Option.get r.Runner.kard_stats, !checks, List.rev !violations, !skipped)

let check_rotation_invariant label config run =
  let st, checks, violations, skipped = rotation_violations config run in
  check (label ^ ": rotated") true (st.Detector.sampling_rotations > 0);
  check (label ^ ": checked live objects") true (checks > 0);
  check (label ^ ": accesses skipped") true (skipped > 0);
  check_int (label ^ ": skipped_accesses matches the reference count") skipped
    st.Detector.skipped_accesses;
  match violations with
  | [] -> ()
  | (epoch, obj_id, page) :: _ ->
    Alcotest.failf "%s: %d of %d checks violated; first: epoch %d object %d page %d" label
      (List.length violations) checks epoch obj_id page

let test_rotation_invariant_memcached () =
  List.iter
    (fun rate ->
      let config = { Config.default with Config.sampling = rate; sampling_epoch = 20_000 } in
      check_rotation_invariant
        (Printf.sprintf "memcached rate %g" rate)
        config
        (fun wrap ->
          Runner.run ~wrap ~threads:64 ~scale:0.05 ~detector:(Runner.Kard config)
            (Runner.Spec Apps.memcached)))
    [ 0.5; 0.1 ]

let test_rotation_invariant_keys () =
  let config =
    { Config.default with Config.vkeys = 64; sampling = 0.25; sampling_epoch = 20_000 }
  in
  check_rotation_invariant "keys-10k vkeys 64 rate 0.25" config (fun wrap ->
      Runner.run ~wrap ~threads:8 ~scale:smoke_scale ~detector:(Runner.Kard config)
        (Runner.Spec Keypressure.keys_10k))

(* {1 Hooks: sampling installs none} *)

(* Sampling needs no per-access instrumentation: the detector installs
   no access hooks at any rate, with or without a vkey pool. *)
let test_no_access_hooks_at_any_rate () =
  List.iter
    (fun (rate, vkeys) ->
      let config = { Config.default with Config.sampling = rate; vkeys } in
      let installed = ref None in
      let (_ : Machine.t) =
        Machine.create ~allocator:Machine.Unique_page
          ~make_detector:(fun env ->
            let h = Detector.make ~config ~cell:(ref None) env in
            installed := Some h;
            h)
          ()
      in
      check
        (Printf.sprintf "rate %g vkeys %d: no access hooks" rate vkeys)
        true
        (Option.is_none (Option.get !installed).Hooks.access))
    (List.concat_map (fun rate -> [ (rate, 0); (rate, 64) ]) [ 0.05; 0.1; 0.25; 0.5; 1.0 ])

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
        Runner.run ~seed ~detector:(Runner.Kard config) (Runner.Scenario s)
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
    Runner.run ~seed:42 ~detector:(Runner.Kard s.Race_suite.config) (Runner.Scenario s)
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
          Alcotest.test_case "decisions match the reference formula" `Quick
            test_reference_decisions;
          Alcotest.test_case "epoch arithmetic" `Quick test_epoch_of ] );
      ( "rotation",
        [ Alcotest.test_case "freed objects are never re-armed" `Quick test_freed_not_rearmed;
          Alcotest.test_case "tags follow the epoch on memcached" `Quick
            test_rotation_invariant_memcached;
          Alcotest.test_case "tags follow the epoch on keys-10k" `Quick
            test_rotation_invariant_keys ] );
      ( "identity",
        [ Alcotest.test_case "rate 1.0 at every vkeys setting" `Quick
            test_identity_oracle;
          Alcotest.test_case "sweep at 1 vs 4 jobs" `Quick test_sweep_jobs_identity ] );
      ( "hooks",
        [ Alcotest.test_case "no access hooks at any rate" `Quick
            test_no_access_hooks_at_any_rate ] );
      ( "soundness",
        [ Alcotest.test_case "subset on the race suite" `Quick test_subset_on_race_suite;
          Alcotest.test_case "detection latency stat" `Quick test_first_race_cs ] );
      ( "fuzz",
        [ Alcotest.test_case "40-program sweep at rate 0.5" `Quick test_fuzz_sweep ] ) ]
