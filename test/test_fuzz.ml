(* The differential fuzzing subsystem: generator validity, oracle
   units, campaign determinism (jobs- and resume-invariance), and the
   shrinker on an injected detector bug. *)

module Prog = Kard_fuzz.Prog
module Trace_log = Kard_fuzz.Trace_log
module Oracles = Kard_fuzz.Oracles
module Harness = Kard_fuzz.Harness
module Shrink = Kard_fuzz.Shrink
module Campaign = Kard_fuzz.Campaign
module D = Kard_core.Divergence

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* {1 Generator} *)

let test_generator_valid () =
  for i = 0 to 199 do
    let rand = Random.State.make [| 977; i |] in
    let prog = Prog.generate ~rand () in
    match Prog.check prog with
    | Ok () -> ()
    | Error e -> Alcotest.failf "generated program %d invalid: %s" i e
  done

let test_generator_covers_key_pressure () =
  (* The bimodal slot count must produce both small programs and
     programs with more live objects than the 13 data keys. *)
  let small = ref 0 and big = ref 0 in
  for i = 0 to 99 do
    let rand = Random.State.make [| 978; i |] in
    let prog = Prog.generate ~rand () in
    if prog.Prog.slots > 13 then incr big else incr small
  done;
  check "some small programs" true (!small > 10);
  check "some key-pressure programs" true (!big > 10)

let test_taxonomy_names_roundtrip () =
  List.iter
    (fun c ->
      match D.of_name (D.name c) with
      | Some c' -> check (D.name c) true (D.equal c c')
      | None -> Alcotest.failf "class %s does not round-trip" (D.name c))
    D.all;
  check "only unexplainable classes are unexpected" true
    (List.for_all
       (fun c ->
         D.expected c
         = not
             (D.equal c D.Unexpected || D.equal c D.Batch_divergence
             || D.equal c D.Replay_divergence))
       D.all)

(* {1 Oracle units} *)

let ev_lock tid lock site = Trace_log.Lock { tid; lock; site }
let ev_unlock tid lock = Trace_log.Unlock { tid; lock }
let ev_write tid obj = Trace_log.Write { tid; obj }

let test_hb_unordered_writes_race () =
  let events = [ ev_write 1 5; ev_write 2 5 ] in
  match Oracles.hb ~threads:3 events with
  | [ r ] ->
    check_int "object" 5 r.Oracles.obj;
    check "unlocked pair" true r.Oracles.unlocked_pair
  | l -> Alcotest.failf "expected one racy object, got %d" (List.length l)

let test_hb_lock_edge_orders () =
  (* Release-to-acquire on the same lock orders the two writes. *)
  let events =
    [ ev_lock 1 9 0; ev_write 1 5; ev_unlock 1 9; ev_lock 2 9 0; ev_write 2 5; ev_unlock 2 9 ]
  in
  check_int "no race through a lock edge" 0 (List.length (Oracles.hb ~threads:3 events))

let test_hb_different_locks_race () =
  let events =
    [ ev_lock 1 8 0; ev_write 1 5; ev_unlock 1 8; ev_lock 2 9 0; ev_write 2 5; ev_unlock 2 9 ]
  in
  match Oracles.hb ~threads:3 events with
  | [ r ] -> check "both sides locked" false r.Oracles.unlocked_pair
  | l -> Alcotest.failf "expected one racy object, got %d" (List.length l)

let test_alg1_overlapping_sections () =
  let events = [ ev_lock 1 1 11; ev_write 1 5; ev_lock 2 2 12; ev_write 2 5 ] in
  check_int "alg1 flags the object" 1
    (List.length (Oracles.alg1 ~section_identity:Kard_core.Config.By_call_site events))

let test_lockset_warns_on_inconsistent_locking () =
  (* Three critical sections: the third access empties the candidate
     set while Shared-modified. *)
  let events =
    [ ev_lock 1 1 0; ev_write 1 5; ev_unlock 1 1;
      ev_lock 2 2 0; ev_write 2 5; ev_unlock 2 2;
      ev_lock 1 1 0; ev_write 1 5; ev_unlock 1 1 ]
  in
  match Oracles.lockset events with
  | [ o ] -> check "warned" true o.Oracles.warned
  | l -> Alcotest.failf "expected one object, got %d" (List.length l)

let test_lockset_init_exemption () =
  (* The classic Eraser initialization miss: t1 writes unlocked while
     Exclusive, t2 then writes under a lock.  The candidate set stays
     nonempty ({lock}), no warning — but the strict shadow replay
     (refining from the first access) warns. *)
  let events = [ ev_write 1 5; ev_lock 2 3 0; ev_write 2 5; ev_unlock 2 3 ] in
  match Oracles.lockset events with
  | [ o ] ->
    check "no eraser warning" false o.Oracles.warned;
    check "strict replay warns" true o.Oracles.strict_warned;
    check "candidate nonempty" true o.Oracles.candidate_nonempty;
    check "shared-modified" true (o.Oracles.state = Oracles.Shared_modified)
  | l -> Alcotest.failf "expected one object, got %d" (List.length l)

(* Minimized from the 10k campaign (program 5175, by-lock config): t2
   writes the object under lock 2, exits, t1 reads it under lock 0 —
   then t2 re-enters.  The somap says the section needs the write key,
   but t1 holds read permission, so the runtime's proactive
   acquisition downgrades to a read hold (detector.ml), and t1's write
   faults against it: a true ILU report.  Algorithm 1's proactive
   acquisition skips the contested key outright and stays silent. *)
let test_proactive_downgrade_classifies () =
  let prog : Prog.t =
    let open Prog in
    { workers = 2;
      slots = 3;
      locks = 3;
      slot_size = 64;
      phases =
        [ { refresh = [];
            work =
              [| [ Locked
                     { lock = 0; site = 0;
                       body = [ Read { slot = 2; off = 0 }; Write { slot = 2; off = 0 } ] } ];
                 [ Locked { lock = 2; site = 0; body = [ Write { slot = 2; off = 0 } ] };
                   Locked { lock = 2; site = 0; body = [] } ]
              |] }
        ] }
  in
  let config =
    { Kard_core.Config.default with Kard_core.Config.section_identity = Kard_core.Config.By_lock }
  in
  let o = Harness.run ~config ~seed:294391 prog in
  check "not unexpected" false o.Harness.unexpected;
  check "proactive-hold-blame observed" true
    (List.exists
       (fun c -> Kard_core.Divergence.equal c Kard_core.Divergence.Proactive_hold_blame)
       o.Harness.classes)

(* The other proactive-hold-blame sub-cause, also minimized from the
   10k campaign (program 5175 round 2, by-lock config): t1's nested
   section upgrades slot 2's key and the inner exit releases the
   runtime's whole hold, so t2's re-entry proactively reclaims the
   write key — which Algorithm 1 still shows held by t1 (its
   saved-set exit keeps the outer read hold), so the reclaim is
   contested and skipped there.  t1's later out-of-section read then
   blames t2's proactive hold: a runtime-only report. *)
let test_proactive_nested_release_classifies () =
  let prog : Prog.t =
    let open Prog in
    { workers = 2;
      slots = 3;
      locks = 2;
      slot_size = 64;
      phases =
        [ { refresh = [];
            work =
              [| [ Write { slot = 0; off = 0 };
                   Read { slot = 0; off = 0 };
                   Locked
                     { lock = 0; site = 0;
                       body =
                         [ Yield;
                           Read { slot = 2; off = 0 };
                           Locked
                             { lock = 1; site = 0;
                               body =
                                 [ Read { slot = 0; off = 0 }; Write { slot = 2; off = 0 } ] }
                         ] };
                   Read { slot = 2; off = 0 } ];
                 [ Read { slot = 0; off = 0 };
                   Locked { lock = 1; site = 0; body = [ Write { slot = 2; off = 0 } ] };
                   Read { slot = 0; off = 0 };
                   Read { slot = 0; off = 0 };
                   Yield;
                   Locked { lock = 1; site = 0; body = [ Read { slot = 0; off = 0 } ] } ]
              |] }
        ] }
  in
  let config =
    { Kard_core.Config.default with Kard_core.Config.section_identity = Kard_core.Config.By_lock }
  in
  let o = Harness.run ~config ~seed:294391 prog in
  check "not unexpected" false o.Harness.unexpected;
  check "proactive-hold-blame observed" true
    (List.exists
       (fun c -> Kard_core.Divergence.equal c Kard_core.Divergence.Proactive_hold_blame)
       o.Harness.classes)

(* {1 Differential harness: a clean sweep stays clean} *)

let test_harness_no_unexpected () =
  for i = 0 to 39 do
    let rand = Random.State.make [| 42; i |] in
    let prog = Prog.generate ~rand () in
    let mseed = Random.State.int rand 1_000_000 in
    let o = Harness.run ~seed:mseed prog in
    if o.Harness.unexpected then
      Alcotest.failf "program %d diverged unexpectedly:@ %a" i Harness.pp_outcome o
  done

(* {1 Campaign determinism} *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let dir_contents dir =
  List.sort compare (Array.to_list (Sys.readdir dir))
  |> List.map (fun f -> (f, read_file (Filename.concat dir f)))

let tmp_dir name =
  let d = Filename.concat (Filename.get_temp_dir_name ()) ("kard-fuzz-test-" ^ name) in
  rm_rf d;
  d

let test_campaign_jobs_invariant () =
  let c1 = tmp_dir "jobs1" and c4 = tmp_dir "jobs4" in
  let r1 = Campaign.run ~jobs:1 ~corpus:c1 ~count:24 ~seed:7 () in
  let r4 = Campaign.run ~jobs:4 ~corpus:c4 ~count:24 ~seed:7 () in
  check_int "same divergent count" r1.Campaign.divergent r4.Campaign.divergent;
  check "same class counts" true (r1.Campaign.class_counts = r4.Campaign.class_counts);
  check "no unexpected" true (r1.Campaign.unexpected_indices = []);
  let f1 = dir_contents c1 and f4 = dir_contents c4 in
  check "same corpus file names" true (List.map fst f1 = List.map fst f4);
  List.iter2
    (fun (name, b1) (_, b4) ->
      if not (String.equal b1 b4) then Alcotest.failf "corpus file %s differs across --jobs" name)
    f1 f4;
  rm_rf c1;
  rm_rf c4

let test_campaign_resume_identity () =
  let cfull = tmp_dir "full" and cresume = tmp_dir "resume" in
  let rfull = Campaign.run ~jobs:2 ~corpus:cfull ~count:24 ~seed:7 () in
  let (_ : Campaign.result) = Campaign.run ~jobs:2 ~corpus:cresume ~count:12 ~seed:7 () in
  let rresume = Campaign.run ~jobs:2 ~corpus:cresume ~count:24 ~seed:7 () in
  check_int "resumed run only did the remainder" 12 rresume.Campaign.programs;
  check_int "same totals" rfull.Campaign.total rresume.Campaign.total;
  check "same class counts" true (rfull.Campaign.class_counts = rresume.Campaign.class_counts);
  let ffull = dir_contents cfull and fresume = dir_contents cresume in
  check "same corpus file names" true (List.map fst ffull = List.map fst fresume);
  List.iter2
    (fun (name, b1) (_, b2) ->
      if not (String.equal b1 b2) then Alcotest.failf "corpus file %s differs after resume" name)
    ffull fresume;
  rm_rf cfull;
  rm_rf cresume

let test_campaign_seed_mismatch_fails () =
  let c = tmp_dir "mismatch" in
  let (_ : Campaign.result) = Campaign.run ~jobs:1 ~corpus:c ~count:2 ~seed:7 () in
  (match Campaign.run ~jobs:1 ~corpus:c ~count:4 ~seed:8 () with
  | (_ : Campaign.result) -> Alcotest.fail "seed mismatch accepted"
  | exception Failure _ -> ());
  rm_rf c

(* {1 The replay oracle} *)

let test_replay_gate_no_divergence () =
  (* The record/replay gate on a 20-program sweep: every program must
     round-trip its nondeterminism log and replay to the identical
     report and race list — Replay_divergence is never expected. *)
  for i = 0 to 19 do
    let rand = Random.State.make [| 1042; i |] in
    let prog = Prog.generate ~rand () in
    let mseed = Random.State.int rand 1_000_000 in
    let o = Harness.run ~replay:true ~seed:mseed prog in
    if List.mem D.Replay_divergence o.Harness.classes then
      Alcotest.failf "program %d diverged under the replay gate:@ %a" i Harness.pp_outcome o;
    if o.Harness.unexpected then
      Alcotest.failf "program %d diverged unexpectedly:@ %a" i Harness.pp_outcome o
  done

(* The batch gate on a 20-program sweep: the batched (compiled) and
   unbatched ([`Thunks]) machines must agree on every program —
   Batch_divergence is never expected. *)
let test_batch_gate_no_divergence () =
  for i = 0 to 19 do
    let rand = Random.State.make [| 2042; i |] in
    let prog = Prog.generate ~rand () in
    let mseed = Random.State.int rand 1_000_000 in
    let o = Harness.run ~batch_gate:true ~seed:mseed prog in
    if List.mem D.Batch_divergence o.Harness.classes then
      Alcotest.failf "program %d diverged under the batch gate:@ %a" i Harness.pp_outcome o;
    if o.Harness.unexpected then
      Alcotest.failf "program %d diverged unexpectedly:@ %a" i Harness.pp_outcome o
  done

let test_fuzz_target_roundtrip () =
  check "target parses back" true (Campaign.of_target (Campaign.target ~seed:42 13) = Some (42, 13));
  check "junk targets rejected" true
    (Campaign.of_target "fuzz:x:y" = None && Campaign.of_target "spec:memcached" = None);
  let a = Campaign.reconstruct ~seed:42 13 and b = Campaign.reconstruct ~seed:42 13 in
  check "reconstruction is pure" true (a = b);
  check "entry 13 runs the replay oracle" true a.Campaign.rp_replay

(* Program [i] of a campaign draws entry [i mod 15], so a recorded
   [fuzz:SEED:INDEX] target reconstructs the same program only while
   the rotation keeps its order, generator profiles and gates.  The
   retired sharded entries kept their slots as batch-gate entries, and
   the retired soft-pool entry's slot holds a batch-gated vkey one. *)
let test_campaign_rotation_order () =
  check "rotation order, batch gates, profiles and replay gates" true
    (List.map (fun (name, _, batch, profile, replay) -> (name, batch, profile, replay))
       Campaign.configs
    = [ ("default", false, `Default, false);
        ("keys4", false, `Default, false);
        ("keys4-vkeys16", true, `Vkey_rotation, false);
        ("by-lock", false, `Default, false);
        ("default-batch", true, `Default, false);
        ("keys4-batch", true, `Default, false);
        ("vkeys64", false, `Vkey_rotation, false);
        ("vkeys64-keys4", false, `Vkey_rotation, false);
        ("vkeys64-batch", true, `Vkey_rotation, false);
        ("sampling50", false, `Default, false);
        ("sampling25-keys4", false, `Default, false);
        ("sampling50-vkeys64", false, `Vkey_rotation, false);
        ("sampling25-batch", true, `Default, false);
        ("replay-oracle", false, `Default, true);
        ("replay-oracle-sampling50-batch", true, `Default, true) ]);
  let r = Campaign.reconstruct ~seed:42 43 in
  check "fuzz:42:43 (the checked-in fixture) is the replay-oracle entry" true
    (r.Campaign.rp_config_name = "replay-oracle" && r.Campaign.rp_replay
     && not r.Campaign.rp_batch_gate)

(* Entry 2, the retired soft-pool entry's slot, pairs a 16-key
   virtual pool over 4 physical keys with the batch gate.  A dozen of
   its programs, rebuilt from their campaign targets, must all pass
   the batch gate with nothing unexpected. *)
let test_vkey_batch_entry () =
  for k = 0 to 11 do
    let i = 2 + (k * List.length Campaign.configs) in
    let r = Campaign.reconstruct ~seed:4242 i in
    check "the keys4-vkeys16 entry, batch-gated" true
      (r.Campaign.rp_config_name = "keys4-vkeys16" && r.Campaign.rp_batch_gate);
    check "4 physical keys under 16 virtual ones" true
      (r.Campaign.rp_config
      = { Kard_core.Config.default with Kard_core.Config.data_keys = 4; vkeys = 16 });
    let o =
      Harness.run ~config:r.Campaign.rp_config ~batch_gate:true ~seed:r.Campaign.rp_machine_seed
        r.Campaign.rp_prog
    in
    if List.mem D.Batch_divergence o.Harness.classes then
      Alcotest.failf "program %d diverged under the batch gate:@ %a" i Harness.pp_outcome o;
    if o.Harness.unexpected then
      Alcotest.failf "program %d diverged unexpectedly:@ %a" i Harness.pp_outcome o
  done

let test_campaign_rotation_covers_replay () =
  (* One full trip through the config rotation, which includes the
     two replay-oracle entries, must report nothing unexpected. *)
  check_int "rotation length" 15 (List.length Campaign.configs);
  check "rotation includes replay-oracle entries" true
    (List.exists (fun (_, _, _, _, replay) -> replay) Campaign.configs);
  let r = Campaign.run ~jobs:2 ~count:(List.length Campaign.configs) ~seed:4242 () in
  check "no unexpected across one full rotation" true (r.Campaign.unexpected_indices = [])

(* {1 Shrinker} *)

(* The injected detector bug: the runtime "loses" both its race
   records and its provenance log, so every Algorithm 1 race becomes
   an unexpected under-report. *)
let injected_oracle ~mseed p =
  let kard_filter (_ : Kard_core.Race_record.t) = false in
  let provenance_filter (pr : Kard_core.Detector.provenance) =
    { pr with Kard_core.Detector.key_shared = false; recycled = false; pruned = false;
      grouped = false; demoted = false; ro_identified = false }
  in
  (Harness.run ~kard_filter ~provenance_filter ~seed:mseed p).Harness.unexpected

let test_shrinker_minimizes_injected_bug () =
  (* Campaign seed 42, program 4: a 48-op, 4-worker program whose
     injected-bug divergence survives minimization down to a two-line
     repro. *)
  let rand = Random.State.make [| 42; 4 |] in
  let prog = Prog.generate ~rand () in
  let mseed = Random.State.int rand 1_000_000 in
  let oracle = injected_oracle ~mseed in
  check "seed program triggers the injected bug" true (oracle prog);
  let small, evals = Shrink.minimize ~oracle prog in
  check "minimum still triggers" true (oracle small);
  check "minimum is valid" true (Prog.check small = Ok ());
  check "minimized to <= 2 workers" true (small.Prog.workers <= 2);
  check "minimized to <= 6 ops" true (Prog.op_count small <= 6);
  check "minimized to one phase" true (List.length small.Prog.phases = 1);
  check "bounded oracle budget" true (evals <= 4000);
  check "strictly smaller" true (Shrink.size small < Shrink.size prog)

let test_printed_repro_retriggers () =
  (* The Prog.to_ocaml output of the minimized program above, pasted
     back verbatim: the printed repro must compile (it is this very
     code) and re-trigger the same divergence. *)
  let prog : Kard_fuzz.Prog.t =
    let open Kard_fuzz.Prog in
    { workers = 2;
      slots = 8;
      locks = 1;
      slot_size = 64;
      phases =
      [{ refresh = [];
         work =
         [|[Locked { lock = 0; site = 0; body = [Read { slot = 7; off = 0 }] }];
           [Rmw { slot = 7; off = 0 }]|] }] }
  in
  check "repro is valid" true (Prog.check prog = Ok ());
  check "repro re-triggers the injected divergence" true (injected_oracle ~mseed:958318 prog);
  (* Under the real detector the same program is clean: the
     divergence was the injected bug, not a latent one. *)
  let o = Harness.run ~seed:958318 prog in
  check "clean under the real detector" false o.Harness.unexpected

let () =
  Alcotest.run "kard_fuzz"
    [ ( "generator",
        [ Alcotest.test_case "generated programs valid" `Quick test_generator_valid;
          Alcotest.test_case "bimodal key pressure" `Quick test_generator_covers_key_pressure;
          Alcotest.test_case "taxonomy names round-trip" `Quick test_taxonomy_names_roundtrip ] );
      ( "oracles",
        [ Alcotest.test_case "hb: unordered writes race" `Quick test_hb_unordered_writes_race;
          Alcotest.test_case "hb: lock edge orders" `Quick test_hb_lock_edge_orders;
          Alcotest.test_case "hb: different locks race" `Quick test_hb_different_locks_race;
          Alcotest.test_case "alg1: overlapping sections" `Quick test_alg1_overlapping_sections;
          Alcotest.test_case "lockset: inconsistent locking warns" `Quick
            test_lockset_warns_on_inconsistent_locking;
          Alcotest.test_case "proactive downgrade classifies" `Quick
            test_proactive_downgrade_classifies;
          Alcotest.test_case "proactive nested-release classifies" `Quick
            test_proactive_nested_release_classifies;
          Alcotest.test_case "lockset: initialization exemption" `Quick
            test_lockset_init_exemption ] );
      ( "harness",
        [ Alcotest.test_case "40-program sweep has no unexpected" `Quick
            test_harness_no_unexpected ] );
      ( "campaign",
        [ Alcotest.test_case "jobs-invariant corpus and report" `Quick
            test_campaign_jobs_invariant;
          Alcotest.test_case "resume-identical corpus" `Quick test_campaign_resume_identity;
          Alcotest.test_case "seed mismatch rejected" `Quick test_campaign_seed_mismatch_fails ] );
      ( "replay-oracle",
        [ Alcotest.test_case "20-program sweep under the gate" `Quick
            test_replay_gate_no_divergence;
          Alcotest.test_case "fuzz target round-trips" `Quick test_fuzz_target_roundtrip;
          Alcotest.test_case "rotation covers replay configs" `Quick
            test_campaign_rotation_covers_replay;
          Alcotest.test_case "rotation order pinned" `Quick test_campaign_rotation_order;
          Alcotest.test_case "vkey entry under the batch gate" `Quick test_vkey_batch_entry ] );
      ( "batch-gate",
        [ Alcotest.test_case "20-program sweep under the gate" `Quick
            test_batch_gate_no_divergence ] );
      ( "shrinker",
        [ Alcotest.test_case "injected bug minimizes small" `Quick
            test_shrinker_minimizes_injected_bug;
          Alcotest.test_case "printed repro re-triggers" `Quick test_printed_repro_retriggers ] ) ]
