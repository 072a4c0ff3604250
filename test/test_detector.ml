(* End-to-end tests of the Kard runtime over the simulated machine:
   the controlled race scenarios with their ground truth, plus
   configuration ablations. *)

module Machine = Kard_sched.Machine
module Program = Kard_sched.Program
module Op = Kard_sched.Op
module Detector = Kard_core.Detector
module Config = Kard_core.Config
module Race_suite = Kard_workloads.Race_suite
module Runner = Kard_harness.Runner
module Fault = Kard_mpk.Fault
module Mpk_hw = Kard_mpk.Mpk_hw
module Page = Kard_mpk.Page
module Hooks = Kard_sched.Hooks
module Obj_meta = Kard_alloc.Obj_meta
module Meta_table = Kard_alloc.Meta_table
module Race_record = Kard_core.Race_record

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* {1 Every scenario meets its expectation under all three detectors} *)

let scenario_case (s : Race_suite.t) =
  Alcotest.test_case s.Race_suite.name `Quick (fun () ->
      let kard = Runner.run ~detector:(Runner.Kard s.Race_suite.config) (Runner.Scenario s) in
      let tsan = Runner.run ~detector:Runner.Tsan (Runner.Scenario s) in
      let lockset = Runner.run ~detector:Runner.Lockset (Runner.Scenario s) in
      let fmt_exp e = Format.asprintf "%a" Race_suite.pp_expectation e in
      let kard_n = List.length kard.Runner.kard_ilu_races in
      if not (Race_suite.check s.Race_suite.expect_kard_ilu kard_n) then
        Alcotest.failf "kard: got %d, expected %s" kard_n (fmt_exp s.Race_suite.expect_kard_ilu);
      let tsan_n = List.length tsan.Runner.tsan_races in
      if not (Race_suite.check s.Race_suite.expect_tsan tsan_n) then
        Alcotest.failf "tsan: got %d, expected %s" tsan_n (fmt_exp s.Race_suite.expect_tsan);
      let lockset_n = List.length lockset.Runner.lockset_warnings in
      if not (Race_suite.check s.Race_suite.expect_lockset lockset_n) then
        Alcotest.failf "lockset: got %d, expected %s" lockset_n (fmt_exp s.Race_suite.expect_lockset))

(* Scenarios must hold across scheduler seeds, not just the default. *)
let seed_robustness_case seed =
  Alcotest.test_case (Printf.sprintf "ilu-lock-lock seed %d" seed) `Quick (fun () ->
      let s = Race_suite.ilu_lock_lock in
      let kard = Runner.run ~seed ~detector:(Runner.Kard s.Race_suite.config) (Runner.Scenario s) in
      check "race found" true (List.length kard.Runner.kard_ilu_races >= 1))

let seed_robustness_negative seed =
  Alcotest.test_case (Printf.sprintf "same-lock seed %d" seed) `Quick (fun () ->
      let s = Race_suite.same_lock in
      let kard = Runner.run ~seed ~detector:(Runner.Kard s.Race_suite.config) (Runner.Scenario s) in
      check_int "no false positive" 0 (List.length kard.Runner.kard_ilu_races))

(* {1 Ablations} *)

let run_with_config s config =
  Runner.run ~seed:42 ~detector:(Runner.Kard config) (Runner.Scenario s)

let ilu_races r = r.Runner.kard_ilu_races
let stats r = Option.get r.Runner.kard_stats

let test_ablation_no_interleaving () =
  (* Without protection interleaving, the different-offset record is
     never pruned — the false positive stays. *)
  let config =
    { Race_suite.different_offset_large_cs.Race_suite.config with
      Config.protection_interleaving = false }
  in
  let d = run_with_config Race_suite.different_offset_large_cs config in
  check "false positive without interleaving" true (List.length (ilu_races d) >= 1);
  let default = run_with_config Race_suite.different_offset_large_cs Config.default in
  check_int "pruned with interleaving" 0 (List.length (ilu_races default))

let test_ablation_no_dedupe () =
  let config = { Config.default with Config.redundancy_pruning = false } in
  let with_dedupe = run_with_config Race_suite.ilu_lock_lock Config.default in
  let without = run_with_config Race_suite.ilu_lock_lock config in
  check "dedupe reduces records" true
    (List.length without.Runner.kard_races >= List.length with_dedupe.Runner.kard_races);
  check "duplicates appear without dedupe" true
    ((stats without).Detector.records_logged
    >= (stats with_dedupe).Detector.records_logged)

let test_ablation_reactive_only () =
  (* Disabling proactive acquisition must not lose the race; it only
     costs more faults. *)
  let config = { Config.default with Config.proactive_acquisition = false } in
  let d = run_with_config Race_suite.ilu_lock_lock config in
  check "race still found" true (List.length (ilu_races d) >= 1);
  let stats = stats d in
  check_int "nothing proactive" 0 stats.Detector.proactive_acquisitions

let test_delay_injection_raises_detection () =
  (* Section 5.5: "mitigated with delay injection" — the rarely
     overlapping sections' race is found far more often when exits
     linger. *)
  let rate config =
    (Kard_harness.Pool.execute
       (Kard_harness.Explorer.explore_scenario_plan ~seeds:(List.init 10 (fun i -> i + 1)) ~config
          Race_suite.small_cs_race))
      .Kard_harness.Explorer.detection_rate
  in
  let without = rate Config.default in
  let with_delay = rate { Config.default with Config.exit_delay_cycles = 100_000 } in
  check "delay raises the detection rate" true (with_delay > without);
  check "delay makes detection near-certain" true (with_delay >= 0.9)

let test_delay_injection_no_false_alarms () =
  let config = { Config.default with Config.exit_delay_cycles = 100_000 } in
  let d = run_with_config Race_suite.same_lock config in
  check_int "consistent locking stays clean" 0 (List.length (ilu_races d))

let test_binary_mode_still_detects () =
  (* Section 8's binary deployment: sections named by lock only.
     Detection of ILU races is unchanged (the conflicting sides hold
     different locks by definition); consistent locking stays clean. *)
  let config = { Config.default with Config.section_identity = Config.By_lock } in
  let racy = run_with_config Race_suite.ilu_lock_lock config in
  check "race still found" true (List.length (ilu_races racy) >= 1);
  let clean = run_with_config Race_suite.same_lock config in
  check_int "no false positives" 0 (List.length (ilu_races clean))

let test_key_sharing_only_under_pressure () =
  (* With the full 13 keys the sharing scenario's conflict is caught. *)
  let d = run_with_config Race_suite.key_sharing_false_negative Config.default in
  check "13 keys avoid the false negative" true (List.length (ilu_races d) >= 1);
  let one_key = { Config.default with Config.data_keys = 1 } in
  let d1 = run_with_config Race_suite.key_sharing_false_negative one_key in
  check_int "1 key shares and misses" 0 (List.length (ilu_races d1));
  check "sharing event recorded" true ((stats d1).Detector.sharing_events >= 1);
  (* A second data key already separates the two sections' objects:
     the false negative needs a one-key budget. *)
  let d2 =
    run_with_config Race_suite.key_sharing_false_negative
      { Config.default with Config.data_keys = 2 }
  in
  check_int "2 keys share nothing" 0 (stats d2).Detector.sharing_events;
  check "2 keys avoid the false negative" true (List.length (ilu_races d2) >= 1)

let test_vkeys_one_key_no_false_alarms () =
  (* The ablation's "1 data key + 192 vkeys" row caches every virtual
     key in one physical key, so section entries miss the pool and
     reload it.  No race-free scenario that plain one-key Kard keeps
     clean may gain a record from that. *)
  let one_key s = { s.Race_suite.config with Config.data_keys = 1 } in
  let misses = ref 0 in
  List.iter
    (fun (s : Race_suite.t) ->
      let clean config = ilu_races (run_with_config s config) = [] in
      if s.Race_suite.expect_kard_ilu = Race_suite.Exactly 0 && clean (one_key s) then begin
        let d = run_with_config s { (one_key s) with Config.vkeys = 192 } in
        misses := !misses + (stats d).Detector.vkey_misses;
        check_int (s.Race_suite.name ^ ": no records") 0 (List.length (ilu_races d))
      end)
    Race_suite.all;
  check "the pool missed" true (!misses > 0)

(* {1 Runtime mechanics through a micro program} *)

let micro_machine config =
  let cell = ref None in
  let machine =
    Machine.create ~seed:1 ~allocator:Machine.Unique_page
      ~make_detector:(Detector.make ~config ~cell)
      ()
  in
  (machine, cell)

let test_identification_and_domains () =
  let machine, cell = micro_machine Config.default in
  let base = ref 0 in
  let prog =
    Program.concat
      [ Program.of_list
          [ Op.Alloc { size = 32; site = 1; on_result = (fun m -> base := m.Kard_alloc.Obj_meta.base) } ];
        Program.delay (fun () ->
            Program.of_list
              (Kard_workloads.Builder.critical_section ~lock:1 ~site:5
                 [ Op.Read !base; Op.Write !base ])) ]
  in
  let (_ : int) = Machine.spawn machine prog in
  let (_ : Machine.report) = Machine.run machine in
  let d = Option.get !cell in
  let stats = Detector.stats d in
  (* Read identifies into Read-only, the write then migrates to
     Read-write: two identification faults. *)
  check_int "read identification" 1 stats.Detector.identifications_read;
  check_int "write identification" 1 stats.Detector.identifications_write;
  check_int "unique ro seen" 1 (Detector.unique_ro_objects d);
  check_int "unique rw seen" 1 (Detector.unique_rw_objects d);
  check_int "no races" 0 (List.length (Detector.races d))

let test_outside_cs_access_is_free () =
  let machine, cell = micro_machine Config.default in
  let base = ref 0 in
  let prog =
    Program.concat
      [ Program.of_list
          [ Op.Alloc { size = 32; site = 1; on_result = (fun m -> base := m.Kard_alloc.Obj_meta.base) } ];
        Program.delay (fun () -> Program.of_list [ Op.Write !base; Op.Read !base ]) ]
  in
  let (_ : int) = Machine.spawn machine prog in
  let report = Machine.run machine in
  let d = Option.get !cell in
  (* Outside critical sections the thread holds k_na read-write: no
     faults, no identification — Kard's lightweight claim. *)
  check_int "no faults" 0 report.Machine.faults;
  check_int "nothing identified" 0 (Detector.stats d).Detector.identifications_write

let test_proactive_second_entry () =
  let machine, cell = micro_machine Config.default in
  let base = ref 0 in
  let cs () =
    Program.delay (fun () ->
        Program.of_list
          (Kard_workloads.Builder.critical_section ~lock:1 ~site:5 [ Op.Write !base ]))
  in
  let prog =
    Program.concat
      [ Program.of_list
          [ Op.Alloc { size = 32; site = 1; on_result = (fun m -> base := m.Kard_alloc.Obj_meta.base) } ];
        cs ();
        cs () ]
  in
  let (_ : int) = Machine.spawn machine prog in
  let (_ : Machine.report) = Machine.run machine in
  let d = Option.get !cell in
  let stats = Detector.stats d in
  (* The second entry acquires the key proactively: only one fault. *)
  check_int "one identification" 1 stats.Detector.identifications_write;
  check "proactive acquisition happened" true (stats.Detector.proactive_acquisitions >= 1)

let test_free_in_section_cleans_up () =
  let machine, cell = micro_machine Config.default in
  let meta = ref None in
  let prog =
    Program.concat
      [ Program.of_list [ Op.Lock { lock = 1; site = 5 } ];
        Program.of_list [ Op.Alloc { size = 32; site = 1; on_result = (fun m -> meta := Some m) } ];
        Program.delay (fun () ->
            let m = Option.get !meta in
            Program.of_list [ Op.Write m.Kard_alloc.Obj_meta.base; Op.Free m ]);
        Program.of_list [ Op.Unlock { lock = 1 } ] ]
  in
  let (_ : int) = Machine.spawn machine prog in
  let (_ : Machine.report) = Machine.run machine in
  let d = Option.get !cell in
  check_int "no dangling domains" 0 (Kard_core.Domain_state.tracked (Detector.domains d));
  check_int "no races" 0 (List.length (Detector.races d))

(* Rule 1 of key assignment reads the keys the thread's open sections
   acquired.  An inner section that upgrades a key the outer section
   holds read-only releases the holding at its exit, while the outer
   frame still lists the key: a write identification in the outer
   section must skip it and reuse the lowest key the thread still
   holds read-write. *)
let test_reuse_after_inner_release () =
  let machine, cell = micro_machine Config.default in
  let ids = Array.make 4 0 and bases = Array.make 4 0 in
  let alloc i =
    Op.Alloc
      { size = 32;
        site = 1;
        on_result =
          (fun m ->
            ids.(i) <- m.Kard_alloc.Obj_meta.id;
            bases.(i) <- m.Kard_alloc.Obj_meta.base) }
  in
  let ops f = Program.delay (fun () -> Program.of_list (f ())) in
  let write_in ~lock i =
    ops (fun () ->
        Kard_workloads.Builder.critical_section ~lock ~site:lock [ Op.Write bases.(i) ])
  in
  let prog =
    Program.concat
      [ Program.of_list [ alloc 0; alloc 1; alloc 2; alloc 3 ];
        (* Objects 0, 1 and 2 take keys 1, 2 and 3 in turn. *)
        write_in ~lock:1 0;
        write_in ~lock:2 1;
        write_in ~lock:3 2;
        ops (fun () ->
            [ Op.Lock { lock = 5; site = 5 };
              Op.Read bases.(0);
              Op.Write bases.(1);
              Op.Write bases.(2);
              Op.Lock { lock = 6; site = 6 };
              Op.Write bases.(0);
              Op.Unlock { lock = 6 };
              Op.Write bases.(3);
              Op.Unlock { lock = 5 } ]) ]
  in
  let (_ : int) = Machine.spawn machine prog in
  let (_ : Machine.report) = Machine.run machine in
  let d = Option.get !cell in
  let key i =
    match Kard_core.Domain_state.domain_of (Detector.domains d) ~obj_id:ids.(i) with
    | Kard_core.Domain_state.Read_write key -> key
    | Kard_core.Domain_state.Read_only | Kard_core.Domain_state.Not_accessed -> -1
  in
  check "keys 1, 2 and 3 handed out in turn" true (List.map key [ 0; 1; 2 ] = [ 1; 2; 3 ]);
  check_int "the new object reuses key 2, not the released key 1" 2 (key 3);
  let stats = Detector.stats d in
  check_int "one reuse" 1 stats.Detector.reuse_events;
  check_int "three fresh keys" 3 stats.Detector.fresh_events;
  check_int "no races" 0 (List.length (Detector.races d))

let test_lifo_unlock_enforced () =
  let machine, _ = micro_machine Config.default in
  let (_ : int) =
    Machine.spawn machine
      (Program.of_list
         [ Op.Lock { lock = 1; site = 1 };
           Op.Lock { lock = 2; site = 2 };
           Op.Unlock { lock = 1 } (* wrong order *) ])
  in
  check "non-LIFO unlock rejected" true
    (try
       ignore (Machine.run machine);
       false
     with Machine.Stuck _ | Invalid_argument _ -> true)

(* {1 The machine's one fault record} *)

(* The machine raises every fault into one record and overwrites it on
   the next fault, so a handler copies what it keeps: a race record
   logged from one fault still names that fault's thread, ip and time
   after a second fault has rewritten the record.  The detector is
   driven through its hooks, the faults through [Mpk_hw.try_access]. *)
let test_fault_record_outlived () =
  let hw = Mpk_hw.create () in
  let meta = Meta_table.create () in
  let clock = ref 0 in
  let env =
    { Hooks.hw; meta; cost = Kard_mpk.Cost_model.default; now = (fun () -> !clock); trace = None }
  in
  let d = Detector.create env in
  let h = Detector.hooks d in
  List.iter
    (fun tid ->
      Mpk_hw.register_thread hw tid;
      ignore (h.Hooks.on_spawn ~tid : int))
    [ 0; 1 ];
  let objs =
    Array.init 2 (fun id ->
        let m =
          { Obj_meta.id; base = Page.base_of_vpage (0x40 + (2 * id)); size = 64; reserved = 64;
            kind = Obj_meta.Heap 0; pages = 1 }
        in
        Meta_table.register meta m;
        ignore (h.Hooks.on_alloc ~tid:0 m : int);
        m)
  in
  let base i = objs.(i).Obj_meta.base in
  (* One access at [time]: the fault, if any, goes to the handler. *)
  let fault ~tid ~ip ~time addr access =
    clock := time;
    Mpk_hw.try_access hw ~tid ~addr ~access ~ip ~time < 0
    && (ignore (h.Hooks.on_fault (Mpk_hw.last_fault hw) : Hooks.fault_outcome);
        true)
  in
  (* Thread 0 identifies object 0 in section 1 and takes a key for it;
     thread 1 then writes it in section 2, under another lock. *)
  ignore (h.Hooks.on_lock ~tid:0 ~lock:1 ~site:1 : int);
  check "thread 0 identifies the object" true (fault ~tid:0 ~ip:3 ~time:100 (base 0) `Write);
  check "and then holds its key" false (fault ~tid:0 ~ip:4 ~time:110 (base 0) `Write);
  ignore (h.Hooks.on_lock ~tid:1 ~lock:2 ~site:2 : int);
  let first = Mpk_hw.last_fault hw in
  check "thread 1 faults on the held key" true (fault ~tid:1 ~ip:7 ~time:200 (base 0 + 8) `Write);
  check_int "the fault logs one race" 1 (List.length (Detector.races d));
  check "thread 0 faults on the other object" true (fault ~tid:0 ~ip:11 ~time:300 (base 1) `Read);
  let second = Mpk_hw.last_fault hw in
  check "one record, rewritten in place" true
    (second == first && second.Fault.thread = 0 && second.Fault.ip = 11
   && second.Fault.time = 300);
  match Detector.races d with
  | [ r ] ->
    let f = r.Race_record.faulting in
    check_int "the record keeps the first fault's thread" 1 f.Race_record.thread;
    check_int "its ip" 7 f.Race_record.ip;
    check_int "its time" 200 r.Race_record.time;
    check_int "its offset" 8 r.Race_record.offset;
    check "its access" true (f.Race_record.access = `Write)
  | records -> Alcotest.failf "expected one race record, got %d" (List.length records)

(* {1 Configuration validation} *)

(* Each rule of [Config.validate], broken once on top of the default. *)
let broken_rules =
  let d = Config.default in
  [ ("data_keys below 1", { d with Config.data_keys = 0 });
    ("data_keys above 13", { d with Config.data_keys = Kard_mpk.Pkey.data_key_count + 1 });
    ("software_fallback on", { d with Config.software_fallback = true });
    ("timestamp_pruning off", { d with Config.timestamp_pruning = false });
    ("prefer_recycle off", { d with Config.prefer_recycle = false });
    ("share_disjoint_sections off", { d with Config.share_disjoint_sections = false });
    ("negative exit_delay_cycles", { d with Config.exit_delay_cycles = -1 });
    ("negative vkeys", { d with Config.vkeys = -1 });
    ("sampling 0", { d with Config.sampling = 0.0 });
    ("sampling above 1", { d with Config.sampling = 1.5 });
    ("sampling NaN", { d with Config.sampling = Float.nan });
    ("negative sampling_epoch", { d with Config.sampling_epoch = -1 }) ]

let test_validate_rules () =
  check "the default is valid" true (Config.validate Config.default = Ok ());
  check "every budget in [1, 13] is valid" true
    (List.for_all
       (fun data_keys -> Config.validate { Config.default with Config.data_keys } = Ok ())
       (List.init Kard_mpk.Pkey.data_key_count succ));
  List.iter
    (fun (rule, config) ->
      match Config.validate config with
      | Ok () -> Alcotest.failf "Config.validate accepted %s" rule
      | Error _ -> ())
    broken_rules

(* The run-time entry point: no layer below clamps what it accepts. *)
let test_create_rejects_every_rule () =
  List.iter
    (fun (rule, config) ->
      match
        Runner.run_build ~threads:1 ~scale:1.0 ~seed:1 ~detector:(Runner.Kard config)
          (fun _ -> ())
          "empty"
      with
      | (_ : Runner.result) -> Alcotest.failf "Detector.create accepted %s" rule
      | exception Invalid_argument msg ->
        check (rule ^ ": named by Detector.create") true
          (String.starts_with ~prefix:"Detector.create: " msg))
    broken_rules

let () =
  Alcotest.run "kard_detector"
    [ ("scenarios", List.map scenario_case Race_suite.all);
      ( "seed robustness",
        List.map seed_robustness_case [ 1; 7; 13 ] @ List.map seed_robustness_negative [ 1; 7; 13 ] );
      ( "ablations",
        [ Alcotest.test_case "no interleaving" `Quick test_ablation_no_interleaving;
          Alcotest.test_case "no dedupe" `Quick test_ablation_no_dedupe;
          Alcotest.test_case "reactive only" `Quick test_ablation_reactive_only;
          Alcotest.test_case "key sharing pressure" `Quick test_key_sharing_only_under_pressure;
          Alcotest.test_case "one key + vkeys stays clean" `Quick
            test_vkeys_one_key_no_false_alarms;
          Alcotest.test_case "delay injection raises detection" `Slow
            test_delay_injection_raises_detection;
          Alcotest.test_case "delay injection stays clean" `Quick
            test_delay_injection_no_false_alarms;
          Alcotest.test_case "binary (by-lock) mode" `Quick test_binary_mode_still_detects ] );
      ( "mechanics",
        [ Alcotest.test_case "identification and domains" `Quick test_identification_and_domains;
          Alcotest.test_case "outside-CS access free" `Quick test_outside_cs_access_is_free;
          Alcotest.test_case "proactive second entry" `Quick test_proactive_second_entry;
          Alcotest.test_case "free in section" `Quick test_free_in_section_cleans_up;
          Alcotest.test_case "reuse after an inner exit's release" `Quick
            test_reuse_after_inner_release;
          Alcotest.test_case "LIFO unlock" `Quick test_lifo_unlock_enforced;
          Alcotest.test_case "a race record outlives the fault record" `Quick
            test_fault_record_outlived ] );
      ( "config",
        [ Alcotest.test_case "validate states every rule" `Quick test_validate_rules;
          Alcotest.test_case "create rejects every broken rule" `Quick
            test_create_rejects_every_rule ] ) ]
