(* Run the whole catalog under the self-checking validator: every
   scenario and workload must complete without violating Kard's PKRU
   discipline, key exclusivity, or domain-tag consistency. *)

module Machine = Kard_sched.Machine
module Validator = Kard_core.Validator
module Race_suite = Kard_workloads.Race_suite
module Registry = Kard_workloads.Registry
module Spec = Kard_workloads.Spec

let check = Alcotest.(check bool)

let run_validated ?config ?(cell = ref None) build =
  let vcell = ref None in
  let machine =
    Machine.create ~seed:42 ~allocator:Machine.Unique_page
      ~make_detector:(Validator.make ?config ~cell ~vcell)
      ()
  in
  build machine;
  let (_ : Machine.report) = Machine.run machine in
  Option.get !vcell

let scenario_case (s : Race_suite.t) =
  Alcotest.test_case s.Race_suite.name `Quick (fun () ->
      let v = run_validated ~config:s.Race_suite.config s.Race_suite.build in
      check "checks ran" true (Validator.checks_performed v > 0))

let workload_case (spec : Spec.t) =
  Alcotest.test_case spec.Spec.name `Slow (fun () ->
      let v =
        run_validated (fun machine ->
            spec.Spec.build ~threads:spec.Spec.default_threads ~scale:0.002 ~seed:42 machine)
      in
      check "checks ran" true (Validator.checks_performed v > 0))

(* The ablation's starved configurations on its workload: one data
   key, bare and under a 192-key virtual pool.  Sections share the
   key in both, and the PKRU and domain-tag checks must hold. *)
let test_one_key_memcached () =
  let memcached = Registry.find "memcached" in
  List.iter
    (fun vkeys ->
      let config = { Kard_core.Config.default with Kard_core.Config.data_keys = 1; vkeys } in
      let cell = ref None in
      let v =
        run_validated ~config ~cell (fun machine ->
            memcached.Spec.build ~threads:memcached.Spec.default_threads ~scale:0.002 ~seed:42
              machine)
      in
      let st = Kard_core.Detector.stats (Option.get !cell) in
      check (Printf.sprintf "vkeys %d: checks ran" vkeys) true (Validator.checks_performed v > 0);
      check (Printf.sprintf "vkeys %d: the key was shared" vkeys) true
        (st.Kard_core.Detector.sharing_events > 0))
    [ 0; 192 ]

(* keys-10k under a virtual pool, the eviction-heavy runs: about
   4,000 evictions at 192 keys, and at 16 keys over the 12 residency
   slots a load every few sections.  The domain-tag check then sees
   pages on every load and eviction path. *)
let test_keys_vkeys () =
  let keys = Registry.find "keys-10k" in
  List.iter
    (fun vkeys ->
      let config = { Kard_core.Config.default with Kard_core.Config.vkeys } in
      let cell = ref None in
      let v =
        run_validated ~config ~cell (fun machine ->
            keys.Spec.build ~threads:8 ~scale:0.05 ~seed:42 machine)
      in
      let st = Kard_core.Detector.stats (Option.get !cell) in
      check (Printf.sprintf "vkeys %d: checks ran" vkeys) true (Validator.checks_performed v > 0);
      check (Printf.sprintf "vkeys %d: keys were evicted" vkeys) true
        (st.Kard_core.Detector.vkey_evictions > 0))
    [ 192; 16 ]

(* The validator must actually catch a broken runtime: corrupt the
   page table (which the detector never restores) so an object in the
   Read-write domain is no longer tagged with its key — the sampled
   domain-tag check at section exit must trip. *)
let test_validator_catches_violation () =
  let cell = ref None in
  let vcell = ref None in
  let env_ref = ref None in
  let machine =
    Machine.create ~seed:1 ~allocator:Machine.Unique_page
      ~make_detector:(fun env ->
        env_ref := Some env;
        Validator.make ~cell ~vcell env)
      ()
  in
  let base = ref 0 in
  let corrupt () =
    (* Retag the identified object's page behind the runtime's back. *)
    let env = Option.get !env_ref in
    let (_ : int) =
      Kard_mpk.Mpk_hw.pkey_mprotect env.Kard_sched.Hooks.hw ~base:!base ~len:8
        Kard_mpk.Pkey.k_def
    in
    ()
  in
  let prog =
    Kard_sched.Program.concat
      [ Kard_sched.Program.of_list
          [ Kard_sched.Op.Alloc
              { size = 32; site = 1; on_result = (fun m -> base := m.Kard_alloc.Obj_meta.base) };
            Kard_sched.Op.Lock { lock = 1; site = 1 } ];
        Kard_sched.Program.delay (fun () ->
            Kard_sched.Program.of_list [ Kard_sched.Op.Write !base ]);
        Kard_sched.Program.of_list
          [ Kard_sched.Op.Alloc { size = 8; site = 2; on_result = (fun _ -> corrupt ()) };
            Kard_sched.Op.Unlock { lock = 1 } ] ]
  in
  let (_ : int) = Machine.spawn machine prog in
  check "violation detected" true
    (try
       ignore (Machine.run machine);
       false
     with Validator.Violation _ -> true)

let () =
  Alcotest.run "kard_validator"
    [ ("scenarios", List.map scenario_case Race_suite.all);
      ("workloads", List.map workload_case Registry.extended);
      ( "meta",
        [ Alcotest.test_case "catches a corrupted runtime" `Quick
            test_validator_catches_violation;
          Alcotest.test_case "one data key, bare and with vkeys" `Slow test_one_key_memcached;
          Alcotest.test_case "keys-10k, evicting vkeys" `Slow test_keys_vkeys ] ) ]
