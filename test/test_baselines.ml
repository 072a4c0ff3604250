(* Tests for the comparator detectors: vector clocks, the TSan-style
   happens-before detector, and the Eraser lockset detector. *)

module Vc = Kard_baselines.Vector_clock
module Tsan = Kard_baselines.Tsan
module Lockset = Kard_baselines.Lockset
module Machine = Kard_sched.Machine
module Program = Kard_sched.Program
module Op = Kard_sched.Op
module Builder = Kard_workloads.Builder

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* {1 Vector clocks} *)

let test_vc_basics () =
  let a = Vc.create ~threads:3 in
  Vc.tick a 0;
  Vc.tick a 0;
  Vc.tick a 1;
  check_int "component 0" 2 (Vc.get a 0);
  check_int "component 1" 1 (Vc.get a 1);
  let b = Vc.copy a in
  Vc.tick b 2;
  check "copy is independent" false (Vc.equal a b);
  check "a <= b" true (Vc.leq a b);
  check "not b <= a" false (Vc.leq b a)

let test_vc_join () =
  let a = Vc.create ~threads:2 in
  let b = Vc.create ~threads:2 in
  Vc.set a 0 5;
  Vc.set b 1 7;
  Vc.join ~into:a b;
  check_int "join keeps max 0" 5 (Vc.get a 0);
  check_int "join takes max 1" 7 (Vc.get a 1)

let vc_leq_partial_order =
  QCheck.Test.make ~name:"leq is reflexive and join is an upper bound" ~count:200
    QCheck.(pair (list_of_size (Gen.return 4) (int_bound 50)) (list_of_size (Gen.return 4) (int_bound 50)))
    (fun (xs, ys) ->
      let of_list l =
        let v = Vc.create ~threads:4 in
        List.iteri (fun i x -> Vc.set v i x) l;
        v
      in
      let a = of_list xs and b = of_list ys in
      let j = Vc.copy a in
      Vc.join ~into:j b;
      Vc.leq a a && Vc.leq a j && Vc.leq b j)

(* {1 Machine-level baseline runs} *)

let run_two_thread ~detector a_ops b_ops =
  let tsan_cell = ref None in
  let lockset_cell = ref None in
  let make_detector =
    match detector with
    | `Tsan -> Tsan.make ~max_threads:4 ~cell:tsan_cell
    | `Lockset -> Lockset.make ~cell:lockset_cell
  in
  let machine = Machine.create ~seed:5 ~allocator:Machine.Native ~make_detector () in
  let base = ref 0 in
  let ready () = !base <> 0 in
  let t0 =
    Program.concat
      [ Program.of_list
          [ Op.Alloc { size = 64; site = 0; on_result = (fun m -> base := m.Kard_alloc.Obj_meta.base) } ];
        Program.repeat 10 (fun _ -> Program.delay (fun () -> Program.of_list (a_ops !base))) ]
  in
  let t1 =
    Program.append (Builder.wait_until ready)
      (Program.repeat 10 (fun _ -> Program.delay (fun () -> Program.of_list (b_ops !base))))
  in
  let (_ : int) = Machine.spawn machine t0 in
  let (_ : int) = Machine.spawn machine t1 in
  let (_ : Machine.report) = Machine.run machine in
  (!tsan_cell, !lockset_cell)

let locked ~lock ~site base = Builder.critical_section ~lock ~site [ Op.Write base ]

let test_tsan_detects_unsynchronized () =
  let tsan, _ =
    run_two_thread ~detector:`Tsan (fun b -> [ Op.Write b ]) (fun b -> [ Op.Write b ])
  in
  let t = Option.get tsan in
  check "race found" true (List.length (Tsan.races t) >= 1);
  check "not ILU (no locks)" true (Tsan.ilu_races t = [])

let test_tsan_lock_synchronizes () =
  let tsan, _ =
    run_two_thread ~detector:`Tsan (locked ~lock:1 ~site:1) (locked ~lock:1 ~site:2)
  in
  check_int "same lock: no race" 0 (List.length (Tsan.races (Option.get tsan)))

let test_tsan_different_locks_race () =
  let tsan, _ =
    run_two_thread ~detector:`Tsan (locked ~lock:1 ~site:1) (locked ~lock:2 ~site:2)
  in
  let t = Option.get tsan in
  check "different locks race" true (List.length (Tsan.races t) >= 1);
  check "classified ILU" true (List.length (Tsan.ilu_races t) >= 1)

let test_tsan_dedupe () =
  let tsan, _ =
    run_two_thread ~detector:`Tsan (fun b -> [ Op.Write b ]) (fun b -> [ Op.Write b ])
  in
  (* 10 rounds of conflict collapse into one record per thread pair. *)
  check "records deduplicated" true (List.length (Tsan.races (Option.get tsan)) <= 2)

let test_lockset_empty_intersection () =
  let _, lockset =
    run_two_thread ~detector:`Lockset (locked ~lock:1 ~site:1) (locked ~lock:2 ~site:2)
  in
  check "warning issued" true (List.length (Lockset.warnings (Option.get lockset)) >= 1)

let test_lockset_common_lock_quiet () =
  let _, lockset =
    run_two_thread ~detector:`Lockset (locked ~lock:1 ~site:1) (locked ~lock:1 ~site:2)
  in
  check_int "no warning" 0 (List.length (Lockset.warnings (Option.get lockset)))

let test_lockset_read_sharing_quiet () =
  let _, lockset =
    run_two_thread ~detector:`Lockset
      (fun b -> Builder.critical_section ~lock:1 ~site:1 [ Op.Read b ])
      (fun b -> Builder.critical_section ~lock:2 ~site:2 [ Op.Read b ])
  in
  check_int "shared reads never warn" 0 (List.length (Lockset.warnings (Option.get lockset)))

let test_lockset_state_machine () =
  let phys = Kard_vm.Phys_mem.create () in
  let aspace = Kard_vm.Address_space.create phys in
  let meta = Kard_alloc.Meta_table.create () in
  let env =
    { Kard_sched.Hooks.hw = Kard_mpk.Mpk_hw.create ();
      meta;
      cost = Kard_mpk.Cost_model.default;
      now = (fun () -> 0);
      trace = None }
  in
  ignore aspace;
  let l = Lockset.create env in
  let hooks = Kard_sched.Hooks.access_of (Lockset.hooks l) in
  let addr = 0x10000 in
  ignore (hooks.Kard_sched.Hooks.on_write ~tid:0 ~addr);
  check "exclusive after first" true (Lockset.state_of l addr = Lockset.Exclusive 0);
  ignore (hooks.Kard_sched.Hooks.on_read ~tid:1 ~addr);
  check "shared after second thread reads" true (Lockset.state_of l addr = Lockset.Shared);
  ignore (hooks.Kard_sched.Hooks.on_write ~tid:1 ~addr);
  check "shared-modified after write" true (Lockset.state_of l addr = Lockset.Shared_modified)

let () =
  Alcotest.run "kard_baselines"
    [ ( "vector_clock",
        [ Alcotest.test_case "basics" `Quick test_vc_basics;
          Alcotest.test_case "join" `Quick test_vc_join;
          QCheck_alcotest.to_alcotest vc_leq_partial_order ] );
      ( "tsan",
        [ Alcotest.test_case "unsynchronized race" `Quick test_tsan_detects_unsynchronized;
          Alcotest.test_case "lock synchronizes" `Quick test_tsan_lock_synchronizes;
          Alcotest.test_case "different locks race" `Quick test_tsan_different_locks_race;
          Alcotest.test_case "dedupe" `Quick test_tsan_dedupe ] );
      ( "lockset",
        [ Alcotest.test_case "empty intersection warns" `Quick test_lockset_empty_intersection;
          Alcotest.test_case "common lock quiet" `Quick test_lockset_common_lock_quiet;
          Alcotest.test_case "read sharing quiet" `Quick test_lockset_read_sharing_quiet;
          Alcotest.test_case "state machine" `Quick test_lockset_state_machine ] ) ]
