(* Bechamel microbenchmarks of the hot layers' public functions, in host
   ns per call.  Each named in [Spec.micro_names]. *)

module Mpk_hw = Kard_mpk.Mpk_hw
module Pkey = Kard_mpk.Pkey
module Pkru = Kard_mpk.Pkru
module Perm = Kard_mpk.Perm

let make name per f = (name, per, Bechamel.Test.make ~name (Bechamel.Staged.stage f))

(* A thread whose PKRU grants key 3 on one tagged page, and denies key
   4 on another. *)
let mpk () =
  let hw = Mpk_hw.create () in
  Mpk_hw.register_thread hw 0;
  ignore (Mpk_hw.pkey_mprotect hw ~base:0x10000 ~len:4096 (Pkey.of_int 3) : int);
  ignore (Mpk_hw.pkey_mprotect hw ~base:0x20000 ~len:4096 (Pkey.of_int 4) : int);
  ignore (Mpk_hw.wrpkru hw ~tid:0 (Pkru.set Pkru.all_access (Pkey.of_int 4) Perm.No_access) : int);
  hw

let retag_pages = 16

(* Each test and the divisor that turns ns per call into ns per unit. *)
let tests () =
  let hw = mpk () in
  let pkrus = [| Pkru.all_access; Pkru.set Pkru.all_access (Pkey.of_int 4) Perm.No_access |] in
  let i = ref 0 in
  let tlb = Kard_mpk.Tlb.create () in
  let slots = Array.init 12 (fun k -> k + 1) in
  let vhit = Kard_mpk.Vkey.create ~pool:192 ~phys:slots in
  let vmiss = Kard_mpk.Vkey.create ~pool:192 ~phys:slots in
  let evictable ~slot:_ ~vkey:_ = true in
  let sampling = Kard_core.Sampling.create ~rate:0.1 ~epoch_cycles:2_000_000 ~seed:42 in
  let runnable = Kard_sched.Runnable_set.create ~capacity:64 () in
  for tid = 0 to 63 do Kard_sched.Runnable_set.add runnable tid done;
  (* The pick buffer grows with every pick, so start over now and then. *)
  let sched = ref (Kard_sched.Schedule.start (Kard_sched.Schedule.Random 42)) in
  let picks = ref 0 in
  let locks = Kard_sched.Lock_table.create () in
  let alloc =
    let aspace = Kard_vm.Address_space.create (Kard_vm.Phys_mem.create ()) in
    Kard_alloc.Unique_page_alloc.iface
      (Kard_alloc.Unique_page_alloc.create aspace ~meta:(Kard_alloc.Meta_table.create ())
         ~cost:Kard_mpk.Cost_model.default ())
  in
  [ make "mpk_hw.check_access_hit_ns" 1 (fun () ->
        Mpk_hw.try_access hw ~tid:0 ~addr:0x10010 ~access:`Read ~ip:0 ~time:0);
    make "mpk_hw.check_access_fault_ns" 1 (fun () ->
        Mpk_hw.try_access hw ~tid:0 ~addr:0x20010 ~access:`Read ~ip:0 ~time:0);
    make "mpk_hw.wrpkru_ns" 1 (fun () ->
        incr i;
        Mpk_hw.wrpkru hw ~tid:0 pkrus.(!i land 1));
    make "mpk_hw.retag_batch_ns_per_page" retag_pages (fun () ->
        incr i;
        Mpk_hw.retag_batch hw [ (0x100000, retag_pages * 4096) ] (Pkey.of_int (1 + (!i land 1))));
    make "tlb.access_ns" 1 (fun () ->
        incr i;
        Kard_mpk.Tlb.access tlb (!i land 127));
    make "pkru.set_ns" 1 (fun () -> Pkru.set Pkru.deny_all (Pkey.of_int 5) Perm.Read_write);
    make "vkey.ensure_hit_ns" 1 (fun () -> Kard_mpk.Vkey.ensure vhit 1 ~evictable);
    (* Cycling 24 keys over 12 slots misses on every call. *)
    make "vkey.ensure_miss_ns" 1 (fun () ->
        incr i;
        Kard_mpk.Vkey.ensure vmiss (1 + (!i mod 24)) ~evictable);
    make "sampling.sampled_obj_ns" 1 (fun () ->
        incr i;
        Kard_core.Sampling.sampled_obj sampling ~epoch:0 ~obj_id:(!i land 0xffff));
    make "schedule.pick_64_ns" 1 (fun () ->
        incr picks;
        if !picks land 0xffff = 0 then
          sched := Kard_sched.Schedule.start (Kard_sched.Schedule.Random 42);
        Kard_sched.Schedule.pick !sched ~runnable);
    make "lock_table.acquire_release_ns" 1 (fun () ->
        ignore (Kard_sched.Lock_table.acquire locks ~lock:0 ~tid:0 : Kard_sched.Lock_table.acquire_result);
        Kard_sched.Lock_table.release locks ~lock:0 ~tid:0);
    (* Alloc and free as a pair, so the address space stays bounded. *)
    make "unique_page_alloc.alloc_32b_ns" 1 (fun () ->
        let meta, _ = alloc.Kard_alloc.Alloc_iface.alloc ~site:0 32 in
        alloc.Kard_alloc.Alloc_iface.free meta) ]

(* Host ns per unit for every microbenchmark, [quota] seconds each. *)
let run ~quota =
  let open Bechamel in
  let clock = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:false () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  List.map
    (fun (name, per, test) ->
      let ns =
        match Test.elements test with
        | [ elt ] -> (
          match Analyze.OLS.estimates (Analyze.one ols clock (Benchmark.run cfg [ clock ] elt)) with
          | Some [ est ] -> est /. float_of_int per
          | _ -> nan)
        | _ -> nan
      in
      (name, ns))
    (tests ())
