(* The virtual-key layer (DESIGN.md §11): clock residency and the
   pinning predicate in the Vkey table, the identity-mode contract,
   and the whole-run guarantees — results byte-identical at any
   --jobs, batched or not, with a virtual pool enabled, plus the
   key-pressure precision story that BENCH_pr8.json tracks at full
   scale. *)

module Vkey = Kard_mpk.Vkey
module Pkey = Kard_mpk.Pkey
module Config = Kard_core.Config
module Keypressure = Kard_workloads.Keypressure
module Runner = Kard_harness.Runner
module Json_report = Kard_harness.Json_report
module Experiments = Kard_harness.Experiments
module Defaults = Kard_harness.Defaults

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let all_evictable ~slot:_ ~vkey:_ = true
let none_evictable ~slot:_ ~vkey:_ = false

(* {1 The table: identity mode} *)

let test_identity () =
  let t = Vkey.identity in
  check "not virtualized" false (Vkey.virtualized t);
  check_int "phys_of is the key itself" 5 (Vkey.phys_of t 5);
  check_int "vkey_of_phys is the key itself" 5 (Vkey.vkey_of_phys t 5);
  check "always resident" true (Vkey.resident t 7);
  (match Vkey.ensure t 7 ~evictable:none_evictable with
  | Vkey.Hit 7 -> ()
  | _ -> Alcotest.fail "identity ensure must hit the key itself");
  let s = Vkey.stats t in
  check_int "counters stay zero" 0
    (s.Vkey.st_hits + s.Vkey.st_misses + s.Vkey.st_loads + s.Vkey.st_evictions
   + s.Vkey.st_stalls)

let test_create_validation () =
  check "pool 0 is identity" false (Vkey.virtualized (Vkey.create ~pool:0 ~phys:[| 1; 2 |]));
  check "pool below the slot count rejected" true
    (try
       ignore (Vkey.create ~pool:1 ~phys:[| 1; 2 |]);
       false
     with Invalid_argument _ -> true);
  check "repeated slot key rejected" true
    (try
       ignore (Vkey.create ~pool:8 ~phys:[| 3; 3 |]);
       false
     with Invalid_argument _ -> true);
  let t = Vkey.create ~pool:6 ~phys:[| 1; 2; 3 |] in
  check "virtualized" true (Vkey.virtualized t);
  check_int "pool size" 6 (Vkey.pool t);
  check_int "slot count" 3 (Vkey.slot_count t);
  check_int "nothing resident yet" 0 (Vkey.resident_count t);
  check "key outside the pool rejected" true
    (try
       ignore (Vkey.phys_of t 7);
       false
     with Invalid_argument _ -> true)

(* {1 The table: clock residency} *)

let test_clock_load_hit_evict () =
  let t = Vkey.create ~pool:5 ~phys:[| 4; 9 |] in
  (match Vkey.ensure t 1 ~evictable:all_evictable with
  | Vkey.Loaded { slot = 4; evicted = -1 } -> ()
  | _ -> Alcotest.fail "first load takes the free slot 4");
  (match Vkey.ensure t 2 ~evictable:all_evictable with
  | Vkey.Loaded { slot = 9; evicted = -1 } -> ()
  | _ -> Alcotest.fail "second load takes the free slot 9");
  (match Vkey.ensure t 1 ~evictable:all_evictable with
  | Vkey.Hit 4 -> ()
  | _ -> Alcotest.fail "resident key hits");
  check_int "both slots resident" 2 (Vkey.resident_count t);
  check_int "reverse map" 2 (Vkey.vkey_of_phys t 9);
  check_int "free query on a non-slot key" (-1) (Vkey.vkey_of_phys t 7);
  (* Both reference bits are set: the clock spends them in one sweep
     and displaces the first slot it revisits. *)
  (match Vkey.ensure t 3 ~evictable:all_evictable with
  | Vkey.Loaded { slot = 4; evicted = 1 } -> ()
  | _ -> Alcotest.fail "second-chance sweep must evict vkey 1 from slot 4");
  check_int "evicted key is unbacked" (-1) (Vkey.phys_of t 1);
  check "evicted key not resident" false (Vkey.resident t 1);
  let s = Vkey.stats t in
  check_int "hits" 1 s.Vkey.st_hits;
  check_int "misses" 3 s.Vkey.st_misses;
  check_int "loads" 3 s.Vkey.st_loads;
  check_int "evictions" 1 s.Vkey.st_evictions

let test_pinning_and_stall () =
  let t = Vkey.create ~pool:4 ~phys:[| 1; 2 |] in
  ignore (Vkey.ensure t 1 ~evictable:all_evictable);
  ignore (Vkey.ensure t 2 ~evictable:all_evictable);
  (match Vkey.ensure t 3 ~evictable:none_evictable with
  | Vkey.Full -> ()
  | _ -> Alcotest.fail "every slot pinned must stall");
  check_int "stall counted" 1 (Vkey.stats t).Vkey.st_stalls;
  check "residency unchanged by a stall" true (Vkey.resident t 1 && Vkey.resident t 2);
  (* A predicate pinning only vkey 1 steers the clock to the other
     slot, whatever the hand position. *)
  (match Vkey.ensure t 3 ~evictable:(fun ~slot:_ ~vkey -> vkey <> 1) with
  | Vkey.Loaded { evicted = 2; _ } -> ()
  | _ -> Alcotest.fail "clock must skip the pinned slot and evict vkey 2");
  check "pinned key survived" true (Vkey.resident t 1)

let test_retag_accounting () =
  let t = Vkey.create ~pool:3 ~phys:[| 1 |] in
  Vkey.note_retag_pages t 7;
  Vkey.note_retag_pages t 5;
  check_int "retag pages accumulate" 12 (Vkey.stats t).Vkey.st_retag_pages

(* {1 Whole runs: determinism with a virtual pool} *)

(* keys-10k at a smoke scale, pool = 2x sections (the tracked sweep's
   own sizing). *)
let smoke_scale = 0.05
let smoke_pool = Experiments.default_keys_pool Keypressure.default.Keypressure.sections

let vkey_config () = { (Defaults.kard_config ()) with Config.vkeys = smoke_pool }

let test_batch_identity () =
  let run interp =
    Runner.run ~interp ~scale:smoke_scale ~detector:(Runner.Kard (vkey_config ()))
      Keypressure.keys_10k
  in
  let batched = run `Compiled and unbatched = run `Thunks in
  check "result identical batched vs unbatched" true (batched = unbatched);
  check "JSON identical batched vs unbatched" true
    (Json_report.of_result batched = Json_report.of_result unbatched)

let smoke_keys ~jobs =
  Experiments.keys ~jobs
    ~points:[ ("10k", Keypressure.default) ]
    ~data_keys:[ 4; Pkey.data_key_count ]
    ~scale:smoke_scale ()

let test_jobs_identity () =
  let b1 = smoke_keys ~jobs:1 and b4 = smoke_keys ~jobs:4 in
  check "keys sweep identical at 1 vs 4 jobs" true (b1 = b4);
  check "keys JSON identical at 1 vs 4 jobs" true
    (Json_report.of_keys_bench ~build:"test" b1 = Json_report.of_keys_bench ~build:"test" b4)

(* {1 Whole runs: the precision story} *)

let row b mode =
  match
    List.find_opt (fun r -> r.Experiments.kp_mode = mode) b.Experiments.kp_rows
  with
  | Some r -> r
  | None -> Alcotest.failf "sweep has no %s row" mode

(* The sweep's reason to exist: with only the physical keys, recycling
   churns through lock associations and silently re-identifies planted
   victims; a virtual pool past the section count keeps every
   association alive, so strictly more of the planted races survive as
   records (BENCH_pr8.json shows the same at full scale). *)
let test_precision_and_counters () =
  let b = smoke_keys ~jobs:2 in
  let phys = row b (Printf.sprintf "phys-%d" Pkey.data_key_count) in
  let virt = row b (Printf.sprintf "vkeys-%d" Pkey.data_key_count) in
  check "virtual rows carry the pool size" true
    (virt.Experiments.kp_vkeys = smoke_pool && phys.Experiments.kp_vkeys = 0);
  check "same planted denominator" true
    (phys.Experiments.kp_planted = virt.Experiments.kp_planted
    && phys.Experiments.kp_planted > 0);
  check "vkeys detect strictly more planted races" true
    (virt.Experiments.kp_detected > phys.Experiments.kp_detected);
  check "vkeys stop the recycling churn" true
    (virt.Experiments.kp_recycling < phys.Experiments.kp_recycling);
  check "the pool rotates through the slots" true
    (virt.Experiments.kp_vkey_loads > 0 && virt.Experiments.kp_vkey_evictions > 0);
  check "physical rows have no vkey traffic" true
    (phys.Experiments.kp_vkey_loads = 0
    && phys.Experiments.kp_vkey_evictions = 0
    && phys.Experiments.kp_vkey_stalls = 0);
  (* The 4-key ablation: fewer residency slots than runnable threads
     forces the documented stall (miss-with-all-slots-pinned) window. *)
  let tight = row b "vkeys-4" in
  check "tight residency stalls" true (tight.Experiments.kp_vkey_stalls > 0)

let () =
  Alcotest.run "kard_vkeys"
    [ ( "table",
        [ Alcotest.test_case "identity mode" `Quick test_identity;
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "clock load/hit/evict" `Quick test_clock_load_hit_evict;
          Alcotest.test_case "pinning and stall" `Quick test_pinning_and_stall;
          Alcotest.test_case "retag accounting" `Quick test_retag_accounting ] );
      ( "determinism",
        [ Alcotest.test_case "keys-10k batched vs unbatched" `Quick test_batch_identity;
          Alcotest.test_case "keys sweep 1 vs 4 jobs" `Quick test_jobs_identity ] );
      ( "precision",
        [ Alcotest.test_case "vkeys beat the physical keys" `Quick
            test_precision_and_counters ] ) ]
