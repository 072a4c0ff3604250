(* The virtual-key layer (DESIGN.md §11): clock residency and the
   pinning predicate in the Vkey table, the identity-mode contract,
   and the whole-run guarantees — results byte-identical at any
   --jobs and on either interpreter, with a virtual pool enabled,
   plus the key-pressure precision story that BENCH_pr8.json tracks
   at full scale. *)

module Vkey = Kard_mpk.Vkey
module Pkey = Kard_mpk.Pkey
module Page = Kard_mpk.Page
module Fault = Kard_mpk.Fault
module Mpk_hw = Kard_mpk.Mpk_hw
module Page_table = Kard_mpk.Page_table
module Cost_model = Kard_mpk.Cost_model
module Obj_meta = Kard_alloc.Obj_meta
module Meta_table = Kard_alloc.Meta_table
module Hooks = Kard_sched.Hooks
module Machine = Kard_sched.Machine
module Trace = Kard_obs.Trace
module Event = Kard_obs.Event
module Detector = Kard_core.Detector
module Domain_state = Kard_core.Domain_state
module Config = Kard_core.Config
module Keypressure = Kard_workloads.Keypressure
module Runner = Kard_harness.Runner
module Json_report = Kard_harness.Json_report
module Experiments = Kard_harness.Experiments
module Pool = Kard_harness.Pool
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

let test_interp_identity () =
  let run interp =
    Runner.run ~interp ~scale:smoke_scale ~detector:(Runner.Kard (vkey_config ()))
      (Runner.Spec Keypressure.keys_10k)
  in
  let compiled = run `Compiled and thunks = run `Thunks in
  check "result identical compiled vs thunks" true (compiled = thunks);
  check "JSON identical compiled vs thunks" true
    (Json_report.of_result compiled = Json_report.of_result thunks)

let smoke_keys ~jobs =
  Pool.execute ~jobs
    (Experiments.keys_plan
       ~points:[ ("10k", Keypressure.default) ]
       ~data_keys:[ 4; Pkey.data_key_count ]
       ~scale:smoke_scale ())

let test_jobs_identity () =
  let b1 = smoke_keys ~jobs:1 and b4 = smoke_keys ~jobs:4 in
  check "keys sweep identical at 1 vs 4 jobs" true (b1 = b4);
  check "keys JSON identical at 1 vs 4 jobs" true
    (Json_report.of_keys_bench b1 = Json_report.of_keys_bench b4)

(* {1 One vkey load, against the list form} *)

let pkey_mprotects trace =
  List.filter_map
    (fun (e : Event.t) ->
      match e.Event.kind with
      | Event.Pkey_mprotect { base; pages; pkey } -> Some (base, pages, pkey)
      | _ -> None)
    (Trace.events trace)

(* The detector retags a loaded key's objects by walking the key's
   object set in place.  The reference is the list form it replaced:
   [Mpk_hw.retag_batch] over the ranges of [objects_with_key], in that
   list's order, for the evicted key and then the loaded one.  One
   thread drives the hooks directly: two sections put three and two
   objects under virtual keys 1 and 2, a third section's fresh key 3
   evicts key 1 from the two residency slots, and re-entering the
   first section faults key 1 back in, evicting key 2. *)
let test_retag_equivalence () =
  let trace = Trace.create () in
  let hw = Mpk_hw.create ~trace () in
  let meta = Meta_table.create () in
  let cost = Cost_model.default in
  let env = { Hooks.hw; meta; cost; now = (fun () -> 0); trace = Some trace } in
  let config = { Config.default with Config.vkeys = 4; data_keys = 2 } in
  let d = Detector.create ~config env in
  let h = Detector.hooks d in
  Mpk_hw.register_thread hw 0;
  ignore (h.Hooks.on_spawn ~tid:0 : int);
  (* Objects of 1-3 pages on their own pages, ids 0..5. *)
  let next_vpage = ref 0x40 in
  let objs =
    Array.init 6 (fun id ->
        let pages = 1 + (id mod 3) in
        let base = Page.base_of_vpage !next_vpage + 64 in
        next_vpage := !next_vpage + pages + 1;
        let m =
          { Obj_meta.id; base; size = (pages * Page.size) - 64; reserved = pages * Page.size;
            kind = Obj_meta.Heap 0; pages }
        in
        Meta_table.register meta m;
        ignore (h.Hooks.on_alloc ~tid:0 m : int);
        m)
  in
  let write ?(pkey = Pkey.k_na) (m : Obj_meta.t) =
    h.Hooks.on_fault
      (Fault.make ~addr:m.Obj_meta.base ~pkey ~access:`Write ~thread:0 ~ip:0 ~time:0)
  in
  let section lock members =
    ignore (h.Hooks.on_lock ~tid:0 ~lock ~site:lock : int);
    List.iter (fun i -> ignore (write objs.(i) : Hooks.fault_outcome)) members;
    ignore (h.Hooks.on_unlock ~tid:0 ~lock : int)
  in
  section 1 [ 0; 1; 2 ];
  section 2 [ 3; 4 ];
  section 3 [ 5 ];
  let domains = Detector.domains d in
  (* Virtual mode's evict tag is the last data key (DESIGN.md §11). *)
  let evict_tag = Page_table.pkey_of_addr (Mpk_hw.page_table hw) objs.(0).Obj_meta.base in
  check "key 1 was evicted, its pages carry the evict tag" true
    ((Detector.vkey_stats d).Vkey.st_evictions = 1
    && Pkey.to_int evict_tag = Pkey.data_key_count
    && Pkey.equal evict_tag (Detector.expected_page_key d ~key:1));
  ignore (h.Hooks.on_lock ~tid:0 ~lock:1 ~site:1 : int);
  let before = Mpk_hw.stats hw in
  let seen = List.length (pkey_mprotects trace) in
  let outcome = write ~pkey:evict_tag objs.(0) in
  let after = Mpk_hw.stats hw in
  let vkey, slot, evicted, load_pages =
    match
      List.filter_map
        (fun (e : Event.t) ->
          match e.Event.kind with
          | Event.Vkey_load { vkey; slot; evicted; pages } -> Some (vkey, slot, evicted, pages)
          | _ -> None)
        (Trace.events trace)
      |> List.rev
    with
    | last :: _ -> last
    | [] -> Alcotest.fail "no vkey load traced"
  in
  check_int "the miss loads key 1" 1 vkey;
  check "the load evicts a key" true (evicted > 0);
  (* The reference: the ranges the list form built, applied to a fresh
     machine of the same cost model. *)
  let ranges key =
    List.filter_map
      (fun id ->
        match Meta_table.find_id meta id with
        | Some (m : Obj_meta.t) ->
          Some
            ( Page.base_of_vpage (Page.vpage_of_addr m.Obj_meta.base),
              m.Obj_meta.pages * Page.size )
        | None -> None)
      (Domain_state.objects_with_key domains key)
  in
  let evicted_ranges = ranges evicted and loaded_ranges = ranges vkey in
  check "both batches span several objects" true
    (List.length evicted_ranges >= 2 && List.length loaded_ranges >= 2);
  let ref_trace = Trace.create () in
  let ref_hw = Mpk_hw.create ~cost ~trace:ref_trace () in
  let evicted_pages, evict_cycles = Mpk_hw.retag_batch ref_hw evicted_ranges evict_tag in
  let loaded_pages, load_cycles = Mpk_hw.retag_batch ref_hw loaded_ranges (Pkey.of_int slot) in
  let ref_stats = Mpk_hw.stats ref_hw in
  check_int "pages in the load event" (evicted_pages + loaded_pages) load_pages;
  List.iter
    (fun (base, len) ->
      for vp = Page.vpage_of_addr base to Page.vpage_of_addr (base + len - 1) do
        check_int
          (Printf.sprintf "tag of vpage %d" vp)
          (Pkey.to_int (Page_table.pkey_of_vpage (Mpk_hw.page_table ref_hw) vp))
          (Pkey.to_int (Page_table.pkey_of_vpage (Mpk_hw.page_table hw) vp))
      done)
    (evicted_ranges @ loaded_ranges);
  (* The retried access then takes an uncontested reactive
     acquisition, 3 map ops. *)
  check_int "cycles"
    (cost.Cost_model.vkey_load + evict_cycles + load_cycles + (3 * cost.Cost_model.map_op))
    outcome.Hooks.fault_cycles;
  check_int "pkey_mprotect calls" ref_stats.Mpk_hw.pkey_mprotect_calls
    (after.Mpk_hw.pkey_mprotect_calls - before.Mpk_hw.pkey_mprotect_calls);
  check_int "pages retagged" ref_stats.Mpk_hw.pages_retagged
    (after.Mpk_hw.pages_retagged - before.Mpk_hw.pages_retagged);
  let emitted = List.filteri (fun i _ -> i >= seen) (pkey_mprotects trace) in
  check "trace events: base, pages and key of each batch" true
    (emitted = pkey_mprotects ref_trace)

(* {1 The fault-path allocation contract} *)

(* keys-10k under a virtual pool is the fault-heavy workload: about
   one step in seven faults, and nearly half of the faults load a
   virtual key.  Faults, vkey loads and section entries must allocate
   in proportion to neither the objects they retag nor the entries
   they walk (DESIGN.md §5).  The configuration is explicit so that no
   $KARD_* sweep changes what is measured.  Dev-profile reference:
   about 19 words/step, from about 80 before retags walked the key's
   objects in place and 30.5 while each iteration built a fresh
   program builder. *)
let test_fault_path_allocation () =
  let detector = Runner.Kard { Config.default with Config.vkeys = 192 } in
  let run () =
    Runner.run ~threads:8 ~scale:0.2 ~seed:42 ~detector (Runner.Spec Keypressure.keys_10k)
  in
  ignore (run () : Runner.result);
  let before = Gc.minor_words () in
  let result = run () in
  let minor = Gc.minor_words () -. before in
  let steps = result.Runner.report.Machine.steps in
  let per_step = minor /. float_of_int steps in
  check "steps sane" true (steps > 40_000);
  if per_step > 25.0 then
    Alcotest.failf "fault-path allocation budget broken: %.2f minor words/step (budget 25)"
      per_step

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
      ( "retag",
        [ Alcotest.test_case "one load equals the list form" `Quick test_retag_equivalence ] );
      ( "allocation",
        [ Alcotest.test_case "fault-path budget" `Slow test_fault_path_allocation ] );
      ( "determinism",
        [ Alcotest.test_case "keys-10k compiled vs thunks" `Quick test_interp_identity;
          Alcotest.test_case "keys sweep 1 vs 4 jobs" `Quick test_jobs_identity ] );
      ( "precision",
        [ Alcotest.test_case "vkeys beat the physical keys" `Quick
            test_precision_and_counters ] ) ]
