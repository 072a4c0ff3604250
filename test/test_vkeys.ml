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
  | Vkey.Hit -> check_int "identity ensure hits the key itself" 7 (Vkey.phys_of t 7)
  | Vkey.Loaded | Vkey.Full -> Alcotest.fail "identity ensure must hit the key itself");
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
  (* A load reports its slot through [phys_of] and the displaced key
     through [evicted]. *)
  let loaded key ~slot ~evicted =
    Vkey.ensure t key ~evictable:all_evictable = Vkey.Loaded
    && Vkey.phys_of t key = slot
    && Vkey.evicted t = evicted
  in
  check "first load takes the free slot 4" true (loaded 1 ~slot:4 ~evicted:(-1));
  check "second load takes the free slot 9" true (loaded 2 ~slot:9 ~evicted:(-1));
  check "resident key hits" true
    (Vkey.ensure t 1 ~evictable:all_evictable = Vkey.Hit && Vkey.phys_of t 1 = 4);
  check_int "both slots resident" 2 (Vkey.resident_count t);
  check_int "reverse map" 2 (Vkey.vkey_of_phys t 9);
  check_int "free query on a non-slot key" (-1) (Vkey.vkey_of_phys t 7);
  (* Both reference bits are set: the clock spends them in one sweep
     and displaces the first slot it revisits. *)
  check "second-chance sweep evicts vkey 1 from slot 4" true (loaded 3 ~slot:4 ~evicted:1);
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
  check "clock skips the pinned slot and evicts vkey 2" true
    (Vkey.ensure t 3 ~evictable:(fun ~slot:_ ~vkey -> vkey <> 1) = Vkey.Loaded
    && Vkey.evicted t = 2);
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

(* A vkey load rebinds the evicted and the loaded key's pages without
   visiting them.  The reference is the list form of the retag:
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
    (Hooks.fault_cycles outcome);
  check_int "pkey_mprotect calls" ref_stats.Mpk_hw.pkey_mprotect_calls
    (after.Mpk_hw.pkey_mprotect_calls - before.Mpk_hw.pkey_mprotect_calls);
  check_int "pages retagged" ref_stats.Mpk_hw.pages_retagged
    (after.Mpk_hw.pages_retagged - before.Mpk_hw.pages_retagged);
  let emitted = List.filteri (fun i _ -> i >= seen) (pkey_mprotects trace) in
  check "trace events: base, pages and key of each batch" true
    (emitted = pkey_mprotects ref_trace)

(* {1 Rebinding against the eager walk} *)

(* The eager reference: what a detector that retagged every page of
   the evicted and the loaded key's objects at each vkey load would
   leave in the page table and report in its counters.  It replays
   the detector's trace hook by hook.  An ordinary [Pkey_mprotect]
   writes its range.  A [Vkey_load] walks the two keys' object sets
   as they stood before the hook (a hook loads keys before it changes
   any domain) and retags their pages object by object, one counted
   batch per non-empty set; the detector must have traced exactly
   those batches, base and all, just before the load. *)
module Eager = struct
  type t = {
    pt : Page_table.t;
    mutable calls : int;
    mutable pages : int;
    mutable retag_pages : int;
  }

  let create () = { pt = Page_table.create (); calls = 0; pages = 0; retag_pages = 0 }

  let write e (base, pages, pkey) =
    let len = pages * Page.size in
    ignore (Page_table.set_pkey_range e.pt ~base ~len (Pkey.of_int pkey) : int);
    e.calls <- e.calls + 1;
    e.pages <- e.pages + pages

  (* One key's batch: the retags, and the trace event it must match
     ([None] for an empty set, which counts nothing). *)
  let batch e ranges pkey =
    let pages =
      List.fold_left
        (fun acc (base, len) -> acc + Page_table.set_pkey_range e.pt ~base ~len pkey)
        0 ranges
    in
    e.retag_pages <- e.retag_pages + pages;
    if pages = 0 then None
    else begin
      e.calls <- e.calls + 1;
      e.pages <- e.pages + pages;
      Some (fst (List.hd ranges), pages, Pkey.to_int pkey)
    end

  (* [before.(k)]: the ranges of key [k]'s objects before the hook, in
     [Domain_state.objects_with_key] order.  Calls [on_load] with each
     load's virtual key and evicted key. *)
  let replay e ~before ~evict_tag ~on_load events =
    let pending = ref [] in
    List.iter
      (fun (ev : Event.t) ->
        match ev.Event.kind with
        | Event.Pkey_mprotect { base; pages; pkey } -> pending := (base, pages, pkey) :: !pending
        | Event.Vkey_load { vkey; slot; evicted; pages } ->
          let expected =
            List.filter_map Fun.id
              [ (if evicted >= 0 then batch e before.(evicted) evict_tag else None);
                batch e before.(vkey) (Pkey.of_int slot) ]
          in
          let n = List.length expected in
          if List.rev (List.filteri (fun i _ -> i < n) !pending) <> expected then
            Alcotest.failf "vkey %d's load did not trace the eager walk's %d batches" vkey n;
          let want = List.fold_left (fun acc (_, p, _) -> acc + p) 0 expected in
          if pages <> want then
            Alcotest.failf "vkey %d's load event: %d pages, the eager walk retags %d" vkey pages
              want;
          (* Anything older was an ordinary call that preceded the load. *)
          List.iter (write e) (List.rev (List.filteri (fun i _ -> i >= n) !pending));
          pending := [];
          on_load ~vkey ~evicted
        | _ -> ())
      events;
    List.iter (write e) (List.rev !pending)
end

(* Random alloc, lock, read, write, unlock and free hooks from two
   threads over six object slots, under a 4-key pool on 2 residency
   slots.  Accesses go through [Mpk_hw.try_access], so each fault
   carries the tag the page table resolves, and a faulting access is
   retried as the machine retries it.  After every hook, every page's
   key and the three retag counters must equal the eager reference's.
   A freed Read-write object's pages keep the tag they had at the
   free: the sequences must free such an object and then evict and
   reload its key. *)
let test_rebinding_model () =
  let rng = Random.State.make [| 24 |] in
  let pool = 4 and threads = 2 and locks = 4 in
  let evict_tag = Pkey.of_int Pkey.data_key_count in
  let freed_then_reloaded = ref 0 in
  for _ = 1 to 80 do
    let trace = Trace.create () in
    let hw = Mpk_hw.create ~trace () in
    let meta = Meta_table.create () in
    let clock = ref 0 in
    let env =
      { Hooks.hw; meta; cost = Cost_model.default; now = (fun () -> !clock); trace = Some trace }
    in
    let config = { Config.default with Config.vkeys = pool; data_keys = 2 } in
    let d = Detector.create ~config env in
    let h = Detector.hooks d in
    let domains = Detector.domains d in
    let eager = Eager.create () in
    let seen = ref 0 in
    (* Freed Read-write objects' keys: 0 until the key is evicted, 1
       after, dropped once it is loaded back. *)
    let watched = ref [] in
    let on_load ~vkey ~evicted =
      watched :=
        List.filter_map
          (fun (k, state) ->
            if state = 0 && k = evicted then Some (k, 1)
            else if state = 1 && k = vkey then begin
              incr freed_then_reloaded;
              None
            end
            else Some (k, state))
          !watched
    in
    let first_vpage = 0x40 in
    let next_vpage = ref first_vpage in
    let range (m : Obj_meta.t) =
      (Page.base_of_vpage (Page.vpage_of_addr m.Obj_meta.base), m.Obj_meta.pages * Page.size)
    in
    let hook f =
      let before =
        Array.init (pool + 1) (fun key ->
            List.filter_map
              (fun id -> Option.map range (Meta_table.find_id meta id))
              (Domain_state.objects_with_key domains key))
      in
      incr clock;
      let r = f () in
      let events = List.filteri (fun i _ -> i >= !seen) (Trace.events trace) in
      seen := Trace.event_count trace;
      Eager.replay eager ~before ~evict_tag ~on_load events;
      let pt = Mpk_hw.page_table hw in
      for vp = first_vpage to !next_vpage do
        let want = Page_table.pkey_of_vpage eager.Eager.pt vp in
        let got = Page_table.pkey_of_vpage pt vp in
        if not (Pkey.equal want got) then
          Alcotest.failf "vpage %d carries %a, the eager walk leaves %a" vp Pkey.pp got Pkey.pp
            want
      done;
      let st = Mpk_hw.stats hw in
      let counters =
        [ ("pkey_mprotect calls", eager.Eager.calls, st.Mpk_hw.pkey_mprotect_calls);
          ("pages retagged", eager.Eager.pages, st.Mpk_hw.pages_retagged);
          ( "vkey retag pages",
            eager.Eager.retag_pages,
            (Detector.vkey_stats d).Vkey.st_retag_pages ) ]
      in
      List.iter
        (fun (name, want, got) ->
          if want <> got then Alcotest.failf "%s: %d, the eager walk counts %d" name got want)
        counters;
      r
    in
    for tid = 0 to threads - 1 do
      Mpk_hw.register_thread hw tid;
      ignore (hook (fun () -> h.Hooks.on_spawn ~tid) : int)
    done;
    let objs = Array.make 6 None in
    let next_id = ref 0 in
    let held = Array.make threads [] in
    let holder = Array.make (locks + 1) (-1) in
    for _ = 1 to 200 do
      let tid = Random.State.int rng threads in
      let slot = Random.State.int rng (Array.length objs) in
      match Random.State.int rng 6, objs.(slot) with
      | 0, None ->
        let pages = 1 + Random.State.int rng 3 in
        let m =
          { Obj_meta.id = !next_id; base = Page.base_of_vpage !next_vpage + 64;
            size = (pages * Page.size) - 64; reserved = pages * Page.size;
            kind = Obj_meta.Heap 0; pages }
        in
        incr next_id;
        next_vpage := !next_vpage + pages + 1;
        Meta_table.register meta m;
        objs.(slot) <- Some m;
        ignore (hook (fun () -> h.Hooks.on_alloc ~tid m) : int)
      | 0, Some m ->
        let key = Domain_state.rw_key_code domains ~obj_id:m.Obj_meta.id in
        if key > 0 then watched := (key, 0) :: !watched;
        ignore (hook (fun () -> h.Hooks.on_free ~tid m) : int);
        Meta_table.unregister meta m;
        objs.(slot) <- None
      | 1, _ ->
        let lock = 1 + Random.State.int rng locks in
        if holder.(lock) < 0 && List.length held.(tid) < 2 then begin
          holder.(lock) <- tid;
          held.(tid) <- lock :: held.(tid);
          ignore (hook (fun () -> h.Hooks.on_lock ~tid ~lock ~site:lock) : int)
        end
      | 2, _ -> (
        match held.(tid) with
        | lock :: rest ->
          holder.(lock) <- -1;
          held.(tid) <- rest;
          ignore (hook (fun () -> h.Hooks.on_unlock ~tid ~lock) : int)
        | [] -> ())
      | _, Some m ->
        let access = if Random.State.bool rng then `Write else `Read in
        let addr = m.Obj_meta.base + (Random.State.int rng m.Obj_meta.pages * Page.size) in
        let rec attempt n =
          if n < 4 && Mpk_hw.try_access hw ~tid ~addr ~access ~ip:0 ~time:!clock < 0 then begin
            let fault = Mpk_hw.last_fault hw in
            match Hooks.fault_action (hook (fun () -> h.Hooks.on_fault fault)) with
            | Hooks.Retry -> attempt (n + 1)
            | Hooks.Emulate -> ()
          end
        in
        attempt 0
      | _, None -> ()
    done
  done;
  check "a freed object's key was evicted and reloaded" true (!freed_then_reloaded > 0)

(* {1 The fault-path allocation contract} *)

(* keys-10k under a virtual pool is the fault-heavy workload: about
   one step in seven faults, and nearly half of the faults load a
   virtual key.  Faults, vkey loads and section entries must allocate
   in proportion to neither the objects under a key nor the entries
   they walk, and a fault allocates only the state it records
   (DESIGN.md §5).  The configuration is explicit so that no $KARD_*
   sweep changes what is measured.  One run gives both budgets: minor
   words per step over the whole run, and per call inside [on_fault]
   alone.  The wrapper allocates nothing per call, so the per-step
   figure is the unwrapped run's. *)
type fault_words = {
  mutable in_faults : float;
  mutable faults : float;
}

let fault_path_words =
  lazy
    (let detector = Runner.Kard { Config.default with Config.vkeys = 192 } in
     let acc = { in_faults = 0.; faults = 0. } in
     let wrap (_ : Hooks.env) (h : Hooks.t) =
       { h with
         Hooks.on_fault =
           (fun fault ->
             let before = Gc.minor_words () in
             let outcome = h.Hooks.on_fault fault in
             acc.in_faults <- acc.in_faults +. (Gc.minor_words () -. before);
             acc.faults <- acc.faults +. 1.;
             outcome) }
     in
     let run () =
       Runner.run ~wrap ~threads:8 ~scale:0.2 ~seed:42 ~detector
         (Runner.Spec Keypressure.keys_10k)
     in
     ignore (run () : Runner.result);
     acc.in_faults <- 0.;
     acc.faults <- 0.;
     let before = Gc.minor_words () in
     let result = run () in
     let minor = Gc.minor_words () -. before in
     let steps = result.Runner.report.Machine.steps in
     (steps, minor /. float_of_int steps, acc.faults, acc.in_faults /. acc.faults))

(* Dev-profile reference: 6.90 words/step since a fault allocates only
   what it records, 13.3 while it built an outcome record, a fault
   record, options, lists and closures, 14.4 while the key-section map
   kept a per-thread key index and a release row per releaser, 16.3
   while section entry rebuilt a memo of the section's entries, 19.2
   while each load walked the two keys' objects, 30.5 while each
   iteration built a fresh program builder, and about 80 before
   retags walked the key's objects in place. *)
let test_fault_path_allocation () =
  let steps, per_step, _, _ = Lazy.force fault_path_words in
  check "steps sane" true (steps > 40_000);
  if per_step > 7.5 then
    Alcotest.failf "fault-path allocation budget broken: %.2f minor words/step (budget 7.5)"
      per_step

(* The handler on its own: about 16.8 words per fault, nearly all of
   it the section tables and map bindings of the 1,877 faults that
   identify an object; 56.4 before. *)
let test_per_fault_allocation () =
  let _, _, faults, per_fault = Lazy.force fault_path_words in
  check "faults sane" true (faults > 5_000.);
  if per_fault > 18.0 then
    Alcotest.failf "per-fault allocation budget broken: %.2f minor words/fault (budget 18.0)"
      per_fault

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
        [ Alcotest.test_case "one load equals the list form" `Quick test_retag_equivalence;
          Alcotest.test_case "rebinding equals the eager walk" `Quick test_rebinding_model ] );
      ( "allocation",
        [ Alcotest.test_case "fault-path budget" `Slow test_fault_path_allocation;
          Alcotest.test_case "per-fault budget" `Slow test_per_fault_allocation ] );
      ( "determinism",
        [ Alcotest.test_case "keys-10k compiled vs thunks" `Quick test_interp_identity;
          Alcotest.test_case "keys sweep 1 vs 4 jobs" `Quick test_jobs_identity ] );
      ( "precision",
        [ Alcotest.test_case "vkeys beat the physical keys" `Quick
            test_precision_and_counters ] ) ]
