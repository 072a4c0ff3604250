module Pkey = Kard_mpk.Pkey
module Perm = Kard_mpk.Perm
module Pkru = Kard_mpk.Pkru
module Page = Kard_mpk.Page
module Fault = Kard_mpk.Fault
module Cost_model = Kard_mpk.Cost_model
module Mpk_hw = Kard_mpk.Mpk_hw
module Vkey = Kard_mpk.Vkey
module Obj_meta = Kard_alloc.Obj_meta
module Meta_table = Kard_alloc.Meta_table
module Hooks = Kard_sched.Hooks
module Dense = Kard_sched.Dense

(* Frames are pooled per thread: section nesting is shallow and
   entry/exit runs on every lock operation, so the stack is an array
   of mutable records reused across sections and the acquired-key set
   is a small int stack — no allocation per section. *)
type frame = {
  mutable lock : int;
  mutable site : int;
  mutable saved_pkru : Pkru.t;
  mutable wrpkru_at_entry : int;
      (** WRPKRU total at section entry, so exit can report the
          per-entry WRPKRU cost to the metrics registry. *)
  mutable acquired : int array; (* keys (virtual in vkey mode), as ints *)
  mutable nacquired : int;
  mutable sampled : bool;
      (** Whether this section ran the full entry protocol; an
          unsampled section skipped the k_na retraction, the
          proactive walk and the PKRU switch (DESIGN.md §12). *)
}

type thread_state = {
  mutable frames : frame array; (* slots [0..depth-1] are live *)
  mutable depth : int;
}

type stats = {
  na_faults : int;
  ro_faults : int;
  data_faults : int;
  anomalies : int;
  identifications_read : int;
  identifications_write : int;
  proactive_acquisitions : int;
  reactive_acquisitions : int;
  demotions : int;
  timestamp_rescues : int;
  max_active_sections : int;
  reuse_events : int;
  fresh_events : int;
  recycling_events : int;
  sharing_events : int;
  migrations : int;
  interleavings_started : int;
  records_logged : int;
  records_redundant : int;
  records_pruned_spurious : int;
  vkey_pool : int;
  vkey_resident : int;
  vkey_hits : int;
  vkey_misses : int;
  vkey_evictions : int;
  vkey_loads : int;
  vkey_retag_pages : int;
  vkey_stalls : int;
  sampling_rate : float;
  sampled_sections : int;
  skipped_sections : int;
  sampled_objects : int;
  skipped_objects : int;
  skipped_accesses : int;
  sampling_rotations : int;
  sampling_rearm_pages : int;
  first_race_cs : int;
}

type t = {
  config : Config.t;
  env : Hooks.env;
  domains : Domain_state.t;
  somap : Section_object_map.t;
  ksmap : Key_section_map.t;
  assign : Key_assign.t;
  interleave : Interleave.t;
  pruning : Pruning.t;
  vkey : Vkey.t;
  slots : int array; (* physical residency slots, virtual mode only *)
  (* Per-thread and per-site state is indexed by the (small, dense)
     id, and the seen-object sets are bitsets: these are touched on
     every section entry/exit and must not hash or allocate. *)
  mutable threads : thread_state option array; (* index = tid *)
  (* site -> executing threads, as an int stack: slot [site] of
     [active] holds [active_n.(site)] live tids. *)
  mutable active : int array array;
  mutable active_n : int array;
  ro_seen : Dense.Bitset.t;
  rw_seen : Dense.Bitset.t;
  mutable active_count : int;
  mutable max_active : int;
  mutable na_faults : int;
  mutable ro_faults : int;
  mutable data_faults : int;
  mutable anomalies : int;
  mutable ident_read : int;
  mutable ident_write : int;
  mutable proactive_acq : int;
  mutable reactive_acq : int;
  mutable demotions : int;
  mutable ts_rescues : int;
  (* Per-object provenance for the differential classifier
     (Divergence): which documented precision-losing mechanisms fired
     on which objects this run.  All appended on fault/assignment cold
     paths only. *)
  prov_rescued : Dense.Bitset.t;
  prov_grouped : Dense.Bitset.t;
  prov_key_shared : Dense.Bitset.t;
  prov_recycled : Dense.Bitset.t;
  prov_pruned : Dense.Bitset.t;
  prov_demoted : Dense.Bitset.t;
  prov_ro_blamed : Dense.Bitset.t;
  prov_proactive_blame : Dense.Bitset.t;
  prov_vkey_blamed : Dense.Bitset.t;
  (* The sampling layer (DESIGN.md §12).  [live] holds every
     allocated, not yet freed object (rotation walks it); [unsampled]
     the live ones currently on the default-key fast path.
     [cur_epoch] only advances at section entry, so every sampling
     decision is a pure function of state that is identical at any
     --jobs count. *)
  sampling : Sampling.t;
  mutable cur_epoch : int;
  live : Dense.Bitset.t;
  unsampled : Dense.Bitset.t;
  prov_sampling_skipped : Dense.Bitset.t;
  mutable sampled_sections : int;
  mutable skipped_sections : int;
  mutable sampled_objects : int;
  mutable skipped_objects : int;
  mutable sampling_rotations : int;
  mutable sampling_rearm_pages : int;
  mutable cs_entries : int;
  mutable first_race_cs : int; (* cs_entries at the first fresh record; -1 = none *)
  (* Result slot for [proactive_walk]: the walk accumulates the
     section-entry PKRU here instead of returning a (pkru, cycles)
     tuple, keeping the per-section-entry path allocation-free. *)
  mutable walk_pkru : Pkru.t;
  (* The vkey retag batch in progress ([retag_key]): its target tag,
     the pages written so far and the base its trace event reports. *)
  mutable retag_pkey : Pkey.t;
  mutable retag_pages : int;
  mutable retag_base : Page.addr;
}

(* Virtual mode repurposes the last data key as the always-deny tag of
   evicted virtual keys: no thread is ever granted it, so every access
   to an evicted key's pages traps into {!handle_vkey_miss}. *)
let evict_tag = Pkey.of_int Pkey.data_key_count

let data_key_ints = List.map Pkey.to_int Pkey.data_keys

let create ?(config = Config.default) env =
  if config.Config.software_fallback then
    invalid_arg "Detector.create: software_fallback is retired (use vkeys)";
  let vpool = max 0 config.Config.vkeys in
  (* Virtual mode reserves the last data key as the evict tag. *)
  let slots =
    if vpool = 0 then [||]
    else
      Array.init
        (min vpool (min config.Config.data_keys (Pkey.data_key_count - 1)))
        (fun i -> i + 1)
  in
  let vkey = if vpool = 0 then Vkey.identity else Vkey.create ~pool:vpool ~phys:slots in
  { config;
    env;
    domains = Domain_state.create ();
    somap = Section_object_map.create ();
    ksmap = Key_section_map.create ();
    assign = Key_assign.create config;
    interleave = Interleave.create ();
    pruning = Pruning.create ~dedupe:config.Config.redundancy_pruning ();
    vkey;
    slots;
    threads = Array.make 16 None;
    active = Array.make 64 [||];
    active_n = Array.make 64 0;
    ro_seen = Dense.Bitset.create ~capacity:256 ();
    rw_seen = Dense.Bitset.create ~capacity:256 ();
    active_count = 0;
    max_active = 0;
    na_faults = 0;
    ro_faults = 0;
    data_faults = 0;
    anomalies = 0;
    ident_read = 0;
    ident_write = 0;
    proactive_acq = 0;
    reactive_acq = 0;
    demotions = 0;
    ts_rescues = 0;
    prov_rescued = Dense.Bitset.create ~capacity:256 ();
    prov_grouped = Dense.Bitset.create ~capacity:256 ();
    prov_key_shared = Dense.Bitset.create ~capacity:256 ();
    prov_recycled = Dense.Bitset.create ~capacity:256 ();
    prov_pruned = Dense.Bitset.create ~capacity:256 ();
    prov_demoted = Dense.Bitset.create ~capacity:256 ();
    prov_ro_blamed = Dense.Bitset.create ~capacity:256 ();
    prov_proactive_blame = Dense.Bitset.create ~capacity:256 ();
    prov_vkey_blamed = Dense.Bitset.create ~capacity:256 ();
    sampling = Sampling.of_config config;
    cur_epoch = 0;
    live = Dense.Bitset.create ~capacity:256 ();
    unsampled = Dense.Bitset.create ~capacity:256 ();
    prov_sampling_skipped = Dense.Bitset.create ~capacity:256 ();
    sampled_sections = 0;
    skipped_sections = 0;
    sampled_objects = 0;
    skipped_objects = 0;
    sampling_rotations = 0;
    sampling_rearm_pages = 0;
    cs_entries = 0;
    first_race_cs = -1;
    walk_pkru = Pkru.all_access;
    retag_pkey = Pkey.k_def;
    retag_pages = 0;
    retag_base = 0 }

let cost t = t.env.Hooks.cost
let hw t = t.env.Hooks.hw
let now t = t.env.Hooks.now ()
let trace t = t.env.Hooks.trace

(* The physical tag an object protected by [key] must carry right now:
   the key itself in identity mode; in virtual mode the key's residency
   slot, or the evict tag while it is evicted. *)
let phys_tag t key =
  if Vkey.virtualized t.vkey then
    let p = Vkey.phys_of t.vkey key in
    if p < 0 then evict_tag else Pkey.of_int p
  else Pkey.of_int key

(* Data keys currently held by some section; sampled into the trace on
   every key-state change (the libmpk-style occupancy view).  Virtual
   mode reports slot residency instead — the physical-register view. *)
let sample_occupancy t =
  match trace t with
  | None -> ()
  | Some tr ->
    let live =
      if Vkey.virtualized t.vkey then Vkey.resident_count t.vkey
      else
        let unheld = List.length (Key_section_map.unheld_keys t.ksmap ~among:data_key_ints) in
        Pkey.data_key_count - unheld
    in
    Kard_obs.Trace.emit tr ~tid:(-1) (Kard_obs.Event.Pkey_occupancy { live });
    Kard_obs.Trace.observe (trace t) "kard.live_pkeys" live


let thread_state t tid =
  if tid < 0 then invalid_arg "Detector: negative thread id";
  if tid >= Array.length t.threads then begin
    let bigger = Array.make (Dense.grow_pow2 (Array.length t.threads) tid) None in
    Array.blit t.threads 0 bigger 0 (Array.length t.threads);
    t.threads <- bigger
  end;
  match t.threads.(tid) with
  | Some ts -> ts
  | None ->
    let ts = { frames = [||]; depth = 0 } in
    t.threads.(tid) <- Some ts;
    ts

(* Reuse the frame slot at [depth] (growing the stack with fresh
   records when the nesting exceeds anything seen before). *)
let push_frame ts ~lock ~site ~saved_pkru ~wrpkru_at_entry =
  if ts.depth = Array.length ts.frames then begin
    let cap = max 4 (2 * ts.depth) in
    let bigger =
      Array.init cap (fun i ->
          if i < ts.depth then ts.frames.(i)
          else
            { lock; site; saved_pkru; wrpkru_at_entry; acquired = Array.make 4 0; nacquired = 0;
              sampled = true })
    in
    ts.frames <- bigger
  end;
  let frame = ts.frames.(ts.depth) in
  ts.depth <- ts.depth + 1;
  frame.lock <- lock;
  frame.site <- site;
  frame.saved_pkru <- saved_pkru;
  frame.wrpkru_at_entry <- wrpkru_at_entry;
  frame.nacquired <- 0;
  frame.sampled <- true;
  frame

(* Scans on per-event paths are top-level recursions: without flambda
   a local [let rec] capturing variables is a heap block per call. *)
let rec holds_lock_from ts lock i =
  i < ts.depth && (ts.frames.(i).lock = lock || holds_lock_from ts lock (i + 1))

let holds_lock ts lock = holds_lock_from ts lock 0

let current_frame t tid =
  let ts = thread_state t tid in
  if ts.depth = 0 then None else Some ts.frames.(ts.depth - 1)

let current_site t tid = Option.map (fun f -> f.site) (current_frame t tid)

(* {2 Active-section tracking (used for Read-only domain conflicts)} *)

let ensure_site t site =
  if site < 0 then invalid_arg "Detector: negative section id";
  if site >= Array.length t.active then begin
    let cap = Dense.grow_pow2 (Array.length t.active) site in
    let active = Array.make cap [||] in
    Array.blit t.active 0 active 0 (Array.length t.active);
    t.active <- active;
    let active_n = Array.make cap 0 in
    Array.blit t.active_n 0 active_n 0 (Array.length t.active_n);
    t.active_n <- active_n
  end

let active_enter t ~site ~tid =
  ensure_site t site;
  let n = t.active_n.(site) in
  if n = Array.length t.active.(site) then begin
    let bigger = Array.make (max 4 (2 * n)) 0 in
    Array.blit t.active.(site) 0 bigger 0 n;
    t.active.(site) <- bigger
  end;
  t.active.(site).(n) <- tid;
  t.active_n.(site) <- n + 1;
  t.active_count <- t.active_count + 1;
  if t.active_count > t.max_active then t.max_active <- t.active_count

let rec last_index (stk : int array) (tid : int) i =
  if i < 0 then -1 else if stk.(i) = tid then i else last_index stk tid (i - 1)

let active_exit t ~site ~tid =
  ensure_site t site;
  (* Drop the most recent entry of [tid], as the cons-list
     predecessor's head-first scan did. *)
  let stk = t.active.(site) in
  let n = t.active_n.(site) in
  let i = last_index stk tid (n - 1) in
  if i >= 0 then begin
    for j = i to n - 2 do
      stk.(j) <- stk.(j + 1)
    done;
    t.active_n.(site) <- n - 1
  end;
  t.active_count <- t.active_count - 1

(* Threads other than [excluding_tid] executing a section recorded as
   reading the object, as [(tid, site)] pairs.  The order is the order
   of the holding sides in the race record: sites in the reverse of the
   object's section-set order, each site's threads most recent entry
   first.  The section set is walked in place and the need is probed
   only for sites someone is executing, so the usual empty answer
   allocates no list. *)
let active_readers t ~obj_id ~excluding_tid =
  let acc = ref [] in
  Section_object_map.iter_sections_touching t.somap ~obj_id (fun site ->
      if site >= 0 && site < Array.length t.active && t.active_n.(site) > 0 then
        match Section_object_map.need_of t.somap ~section:site ~obj_id with
        | Some Section_object_map.Needs_read ->
          let stk = t.active.(site) in
          for i = 0 to t.active_n.(site) - 1 do
            if stk.(i) <> excluding_tid then acc := (stk.(i), site) :: !acc
          done
        | Some Section_object_map.Needs_write | None -> ());
  !acc

(* {2 Protection changes} *)

(* The page range an object's protection covers: whole pages from the
   page holding its base. *)
let range_base (m : Obj_meta.t) = Page.base_of_vpage (Page.vpage_of_addr m.Obj_meta.base)
let range_len (m : Obj_meta.t) = m.Obj_meta.pages * Page.size

let protect_pages t meta pkey =
  Mpk_hw.pkey_mprotect (hw t) ~base:(range_base meta) ~len:(range_len meta) pkey

let demote_to_kna t (meta : Obj_meta.t) =
  t.demotions <- t.demotions + 1;
  Dense.Bitset.add t.prov_demoted meta.Obj_meta.id;
  (match trace t with
  | None -> ()
  | Some tr ->
    Kard_obs.Trace.emit tr ~tid:(-1)
      (Kard_obs.Event.Key_demote { obj_id = meta.Obj_meta.id; to_ro = false }));
  Domain_state.set t.domains ~obj_id:meta.Obj_meta.id Domain_state.Not_accessed;
  protect_pages t meta Pkey.k_na

let demote_to_ro t (meta : Obj_meta.t) =
  (match trace t with
  | None -> ()
  | Some tr ->
    Kard_obs.Trace.emit tr ~tid:(-1)
      (Kard_obs.Event.Key_demote { obj_id = meta.Obj_meta.id; to_ro = true }));
  Domain_state.set t.domains ~obj_id:meta.Obj_meta.id Domain_state.Read_only;
  protect_pages t meta Pkey.k_ro

(* {2 The virtual-key cache (DESIGN.md §11)} *)

(* Batch-retag every page of [objs] to [pkey]: one counted syscall for
   the whole list, charged at the cheaper per-page vkey rate (libmpk's
   eviction batches the ranges into a single kernel crossing).  The
   epoch rotation's form: its two batches come out of one pass. *)
let retag_batch_objects t objs pkey =
  let ranges =
    List.filter_map
      (fun obj_id ->
        match Meta_table.find_id t.env.Hooks.meta obj_id with
        | Some m -> Some (range_base m, range_len m)
        | None -> None)
      objs
  in
  Mpk_hw.retag_batch (hw t) ranges pkey

let retag_key_object t obj_id =
  match Meta_table.find_id t.env.Hooks.meta obj_id with
  | Some m ->
    let base = range_base m in
    let pages = Mpk_hw.retag_range (hw t) ~base ~len:(range_len m) t.retag_pkey in
    t.retag_pages <- t.retag_pages + pages;
    t.retag_base <- base
  | None -> ()

(* The vkey load's batch: retag every page of the objects under [key]
   to [pkey], walking the key's object set in place — no list, no
   per-object allocation.  Accounted exactly as [retag_batch_objects]
   on [Domain_state.objects_with_key], whose head (the base the trace
   event reports) is the last object visited that still has metadata.
   Returns the cycles; the page count is left in [t.retag_pages]. *)
let retag_key t key pkey =
  t.retag_pkey <- pkey;
  t.retag_pages <- 0;
  t.retag_base <- 0;
  Domain_state.iter_objects_with_key t.domains key (retag_key_object t);
  Vkey.note_retag_pages t.vkey t.retag_pages;
  Mpk_hw.retag_commit (hw t) ~base:t.retag_base ~pages:t.retag_pages pkey

(* {2 The sampling layer (DESIGN.md §12)} *)

let skip_note t obj_id =
  Dense.Bitset.add t.unsampled obj_id;
  Dense.Bitset.add t.prov_sampling_skipped obj_id

(* Release every piece of detector state an object leaving the
   sampled set holds; after this only the retag to the default key
   remains and accesses are the zero-cost fast path. *)
let drain_note t obj_id =
  t.skipped_objects <- t.skipped_objects + 1;
  skip_note t obj_id;
  Domain_state.forget t.domains ~obj_id;
  Section_object_map.forget_object t.somap ~obj_id;
  Interleave.finish t.interleave ~obj_id;
  match trace t with
  | None -> ()
  | Some tr ->
    Kard_obs.Trace.emit tr ~tid:(-1)
      (Kard_obs.Event.Key_demote { obj_id; to_ro = false })

(* Defensive path: rotations drain eagerly ({!maybe_rotate}), so an
   object drawn out of the sampled set should never fault — but if one
   does (tags it still carries), drain it here and retry. *)
let drain_unsampled t (meta : Obj_meta.t) =
  drain_note t meta.Obj_meta.id;
  let c = cost t in
  let mprotect = protect_pages t meta Pkey.k_def in
  { Hooks.fault_cycles = mprotect + c.Cost_model.map_op; action = Hooks.Retry }

(* Epoch rotation, observed at section entry against the virtual
   clock: fast-path objects redrawn into the new epoch's sampled set
   are re-armed to [k_na] (their next access re-identifies them), and
   live objects sliding out of the window are drained — state
   released, pages back to the default key — right here, one batched
   retag per direction instead of a full fault round trip per outed
   object.  One ascending pass over the live objects finds both
   batches, already in id order; freed objects are never re-armed.
   The policy scan itself is bookkeeping the real runtime folds into
   the epoch timer, so only the retags are charged — to the entering
   section. *)
let maybe_rotate t =
  if not (Sampling.enabled t.sampling) || Sampling.epoch_cycles t.sampling = 0 then 0
  else begin
    let e = Sampling.epoch_of t.sampling ~now:(now t) in
    if e = t.cur_epoch then 0
    else begin
      t.cur_epoch <- e;
      t.sampling_rotations <- t.sampling_rotations + 1;
      let rearm = ref [] and drain = ref [] in
      Dense.Bitset.iter
        (fun obj_id ->
          let sampled = Sampling.sampled_obj t.sampling ~epoch:e ~obj_id in
          if Dense.Bitset.mem t.unsampled obj_id then begin
            if sampled then begin
              Dense.Bitset.remove t.unsampled obj_id;
              rearm := obj_id :: !rearm
            end
          end
          else if not sampled then begin
            drain_note t obj_id;
            drain := obj_id :: !drain
          end)
        t.live;
      let drain_cycles =
        match !drain with
        | [] -> 0
        | objs -> snd (retag_batch_objects t (List.rev objs) Pkey.k_def)
      in
      let rearm_cycles =
        match !rearm with
        | [] -> 0
        | objs ->
          t.sampled_objects <- t.sampled_objects + List.length objs;
          let pages, cycles = retag_batch_objects t (List.rev objs) Pkey.k_na in
          t.sampling_rearm_pages <- t.sampling_rearm_pages + pages;
          cycles
      in
      drain_cycles + rearm_cycles
    end
  end

(* Make [key] resident (virtual mode), driving the effects the vkey
   table itself never performs: the displaced key's objects are
   batch-retagged to the always-deny tag and the loaded key's objects
   to its slot.  Pinning is answered from ground truth — a key with
   live holders, or whose slot some thread's PKRU still grants, must
   not be displaced or that thread would touch the newly resident
   key's objects unchecked.  Returns the cycle cost, or [None] when
   every slot is pinned by a running thread. *)
let ensure_resident t ~tid key =
  match
    Vkey.ensure t.vkey key ~evictable:(fun ~slot ~vkey ->
        Key_section_map.held_count t.ksmap vkey = 0
        && not (Mpk_hw.any_grant (hw t) (Pkey.of_int slot)))
  with
  | Vkey.Hit _ -> Some 0
  | Vkey.Full -> None
  | Vkey.Loaded { slot; evicted } ->
    let evict_cycles = if evicted >= 0 then retag_key t evicted evict_tag else 0 in
    let evicted_pages = if evicted >= 0 then t.retag_pages else 0 in
    let load_cycles = retag_key t key (Pkey.of_int slot) in
    (match trace t with
    | None -> ()
    | Some tr ->
      Kard_obs.Trace.emit tr ~tid
        (Kard_obs.Event.Vkey_load
           { vkey = key; slot; evicted; pages = evicted_pages + t.retag_pages }));
    Some ((cost t).Cost_model.vkey_load + evict_cycles + load_cycles)

(* Every slot is pinned: pick the resident key to share, preferring
   one whose holding sections touch disjoint object sets (the Table 4
   mitigation), else the first slot in slot order — deterministic
   either way. *)
let share_fallback t ~section =
  let candidates =
    List.filter_map
      (fun p ->
        let v = Vkey.vkey_of_phys t.vkey p in
        if v >= 0 then Some v else None)
      (Array.to_list t.slots)
  in
  let my_objects = List.map fst (Section_object_map.objects_of t.somap ~section) in
  let disjoint v =
    List.for_all
      (fun (h : Key_section_map.holder) ->
        let theirs =
          List.map fst
            (Section_object_map.objects_of t.somap ~section:h.Key_section_map.section)
        in
        not (List.exists (fun o -> List.mem o theirs) my_objects))
      (Key_section_map.holders t.ksmap v)
  in
  let preferred =
    if t.config.Config.share_disjoint_sections then List.find_opt disjoint candidates
    else None
  in
  match (preferred, candidates) with
  | Some v, _ -> v
  | None, v :: _ -> v
  | None, [] -> assert false (* Full implies every slot resident *)

(* {2 PKRU plumbing} *)

(* Grant the physical key backing [key]; callers guarantee residency
   (a key is only granted right after being ensured resident or on a
   fault against its live slot). *)
let grant_in_context t ~tid key perm =
  let pkru = Mpk_hw.pkru_of (hw t) ~tid in
  Mpk_hw.set_pkru_in_context (hw t) ~tid
    (Pkru.set pkru (Pkey.of_int (Vkey.phys_of t.vkey key)) perm)

let rec acquired_from frame key i =
  i < frame.nacquired && (frame.acquired.(i) = key || acquired_from frame key (i + 1))

let frame_note_acquired frame key =
  if not (acquired_from frame key 0) then begin
    if frame.nacquired = Array.length frame.acquired then begin
      let bigger = Array.make (2 * frame.nacquired) 0 in
      Array.blit frame.acquired 0 bigger 0 frame.nacquired;
      frame.acquired <- bigger
    end;
    frame.acquired.(frame.nacquired) <- key;
    frame.nacquired <- frame.nacquired + 1
  end

(* {2 Key assignment for a write-identified object} *)

(* Returns cycles.  The object lands in the Read-write domain and, if
   the thread gained a key, the PKRU context is updated (reactive
   acquisition, section 5.4). *)
let assign_write_key t ~tid ~frame (meta : Obj_meta.t) =
  let site = frame.site in
  let chosen =
    Key_assign.choose t.assign ~ksmap:t.ksmap ~domains:t.domains ~somap:t.somap ~tid ~section:site
  in
  (* Virtual mode: a Fresh or Recycle choice needs a physical slot
     before its pages can be tagged.  Only when every slot is pinned
     by a running thread does sharing a resident key become the last
     resort — eviction strictly before sharing (DESIGN.md §11). *)
  let decision, load_cycles =
    match chosen with
    | (Key_assign.Fresh key | Key_assign.Recycle (key, _)) when Vkey.virtualized t.vkey -> begin
      match ensure_resident t ~tid key with
      | Some cycles -> (chosen, cycles)
      | None -> (Key_assign.Share (share_fallback t ~section:site), 0)
    end
    | d -> (d, 0)
  in
  Key_assign.note t.assign decision;
  let c = cost t in
  let finish_with key assign extra =
    (match trace t with
    | None -> ()
    | Some tr ->
      (match Domain_state.domain_of t.domains ~obj_id:meta.Obj_meta.id with
      | Domain_state.Read_write old when old <> key ->
        Kard_obs.Trace.emit tr ~tid
          (Kard_obs.Event.Key_migrate
             { obj_id = meta.Obj_meta.id; from_key = old; to_key = key })
      | Domain_state.Read_write _ | Domain_state.Read_only | Domain_state.Not_accessed -> ());
      Kard_obs.Trace.emit tr ~tid
        (Kard_obs.Event.Key_assign { key; obj_id = meta.Obj_meta.id; assign }));
    (* Grouping provenance: landing under a key that other live
       objects already carry multiplexes them — faults and non-faults
       against this key stop distinguishing the group members. *)
    let grouped_other = ref false in
    Domain_state.iter_objects_with_key t.domains key (fun obj_id ->
        if obj_id <> meta.Obj_meta.id then begin
          grouped_other := true;
          Dense.Bitset.add t.prov_grouped obj_id
        end);
    if !grouped_other then Dense.Bitset.add t.prov_grouped meta.Obj_meta.id;
    Domain_state.set t.domains ~obj_id:meta.Obj_meta.id (Domain_state.Read_write key);
    Dense.Bitset.add t.rw_seen meta.Obj_meta.id;
    let mprotect = protect_pages t meta (phys_tag t key) in
    sample_occupancy t;
    extra + mprotect + c.Cost_model.map_op
  in
  match decision with
  | Key_assign.Reuse key -> (key, finish_with key Kard_obs.Event.Assign_reuse load_cycles)
  | Key_assign.Fresh key ->
    Key_section_map.acquire t.ksmap key ~tid Perm.Read_write ~section:site ~lock:frame.lock
      ~proactive:false;
    frame_note_acquired frame key;
    grant_in_context t ~tid key Perm.Read_write;
    t.reactive_acq <- t.reactive_acq + 1;
    (key, finish_with key Kard_obs.Event.Assign_fresh (load_cycles + c.Cost_model.atomic_op))
  | Key_assign.Recycle (key, obj_ids) ->
    let demote_cost =
      List.fold_left
        (fun acc obj_id ->
          Dense.Bitset.add t.prov_recycled obj_id;
          match Meta_table.find_id t.env.Hooks.meta obj_id with
          | Some other -> acc + demote_to_ro t other
          | None ->
            Domain_state.forget t.domains ~obj_id;
            acc)
        0 obj_ids
    in
    Key_section_map.acquire t.ksmap key ~tid Perm.Read_write ~section:site ~lock:frame.lock
      ~proactive:false;
    frame_note_acquired frame key;
    grant_in_context t ~tid key Perm.Read_write;
    t.reactive_acq <- t.reactive_acq + 1;
    (key, finish_with key Kard_obs.Event.Assign_recycle
            (load_cycles + demote_cost + c.Cost_model.atomic_op))
  | Key_assign.Share key ->
    (* Sharing provenance: the key stays multi-held, so accesses by
       any co-holder to any object under it stop faulting — mark the
       incoming object and everything already grouped under the key. *)
    Dense.Bitset.add t.prov_key_shared meta.Obj_meta.id;
    Domain_state.iter_objects_with_key t.domains key (Dense.Bitset.add t.prov_key_shared);
    Key_section_map.force_acquire t.ksmap key ~tid Perm.Read_write ~section:site
      ~lock:frame.lock ~proactive:false;
    frame_note_acquired frame key;
    grant_in_context t ~tid key Perm.Read_write;
    t.reactive_acq <- t.reactive_acq + 1;
    (key, finish_with key Kard_obs.Event.Assign_share c.Cost_model.atomic_op)

(* {2 Race records} *)

let side_of_holder (h : Key_section_map.holder) =
  { Race_record.thread = h.Key_section_map.tid;
    section = Some h.Key_section_map.section;
    access = (if Perm.equal h.Key_section_map.perm Perm.Read_write then `Write else `Read);
    ip = -1 }

let record_of_fault t (fault : Fault.t) (meta : Obj_meta.t) holding =
  let faulting =
    { Race_record.thread = fault.Fault.thread;
      section = current_site t fault.Fault.thread;
      access = fault.Fault.access;
      ip = fault.Fault.ip }
  in
  { Race_record.obj_id = meta.Obj_meta.id;
    obj_base = meta.Obj_meta.base;
    offset = Obj_meta.offset_of meta fault.Fault.addr;
    faulting;
    holding;
    time = fault.Fault.time }

let handle_verdict t ~obj_id = function
  | Interleave.Pending -> ()
  | Interleave.Spurious records ->
    List.iter
      (fun (r : Race_record.t) -> Dense.Bitset.add t.prov_pruned r.Race_record.obj_id)
      records;
    let removed = Pruning.remove t.pruning records in
    Interleave.note_pruned t.interleave removed;
    Interleave.finish t.interleave ~obj_id
  | Interleave.Confirmed ->
    Interleave.note_confirmed t.interleave;
    Interleave.finish t.interleave ~obj_id

(* Log a race and start/continue protection interleaving on the
   object.  Returns nothing; protection changes are the caller's job. *)
let log_race t (fault : Fault.t) (meta : Obj_meta.t) holding =
  let record = record_of_fault t fault meta holding in
  match Pruning.add t.pruning record with
  | `Redundant ->
    if t.config.Config.protection_interleaving && Interleave.active t.interleave ~obj_id:meta.Obj_meta.id
    then
      handle_verdict t ~obj_id:meta.Obj_meta.id
        (Interleave.observe t.interleave ~obj_id:meta.Obj_meta.id ~tid:fault.Fault.thread
           ~offset:record.Race_record.offset)
  | `Fresh ->
    if t.first_race_cs < 0 then t.first_race_cs <- t.cs_entries;
    (match trace t with
    | None -> ()
    | Some tr ->
      Kard_obs.Trace.emit tr ~tid:fault.Fault.thread
        (Kard_obs.Event.Race
           { obj_id = meta.Obj_meta.id; offset = record.Race_record.offset });
      Kard_obs.Trace.incr (trace t) "kard.races");
    if t.config.Config.protection_interleaving then begin
      if Interleave.active t.interleave ~obj_id:meta.Obj_meta.id then begin
        Interleave.attach_record t.interleave ~obj_id:meta.Obj_meta.id ~record;
        handle_verdict t ~obj_id:meta.Obj_meta.id
          (Interleave.observe t.interleave ~obj_id:meta.Obj_meta.id ~tid:fault.Fault.thread
             ~offset:record.Race_record.offset)
      end
      else Interleave.start t.interleave ~obj_id:meta.Obj_meta.id ~record
    end

(* Feed an interleaving in progress with a fault observation that is
   not itself a fresh race (identification faults on interleaved
   objects). *)
let observe_interleaving t (fault : Fault.t) (meta : Obj_meta.t) =
  if t.config.Config.protection_interleaving
     && Interleave.active t.interleave ~obj_id:meta.Obj_meta.id
  then
    handle_verdict t ~obj_id:meta.Obj_meta.id
      (Interleave.observe t.interleave ~obj_id:meta.Obj_meta.id ~tid:fault.Fault.thread
         ~offset:(Obj_meta.offset_of meta fault.Fault.addr))

(* {2 Fault handling (section 5.5)} *)

let handle_na_fault t (fault : Fault.t) (meta : Obj_meta.t) =
  t.na_faults <- t.na_faults + 1;
  observe_interleaving t fault meta;
  let c = cost t in
  match current_frame t fault.Fault.thread with
  | None ->
    (* Threads outside critical sections hold k_na read-write; a fault
       here means the scheduler caught a demotion mid-flight.  Retry. *)
    { Hooks.fault_cycles = c.Cost_model.map_op; action = Hooks.Retry }
  | Some frame -> begin
    let tid = fault.Fault.thread in
    match fault.Fault.access with
    | `Read ->
      t.ident_read <- t.ident_read + 1;
      Dense.Bitset.add t.ro_seen meta.Obj_meta.id;
      Section_object_map.record t.somap ~section:frame.site ~obj_id:meta.Obj_meta.id
        Section_object_map.Needs_read;
      let mprotect = demote_to_ro t meta in
      { Hooks.fault_cycles = mprotect + (2 * c.Cost_model.map_op); action = Hooks.Retry }
    | `Write ->
      t.ident_write <- t.ident_write + 1;
      Section_object_map.record t.somap ~section:frame.site ~obj_id:meta.Obj_meta.id
        Section_object_map.Needs_write;
      let _key, cycles = assign_write_key t ~tid ~frame meta in
      { Hooks.fault_cycles = cycles + (2 * c.Cost_model.map_op); action = Hooks.Retry }
  end

let handle_ro_fault t (fault : Fault.t) (meta : Obj_meta.t) =
  t.ro_faults <- t.ro_faults + 1;
  let c = cost t in
  let tid = fault.Fault.thread in
  (* A write on the Read-only domain.  Concurrent readers hold no key
     (k_ro is universal), so conflicts are found through the
     section-object map: sections recorded as readers of this object
     that some other thread is executing right now. *)
  let readers = active_readers t ~obj_id:meta.Obj_meta.id ~excluding_tid:tid in
  if readers <> [] then begin
    let holding =
      List.map
        (fun (reader_tid, site) ->
          { Race_record.thread = reader_tid; section = Some site; access = `Read; ip = -1 })
        readers
    in
    log_race t fault meta holding;
    Dense.Bitset.add t.prov_ro_blamed meta.Obj_meta.id
  end
  else observe_interleaving t fault meta;
  match current_frame t tid with
  | Some frame ->
    t.ident_write <- t.ident_write + 1;
    Section_object_map.record t.somap ~section:frame.site ~obj_id:meta.Obj_meta.id
      Section_object_map.Needs_write;
    let _key, cycles = assign_write_key t ~tid ~frame meta in
    { Hooks.fault_cycles = cycles + (2 * c.Cost_model.map_op); action = Hooks.Retry }
  | None ->
    let mprotect = demote_to_kna t meta in
    { Hooks.fault_cycles = mprotect + (2 * c.Cost_model.map_op); action = Hooks.Retry }

let handle_data_fault t (fault : Fault.t) (meta : Obj_meta.t) key =
  t.data_faults <- t.data_faults + 1;
  let c = cost t in
  let tid = fault.Fault.thread in
  (* Who conflicts?  A write conflicts with any other holder; a read
     only with a read-write holder (shared read is fine). *)
  let conflicts =
    match fault.Fault.access with
    | `Write -> Key_section_map.other_holders t.ksmap key ~tid
    | `Read -> begin
      match Key_section_map.write_holder t.ksmap key with
      | Some h when h.Key_section_map.tid <> tid -> [ h ]
      | Some _ | None -> []
    end
  in
  (* Non-racy violation pruning (section 5.5): few keys multiplex many
     objects, so a holder whose section never touches the faulted
     object is a key collision, not a conflict. *)
  let section_touches_obj (h : Key_section_map.holder) =
    Option.is_some
      (Section_object_map.need_of t.somap ~section:h.Key_section_map.section
         ~obj_id:meta.Obj_meta.id)
  in
  let conflicts =
    if t.config.Config.metadata_pruning then List.filter section_touches_obj conflicts
    else conflicts
  in
  let conflicts, rescued =
    if conflicts = [] && t.config.Config.timestamp_pruning then
      (* The key may have been released between the #GP firing and the
         handler running — a window of one fault round trip (section
         5.5).  Two filters keep the window precise: the releaser's
         section must touch this object (key multiplexing otherwise),
         and it must have run under a lock the faulter does not hold —
         back-to-back sections of one lock are ordered, not racing. *)
      let faulter = thread_state t tid in
      match Key_section_map.last_release_by_other t.ksmap key ~tid with
      | Some (time, h)
        when h.Key_section_map.tid <> tid
             && now t - time <= Cost_model.fault_delay_threshold c
             && (fault.Fault.access = `Write || Perm.equal h.Key_section_map.perm Perm.Read_write)
             && (not (holds_lock faulter h.Key_section_map.lock))
             && ((not t.config.Config.metadata_pruning) || section_touches_obj h)
        ->
        ([ h ], true)
      | Some _ | None -> (conflicts, false)
    else (conflicts, false)
  in
  if rescued then begin
    t.ts_rescues <- t.ts_rescues + 1;
    Dense.Bitset.add t.prov_rescued meta.Obj_meta.id
  end;
  if conflicts <> [] then begin
    (* Blame-time provenance: when the record blames a hold formed by
       the proactive entry walk, Algorithm 1 may never have granted
       that hold (it takes only the uncontested subset of KR/KW at
       entry and forgets holds dropped by a nested exit), so the
       report can be runtime-only. *)
    if List.exists (fun (h : Key_section_map.holder) -> h.Key_section_map.proactive) conflicts
    then Dense.Bitset.add t.prov_proactive_blame meta.Obj_meta.id;
    log_race t fault meta (List.map side_of_holder conflicts)
  end
  else observe_interleaving t fault meta;
  match current_frame t tid with
  | Some frame ->
    if conflicts = [] then begin
      (* Benign: late (reactive) acquisition of an unheld key. *)
      let perm =
        match fault.Fault.access with
        | `Write -> Perm.Read_write
        | `Read -> Perm.Read_only
      in
      if Key_section_map.can_acquire t.ksmap key ~tid perm then begin
        Key_section_map.acquire t.ksmap key ~tid perm ~section:frame.site ~lock:frame.lock
          ~proactive:false;
        frame_note_acquired frame key;
        grant_in_context t ~tid key perm;
        t.reactive_acq <- t.reactive_acq + 1;
        let need =
          match fault.Fault.access with
          | `Write -> Section_object_map.Needs_write
          | `Read -> Section_object_map.Needs_read
        in
        Section_object_map.record t.somap ~section:frame.site ~obj_id:meta.Obj_meta.id need;
        sample_occupancy t;
        { Hooks.fault_cycles = 3 * c.Cost_model.map_op; action = Hooks.Retry }
      end
      else begin
        (* Raced with another acquisition while handling; retag the
           object with a key of ours (protection interleaving keeps
           both sides observable). *)
        let _key, cycles = assign_write_key t ~tid ~frame meta in
        { Hooks.fault_cycles = cycles; action = Hooks.Retry }
      end
    end
    else begin
      (* Conflict: interleave protection so the holder faults next
         (figure 4): move the object under a key of the faulter. *)
      let need =
        match fault.Fault.access with
        | `Write -> Section_object_map.Needs_write
        | `Read -> Section_object_map.Needs_read
      in
      Section_object_map.record t.somap ~section:frame.site ~obj_id:meta.Obj_meta.id need;
      let _key, cycles = assign_write_key t ~tid ~frame meta in
      { Hooks.fault_cycles = cycles + (2 * c.Cost_model.map_op); action = Hooks.Retry }
    end
  | None ->
    (* Keyless thread outside any section: stop protecting the object
       until it is re-identified (terminating any interleaving). *)
    let mprotect = demote_to_kna t meta in
    { Hooks.fault_cycles = mprotect + (2 * c.Cost_model.map_op); action = Hooks.Retry }

(* A fault on the always-deny tag of evicted virtual keys: the
   fault-path event that loads a key back in (DESIGN.md §11).  Routing
   follows the object's domain — the tag can also be stale (the object
   was demoted after its key was evicted), in which case the page is
   healed and the access retried. *)
let handle_vkey_miss t (fault : Fault.t) (meta : Obj_meta.t) =
  let c = cost t in
  let tid = fault.Fault.thread in
  match Domain_state.domain_of t.domains ~obj_id:meta.Obj_meta.id with
  | Domain_state.Not_accessed -> handle_na_fault t fault meta
  | Domain_state.Read_only ->
    let mprotect = protect_pages t meta Pkey.k_ro in
    { Hooks.fault_cycles = mprotect + c.Cost_model.map_op; action = Hooks.Retry }
  | Domain_state.Read_write key ->
    if Vkey.resident t.vkey key then begin
      (* Stale tag (the key was reloaded while this access was in
         flight): heal and retry. *)
      let mprotect = protect_pages t meta (phys_tag t key) in
      { Hooks.fault_cycles = mprotect + c.Cost_model.map_op; action = Hooks.Retry }
    end
    else begin
      match current_frame t tid with
      | None ->
        (* Keyless thread outside any section: demote rather than
           load, exactly as the identity-mode data-fault path does. *)
        let mprotect = demote_to_kna t meta in
        { Hooks.fault_cycles = mprotect + (2 * c.Cost_model.map_op); action = Hooks.Retry }
      | Some _ -> begin
        match ensure_resident t ~tid key with
        | Some load_cycles ->
          (* Resident again: the ordinary data-fault logic (conflict
             check, timestamp rescue, reactive acquisition) runs on
             the virtual key, plus the load bill. *)
          let r = handle_data_fault t fault meta key in
          { r with Hooks.fault_cycles = r.Hooks.fault_cycles + load_cycles }
        | None ->
          (* Every slot pinned: the access proceeds unprotected — the
             documented vkey stall window the differential classifier
             attributes via this provenance bit. *)
          Dense.Bitset.add t.prov_vkey_blamed meta.Obj_meta.id;
          { Hooks.fault_cycles = 2 * c.Cost_model.map_op; action = Hooks.Emulate }
      end
    end

let on_fault t (fault : Fault.t) =
  let c = cost t in
  let anomaly () =
    t.anomalies <- t.anomalies + 1;
    { Hooks.fault_cycles = c.Cost_model.map_op; action = Hooks.Emulate }
  in
  match Meta_table.find_vpage t.env.Hooks.meta fault.Fault.vpage with
  | None -> anomaly ()
  | Some meta ->
    if
      Sampling.enabled t.sampling
      && not (Sampling.sampled_obj t.sampling ~epoch:t.cur_epoch ~obj_id:meta.Obj_meta.id)
    then
      (* A rotation drew the object out of the sampled set after it
         was tagged: this fault is the lazy drain point. *)
      drain_unsampled t meta
    else if Pkey.equal fault.Fault.pkey Pkey.k_na then handle_na_fault t fault meta
    else if Pkey.equal fault.Fault.pkey Pkey.k_ro then handle_ro_fault t fault meta
    else if Vkey.virtualized t.vkey then begin
      if Pkey.equal fault.Fault.pkey evict_tag then handle_vkey_miss t fault meta
      else
        (* A live residency slot: the fault concerns whichever virtual
           key is resident in it right now. *)
        let v = Vkey.vkey_of_phys t.vkey (Pkey.to_int fault.Fault.pkey) in
        if v >= 0 then handle_data_fault t fault meta v else anomaly ()
    end
    else if Pkey.is_data_key fault.Fault.pkey then
      handle_data_fault t fault meta (Pkey.to_int fault.Fault.pkey)
    else anomaly ()

(* {2 Section entry and exit (section 5.4)} *)

(* The proactive acquisition walk over the section's memo (section
   5.4), as a top-level tail recursion over the memo's index threading
   the PKRU and cycle count: entered on every section entry, it
   allocates nothing. *)
let rec proactive_walk t c ~tid ~frame (m : Section_object_map.memo) i pkru cycles =
  if i >= Array.length m.Section_object_map.objs then begin
    t.walk_pkru <- pkru;
    cycles
  end
  else begin
    let obj_id = m.Section_object_map.objs.(i) in
    let next = i + 1 in
    (* Walking the section's object list is a cache-resident map
       traversal; the per-key work below carries the real cost. *)
    let cycles = cycles + 8 in
    let code = Domain_state.rw_key_code t.domains ~obj_id in
    if code < 0 then (* Not-accessed or Read-only: nothing to acquire *)
      proactive_walk t c ~tid ~frame m next pkru cycles
    else begin
      let phys = Vkey.phys_of t.vkey code in
      if phys < 0 then begin
        (* Evicted virtual key: loading at section entry would cascade
           evictions through the walk, so the entry skips it and the
           first access faults it in reactively (DESIGN.md §11).  The
           hold proactive acquisition would have formed does not exist
           in that window — mark the object so the differential
           classifier can attribute a missed blame. *)
        Dense.Bitset.add t.prov_vkey_blamed obj_id;
        proactive_walk t c ~tid ~frame m next pkru cycles
      end
      else begin
        let key = Pkey.of_int phys in
        let wanted =
          match m.Section_object_map.needs.(i) with
          | Section_object_map.Needs_write -> Perm.Read_write
          | Section_object_map.Needs_read -> Perm.Read_only
        in
        let already = Pkru.get pkru key in
        if Perm.allows already `Read && Perm.compare already wanted >= 0 then
          proactive_walk t c ~tid ~frame m next pkru cycles
        else begin
          (* During a delay-injection cooldown the key's release is
             stamped in the future: it still counts as held, so the
             entry must fault reactively and the handler can test for a
             conflict. *)
          let cooling =
            t.config.Config.exit_delay_cycles > 0
            &&
            match Key_section_map.last_release t.ksmap code with
            | Some (stamp, _) -> now t < stamp
            | None -> false
          in
          if cooling then proactive_walk t c ~tid ~frame m next pkru cycles
          else if Key_section_map.can_acquire t.ksmap code ~tid wanted then
            proactive_acquire t c ~tid ~frame m next pkru cycles code key wanted
          else if
            Perm.equal wanted Perm.Read_write
            && Key_section_map.can_acquire t.ksmap code ~tid Perm.Read_only
          then
            (* Write-need downgraded to a read hold (the idealized
               algorithm skips contested keys outright); a later fault
               blaming it is caught by the blame-time provenance. *)
            proactive_acquire t c ~tid ~frame m next pkru cycles code key Perm.Read_only
          else proactive_walk t c ~tid ~frame m next pkru cycles
        end
      end
    end
  end

and proactive_acquire t c ~tid ~frame m next pkru cycles code key perm =
  Key_section_map.acquire t.ksmap code ~tid perm ~section:frame.site ~lock:frame.lock
    ~proactive:true;
  frame_note_acquired frame code;
  t.proactive_acq <- t.proactive_acq + 1;
  proactive_walk t c ~tid ~frame m next (Pkru.set pkru key perm) (cycles + c.Cost_model.atomic_op)

let on_lock t ~tid ~lock ~site =
  (* On unmodified binaries only the lock names the section
     (section 8); sections sharing a lock merge. *)
  let site =
    match t.config.Config.section_identity with
    | Config.By_call_site -> site
    | Config.By_lock -> lock
  in
  let c = cost t in
  let enabled = Sampling.enabled t.sampling in
  let rotation = if enabled then maybe_rotate t else 0 in
  t.cs_entries <- t.cs_entries + 1;
  let ts = thread_state t tid in
  let pkru0 = Mpk_hw.pkru_of (hw t) ~tid in
  let frame =
    push_frame ts ~lock ~site ~saved_pkru:pkru0 ~wrpkru_at_entry:(Mpk_hw.wrpkru_count (hw t))
  in
  if enabled && not (Sampling.sampled_section t.sampling ~epoch:t.cur_epoch ~section:site)
  then begin
    (* Unsampled section: the near-zero fast path.  No k_na
       retraction (so nothing identifies), no proactive walk, no
       ksmap traffic, no active-set entry — the PKRU is opened to
       all-access for the section's duration so nothing inside can
       fault either (a reactive fault costs a 24k-cycle round trip,
       which would dwarf the protocol it replaces).  The section's
       accesses are simply invisible to the detector — the
       sampled-miss semantic — and the only charges are the policy
       check and the PKRU switch the exit undoes. *)
    frame.sampled <- false;
    t.skipped_sections <- t.skipped_sections + 1;
    rotation + c.Cost_model.sampling_check + Mpk_hw.wrpkru (hw t) ~tid Pkru.all_access
  end
  else begin
    if enabled then begin
      t.sampled_sections <- t.sampled_sections + 1;
      Kard_obs.Trace.incr (trace t) "sampling.sampled_sections"
    end;
    active_enter t ~site ~tid;
    (* Internal synchronization scales with concurrently executing
       sections: the runtime's maps are shared state. *)
    let sync_cost = c.Cost_model.atomic_op * (1 + t.active_count) in
    (* Retract k_na for the duration of the section (section 5.3). *)
    let cycles =
      if t.config.Config.proactive_acquisition then
        proactive_walk t c ~tid ~frame
          (Section_object_map.memo t.somap ~section:site)
          0
          (Pkru.set pkru0 Pkey.k_na Perm.No_access)
          (sync_cost + c.Cost_model.map_op)
      else begin
        t.walk_pkru <- Pkru.set pkru0 Pkey.k_na Perm.No_access;
        sync_cost + c.Cost_model.map_op
      end
    in
    let cycles = cycles + Mpk_hw.wrpkru (hw t) ~tid t.walk_pkru in
    sample_occupancy t;
    cycles + rotation + (if enabled then c.Cost_model.sampling_check else 0)
  end

let on_unlock t ~tid ~lock =
  let c = cost t in
  let ts = thread_state t tid in
  if ts.depth = 0 then
    invalid_arg (Printf.sprintf "Kard: thread %d unlocks with no open section" tid)
  else begin
    let frame = ts.frames.(ts.depth - 1) in
    if frame.lock <> lock then
      invalid_arg
        (Printf.sprintf "Kard: thread %d releases lock %d but innermost section holds %d" tid lock
           frame.lock);
    ts.depth <- ts.depth - 1;
    (* An unsampled frame never entered the active set or touched the
       ksmap; its exit only restores the PKRU its entry opened to
       all-access. *)
    let cycles =
      ref (if frame.sampled then c.Cost_model.rdtscp + c.Cost_model.atomic_op else 0)
    in
    (* Delay injection (section 5.5): the thread sleeps at section
       exit, so its keys remain effectively held for the configured
       extra cycles — the release stamp lands in the future, making
       concurrent entries fail proactive acquisition (and fault) and
       keeping the fault-window check positive while other threads
       run.  Sleeping is not CPU time, so nothing is charged. *)
    let time = now t + t.config.Config.exit_delay_cycles in
    (* Most recent acquisition first, as the cons-list predecessor
       released them. *)
    for i = frame.nacquired - 1 downto 0 do
      Key_section_map.release t.ksmap frame.acquired.(i) ~tid ~time;
      cycles := !cycles + c.Cost_model.atomic_op
    done;
    (* Terminate interleavings this thread participated in: the object
       stays unprotected (Not-accessed) until re-identified.  The
       match keeps the common no-interleaving exit closure-free. *)
    (match Interleave.finish_thread t.interleave ~tid with
    | [] -> ()
    | affected ->
      List.iter
        (fun obj_id ->
          match Meta_table.find_id t.env.Hooks.meta obj_id with
          | Some meta -> cycles := !cycles + demote_to_kna t meta
          | None -> Domain_state.forget t.domains ~obj_id)
        affected);
    cycles := !cycles + Mpk_hw.wrpkru (hw t) ~tid frame.saved_pkru;
    (match trace t with
    | None -> ()
    | Some _ when frame.sampled ->
      Kard_obs.Trace.observe (trace t) "kard.cs_wrpkru"
        (Mpk_hw.wrpkru_count (hw t) - frame.wrpkru_at_entry);
      sample_occupancy t
    | Some _ -> ());
    if frame.sampled then active_exit t ~site:frame.site ~tid;
    !cycles
  end

(* {2 Allocation hooks} *)

let initial_pkru =
  Pkru.of_assignments
    [ (Pkey.k_ro, Perm.Read_only); (Pkey.k_na, Perm.Read_write) ]

let on_spawn t ~tid =
  Mpk_hw.set_pkru_in_context (hw t) ~tid initial_pkru;
  (cost t).Cost_model.wrpkru

let on_alloc t ~tid:_ (meta : Obj_meta.t) =
  if Sampling.enabled t.sampling then Dense.Bitset.add t.live meta.Obj_meta.id;
  if
    Sampling.enabled t.sampling
    && not (Sampling.sampled_obj t.sampling ~epoch:t.cur_epoch ~obj_id:meta.Obj_meta.id)
  then begin
    (* Unsampled: the pages keep the default key, which every PKRU
       grants, so the object can never fault, retag, or occupy
       ksmap/vkey state until a rotation re-arms it — allocation on
       the fast path costs nothing. *)
    t.skipped_objects <- t.skipped_objects + 1;
    skip_note t meta.Obj_meta.id;
    0
  end
  else begin
    if Sampling.enabled t.sampling then t.sampled_objects <- t.sampled_objects + 1;
    protect_pages t meta Pkey.k_na
  end

let on_free t ~tid:_ (meta : Obj_meta.t) =
  let obj_id = meta.Obj_meta.id in
  if Sampling.enabled t.sampling then begin
    Dense.Bitset.remove t.live obj_id;
    Dense.Bitset.remove t.unsampled obj_id
  end;
  Domain_state.forget t.domains ~obj_id;
  Section_object_map.forget_object t.somap ~obj_id;
  Interleave.finish t.interleave ~obj_id;
  (cost t).Cost_model.map_op

(* {2 Assembled interface} *)

let metadata_bytes t =
  let per_domain_entry = 96 in
  let per_somap_entry = 64 in
  let per_section = 48 in
  let per_record = 256 in
  let per_vkey = 16 in
  let fixed = 4096 in
  fixed
  + (per_vkey * Vkey.pool t.vkey)
  + (per_domain_entry * Domain_state.tracked t.domains)
  + (per_somap_entry * Section_object_map.entry_count t.somap)
  + (per_section * Section_object_map.section_count t.somap)
  + (per_record * Pruning.logged t.pruning)

(* Accesses that landed on unsampled objects: their pages keep
   [k_def], so the MMU's own grant count is the tally and no access
   hook is installed. *)
let skipped_accesses t =
  if Sampling.enabled t.sampling then Mpk_hw.default_grants (hw t) else 0

(* The trace gets the final count once, at run end. *)
let on_finish t =
  let n = skipped_accesses t in
  match trace t with
  | Some tr when n > 0 ->
    Kard_obs.Metrics.incr ~by:n
      (Kard_obs.Metrics.counter (Kard_obs.Trace.metrics tr) "sampling.skipped_accesses")
  | Some _ | None -> ()

let hooks t =
  { Hooks.name = "kard";
    on_pick = (fun ~tid:_ -> ());
    on_spawn = (fun ~tid -> on_spawn t ~tid);
    on_global = (fun meta -> on_alloc t ~tid:(-1) meta);
    on_alloc = (fun ~tid meta -> on_alloc t ~tid meta);
    on_free = (fun ~tid meta -> on_free t ~tid meta);
    on_lock = (fun ~tid ~lock ~site -> on_lock t ~tid ~lock ~site);
    on_unlock = (fun ~tid ~lock -> on_unlock t ~tid ~lock);
    (* Kard's whole point: no per-access instrumentation. *)
    access = None;
    on_fault = (fun fault -> on_fault t fault);
    on_thread_exit = (fun ~tid:_ -> 0);
    on_finish = (fun () -> on_finish t);
    metadata_bytes = (fun () -> metadata_bytes t) }

let races t = Pruning.records t.pruning
let ilu_races t = Pruning.ilu_records t.pruning

let stats t : stats =
  let ks = Key_assign.stats t.assign in
  let vs = Vkey.stats t.vkey in
  { na_faults = t.na_faults;
    ro_faults = t.ro_faults;
    data_faults = t.data_faults;
    anomalies = t.anomalies;
    identifications_read = t.ident_read;
    identifications_write = t.ident_write;
    proactive_acquisitions = t.proactive_acq;
    reactive_acquisitions = t.reactive_acq;
    demotions = t.demotions;
    timestamp_rescues = t.ts_rescues;
    max_active_sections = t.max_active;
    reuse_events = ks.Key_assign.reuse_events;
    fresh_events = ks.Key_assign.fresh_events;
    recycling_events = ks.Key_assign.recycling_events;
    sharing_events = ks.Key_assign.sharing_events;
    migrations = Domain_state.migrations t.domains;
    interleavings_started = Interleave.started_count t.interleave;
    records_logged = Pruning.logged t.pruning;
    records_redundant = Pruning.redundant t.pruning;
    records_pruned_spurious = Pruning.removed_spurious t.pruning;
    vkey_pool = vs.Vkey.st_pool;
    vkey_resident = Vkey.resident_count t.vkey;
    vkey_hits = vs.Vkey.st_hits;
    vkey_misses = vs.Vkey.st_misses;
    vkey_evictions = vs.Vkey.st_evictions;
    vkey_loads = vs.Vkey.st_loads;
    vkey_retag_pages = vs.Vkey.st_retag_pages;
    vkey_stalls = vs.Vkey.st_stalls;
    sampling_rate = Sampling.rate t.sampling;
    sampled_sections = t.sampled_sections;
    skipped_sections = t.skipped_sections;
    sampled_objects = t.sampled_objects;
    skipped_objects = t.skipped_objects;
    skipped_accesses = skipped_accesses t;
    sampling_rotations = t.sampling_rotations;
    sampling_rearm_pages = t.sampling_rearm_pages;
    first_race_cs = t.first_race_cs }

let unique_ro_objects t = Dense.Bitset.count t.ro_seen
let unique_rw_objects t = Dense.Bitset.count t.rw_seen

type provenance = {
  rescued : bool;
  grouped : bool;
  key_shared : bool;
  recycled : bool;
  pruned : bool;
  demoted : bool;
  ro_identified : bool;
  ro_blamed : bool;
  proactive_blamed : bool;
  vkey_blamed : bool;
  sampling_skipped : bool;
}

let provenance t ~obj_id =
  { rescued = Dense.Bitset.mem t.prov_rescued obj_id;
    grouped = Dense.Bitset.mem t.prov_grouped obj_id;
    key_shared = Dense.Bitset.mem t.prov_key_shared obj_id;
    recycled = Dense.Bitset.mem t.prov_recycled obj_id;
    pruned = Dense.Bitset.mem t.prov_pruned obj_id;
    demoted = Dense.Bitset.mem t.prov_demoted obj_id;
    ro_identified = Dense.Bitset.mem t.ro_seen obj_id;
    ro_blamed = Dense.Bitset.mem t.prov_ro_blamed obj_id;
    proactive_blamed = Dense.Bitset.mem t.prov_proactive_blame obj_id;
    vkey_blamed = Dense.Bitset.mem t.prov_vkey_blamed obj_id;
    sampling_skipped = Dense.Bitset.mem t.prov_sampling_skipped obj_id }
let sampling_active t = Sampling.enabled t.sampling
let cs_entries t = t.cs_entries
let first_race_cs t = t.first_race_cs
let domains t = t.domains
let section_object_map t = t.somap
let key_section_map t = t.ksmap
let config t = t.config
let vkey_stats t = Vkey.stats t.vkey
let assignable_keys t = Key_assign.available_keys t.assign
let expected_page_key t ~key = phys_tag t key

let make ?config ~cell env =
  let t = create ?config env in
  cell := Some t;
  hooks t
