(* The virtual-key cache (libmpk-style): many software protection keys
   mapped onto the few physical data pkeys, with clock (second-chance)
   eviction.  This module is pure bookkeeping — which virtual key
   occupies which physical slot, reference bits, the clock hand and
   counters.  The *effects* of a load or eviction (batched page
   retagging, PKRU edits, cycle charges) are driven by the detector,
   which is what keeps every state change on a deterministic
   fault/lock/merge-point path (DESIGN.md §11): the table itself never
   consults wall-clock time or randomness.

   Pinning is not a counter here: the caller passes an [evictable]
   predicate and the clock simply skips slots it rejects.  The detector
   derives pinnedness from ground truth (key-section-map holders plus
   any thread's PKRU granting the slot), which closes the nested-frame
   hole a manual pin count would reopen. *)

type t = {
  pool : int;                  (* virtual keys are 1..pool; 0 = identity mode *)
  phys : int array;            (* physical data key backing each slot *)
  slot_index : int array;      (* physical key -> slot index, -1 if not a slot *)
  vkey_slot : int array;       (* vkey -> slot index, -1 = not resident *)
  slot_vkey : int array;       (* slot index -> resident vkey, -1 = free *)
  ref_bits : bool array;       (* second-chance bits, per slot *)
  mutable hand : int;          (* clock hand, a slot index *)
  mutable evicted : int;       (* vkey the latest load displaced, -1 = none *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable loads : int;
  mutable retag_pages : int;
  mutable stalls : int;
}

type outcome =
  | Hit     (* resident *)
  | Loaded  (* now resident; [evicted] is the virtual key displaced *)
  | Full    (* every slot pinned *)

type stats = {
  st_pool : int;
  st_slots : int;
  st_hits : int;
  st_misses : int;
  st_evictions : int;
  st_loads : int;
  st_retag_pages : int;
  st_stalls : int;
}

let identity =
  { pool = 0;
    phys = [||];
    slot_index = [||];
    vkey_slot = [||];
    slot_vkey = [||];
    ref_bits = [||];
    hand = 0;
    evicted = -1;
    hits = 0;
    misses = 0;
    evictions = 0;
    loads = 0;
    retag_pages = 0;
    stalls = 0 }

let create ~pool ~phys =
  if pool <= 0 then identity
  else begin
    let n = Array.length phys in
    if n < 1 then invalid_arg "Vkey.create: no physical slots";
    if pool < n then
      invalid_arg
        (Printf.sprintf "Vkey.create: pool %d smaller than the %d physical slots" pool n);
    let max_phys = Array.fold_left max 0 phys in
    let slot_index = Array.make (max_phys + 1) (-1) in
    Array.iteri
      (fun i k ->
        if k < 0 || slot_index.(k) >= 0 then invalid_arg "Vkey.create: bad slot key";
        slot_index.(k) <- i)
      phys;
    { pool;
      phys = Array.copy phys;
      slot_index;
      vkey_slot = Array.make (pool + 1) (-1);
      slot_vkey = Array.make n (-1);
      ref_bits = Array.make n false;
      hand = 0;
      evicted = -1;
      hits = 0;
      misses = 0;
      evictions = 0;
      loads = 0;
      retag_pages = 0;
      stalls = 0 }
  end

let virtualized t = t.pool > 0
let pool t = t.pool
let slot_count t = Array.length t.phys

let check_vkey t v =
  if v < 1 || v > t.pool then
    invalid_arg (Printf.sprintf "Vkey: key %d outside pool 1..%d" v t.pool)

(* Physical key currently backing [v], or -1 when evicted.  In identity
   mode every virtual key IS its physical key. *)
let phys_of t v =
  if t.pool = 0 then v
  else begin
    check_vkey t v;
    let s = t.vkey_slot.(v) in
    if s < 0 then -1 else t.phys.(s)
  end

let resident t v = if t.pool = 0 then true else (check_vkey t v; t.vkey_slot.(v) >= 0)

(* The virtual key resident in physical key [k], or -1 (free slot /
   not a slot key).  Identity mode: [k] itself. *)
let vkey_of_phys t k =
  if t.pool = 0 then k
  else if k < 0 || k >= Array.length t.slot_index || t.slot_index.(k) < 0 then -1
  else t.slot_vkey.(t.slot_index.(k))

let resident_count t =
  if t.pool = 0 then 0
  else Array.fold_left (fun acc v -> if v >= 0 then acc + 1 else acc) 0 t.slot_vkey

(* Second-chance clock over the slots.  A free slot is taken on sight;
   a referenced slot spends its reference bit; an unreferenced slot is
   offered to [evictable] and skipped (pinned) if refused.  Pinnedness
   cannot change during the scan, so two sweeps bound it: the first
   spends every reference bit, the second must select any unpinned
   slot.  [Full] means every slot is pinned by a running thread. *)
let ensure t v ~evictable =
  if t.pool = 0 then Hit
  else begin
    check_vkey t v;
    let s = t.vkey_slot.(v) in
    if s >= 0 then begin
      t.ref_bits.(s) <- true;
      t.hits <- t.hits + 1;
      Hit
    end
    else begin
      t.misses <- t.misses + 1;
      let n = Array.length t.phys in
      let chosen = ref (-1) in
      let steps = ref 0 in
      while !chosen < 0 && !steps < 2 * n do
        let i = t.hand in
        t.hand <- (t.hand + 1) mod n;
        incr steps;
        if t.slot_vkey.(i) < 0 then chosen := i
        else if t.ref_bits.(i) then t.ref_bits.(i) <- false
        else if evictable ~slot:t.phys.(i) ~vkey:t.slot_vkey.(i) then chosen := i
      done;
      if !chosen < 0 then begin
        t.stalls <- t.stalls + 1;
        Full
      end
      else begin
        let i = !chosen in
        let evicted = t.slot_vkey.(i) in
        if evicted >= 0 then begin
          t.evictions <- t.evictions + 1;
          t.vkey_slot.(evicted) <- -1
        end;
        t.slot_vkey.(i) <- v;
        t.vkey_slot.(v) <- i;
        t.ref_bits.(i) <- true;
        t.loads <- t.loads + 1;
        t.evicted <- evicted;
        Loaded
      end
    end
  end

let evicted t = t.evicted

let note_retag_pages t n = t.retag_pages <- t.retag_pages + n

let stats t =
  { st_pool = t.pool;
    st_slots = Array.length t.phys;
    st_hits = t.hits;
    st_misses = t.misses;
    st_evictions = t.evictions;
    st_loads = t.loads;
    st_retag_pages = t.retag_pages;
    st_stalls = t.stalls }
