type core = { mutable pkru : Pkru.t; tlb : Tlb.t }

type stats = {
  wrpkru_calls : int;
  rdpkru_calls : int;
  pkey_mprotect_calls : int;
  pages_retagged : int;
  faults : int;
  dtlb_accesses : int;
  dtlb_misses : int;
}

(* Thread ids are small dense ints assigned by the machine, so cores
   live in a tid-indexed array (grown by doubling); [try_access] runs
   once per simulated data access and must not hash or allocate. *)
type t = {
  cost : Cost_model.t;
  trace : Kard_obs.Trace.sink;
  page_table : Page_table.t;
  mutable cores : core option array; (* index = tid *)
  last_fault : Fault.t; (* the latest [try_access] fault, overwritten by the next *)
  mutable wrpkru_calls : int;
  mutable rdpkru_calls : int;
  mutable pkey_mprotect_calls : int;
  mutable pages_retagged : int;
  mutable faults : int;
  mutable default_grants : int; (* granted accesses to [k_def] pages *)
}

let create ?(cost = Cost_model.default) ?trace () =
  { cost;
    trace;
    page_table = Page_table.create ();
    cores = Array.make 64 None;
    last_fault = Fault.make ~addr:0 ~pkey:Pkey.k_def ~access:`Read ~thread:(-1) ~ip:0 ~time:0;
    wrpkru_calls = 0;
    rdpkru_calls = 0;
    pkey_mprotect_calls = 0;
    pages_retagged = 0;
    faults = 0;
    default_grants = 0 }

let cost t = t.cost
let trace t = t.trace
let page_table t = t.page_table
let wrpkru_count t = t.wrpkru_calls
let default_grants t = t.default_grants

let register_thread t tid =
  if tid < 0 then invalid_arg (Printf.sprintf "Mpk_hw: negative thread id %d" tid);
  if tid >= Array.length t.cores then begin
    let cap = ref (Array.length t.cores) in
    while tid >= !cap do
      cap := 2 * !cap
    done;
    let bigger = Array.make !cap None in
    Array.blit t.cores 0 bigger 0 (Array.length t.cores);
    t.cores <- bigger
  end;
  t.cores.(tid) <- Some { pkru = Pkru.all_access; tlb = Tlb.create () }

let core_of t tid =
  if tid < 0 || tid >= Array.length t.cores then
    invalid_arg (Printf.sprintf "Mpk_hw: thread %d not registered" tid)
  else
    match t.cores.(tid) with
    | Some core -> core
    | None -> invalid_arg (Printf.sprintf "Mpk_hw: thread %d not registered" tid)

let wrpkru t ~tid pkru =
  let core = core_of t tid in
  core.pkru <- pkru;
  t.wrpkru_calls <- t.wrpkru_calls + 1;
  (match t.trace with
  | None -> ()
  | Some tr ->
    Kard_obs.Trace.emit tr ~tid Kard_obs.Event.Wrpkru;
    Kard_obs.Trace.incr t.trace "hw.wrpkru");
  t.cost.Cost_model.wrpkru

let rdpkru t ~tid =
  let core = core_of t tid in
  t.rdpkru_calls <- t.rdpkru_calls + 1;
  (match t.trace with
  | None -> ()
  | Some tr ->
    Kard_obs.Trace.emit tr ~tid Kard_obs.Event.Rdpkru;
    Kard_obs.Trace.incr t.trace "hw.rdpkru");
  (core.pkru, t.cost.Cost_model.rdpkru)

let pkru_of t ~tid = (core_of t tid).pkru
let set_pkru_in_context t ~tid pkru = (core_of t tid).pkru <- pkru

(* One counted [pkey_mprotect] call over [pages] pages already
   written, reported under [pkey]. *)
let count_mprotect t ~base ~pages pkey =
  t.pkey_mprotect_calls <- t.pkey_mprotect_calls + 1;
  t.pages_retagged <- t.pages_retagged + pages;
  match t.trace with
  | None -> ()
  | Some tr ->
    Kard_obs.Trace.emit tr ~tid:(-1)
      (Kard_obs.Event.Pkey_mprotect { base; pages; pkey = Pkey.to_int pkey });
    Kard_obs.Trace.incr t.trace "hw.pkey_mprotect";
    Kard_obs.Trace.observe t.trace "hw.pages_retagged" pages

let mprotect_cycles t pages =
  t.cost.Cost_model.pkey_mprotect_base + (pages * t.cost.Cost_model.pkey_mprotect_page)

let pkey_mprotect t ~base ~len pkey =
  let pages = Page_table.set_pkey_range t.page_table ~base ~len pkey in
  count_mprotect t ~base ~pages pkey;
  mprotect_cycles t pages

let pkey_mprotect_vkey t ~base ~len ~vkey pkey =
  let pages = Page_table.set_vkey_range t.page_table ~base ~len ~vkey pkey in
  count_mprotect t ~base ~pages pkey;
  mprotect_cycles t pages

(* Does any registered thread's PKRU currently grant [pkey]?  The
   vkey layer's pinning ground truth: a slot some saved context still
   grants must not be evicted, or that thread would touch the newly
   resident key's objects unchecked.  O(threads), on a vkey miss only;
   a top-level recursion, so the scan makes no closure. *)
let rec grant_from cores pkey i =
  i < Array.length cores
  &&
  match cores.(i) with
  | Some core when Pkru.get core.pkru pkey <> Perm.No_access -> true
  | Some _ | None -> grant_from cores pkey (i + 1)

let any_grant t pkey = grant_from t.cores pkey 0

(* Batched retag for the virtual-key cache: one counted syscall for
   any number of ranges (libmpk's eviction batches the per-object
   ranges into a single kernel crossing), charged at the cheaper
   [vkey_retag_page] per page; nothing is counted for an empty batch. *)
let retag_commit t ~base ~pages pkey =
  if pages > 0 then count_mprotect t ~base ~pages pkey;
  pages * t.cost.Cost_model.vkey_retag_page

let retag_batch t ranges pkey =
  let pages =
    List.fold_left
      (fun acc (base, len) -> acc + Page_table.set_pkey_range t.page_table ~base ~len pkey)
      0 ranges
  in
  let base = match ranges with (base, _) :: _ -> base | [] -> 0 in
  (pages, retag_commit t ~base ~pages pkey)

let rebind_vkey t ~vkey ~base ~pages pkey =
  Page_table.bind t.page_table ~vkey pkey;
  retag_commit t ~base ~pages pkey

let try_access t ~tid ~addr ~access ~ip ~time =
  let core = core_of t tid in
  let vpage = Page.vpage_of_addr addr in
  (* One lookup resolves translation and protection key together: on
     the common TLB-hit path the page table is never touched, exactly
     as the PKU check reads the pkey out of the cached PTE.  The walk
     happens (and is counted) even when the access then faults — the
     MMU translates first and only then applies the key check, so
     fault-heavy runs see their true dTLB traffic. *)
  let tlb = core.tlb in
  let pkey =
    Tlb.translate tlb vpage ~gen:(Page_table.generation t.page_table)
      ~pt:t.page_table
  in
  if Pkru.grants core.pkru pkey access then begin
    if Pkey.equal pkey Pkey.k_def then t.default_grants <- t.default_grants + 1;
    if Tlb.last_missed tlb then
      t.cost.Cost_model.mem_access + t.cost.Cost_model.dtlb_miss
    else t.cost.Cost_model.mem_access
  end
  else begin
    t.faults <- t.faults + 1;
    (match t.trace with
    | None -> ()
    | Some tr ->
      Kard_obs.Trace.emit tr ~tid
        (Kard_obs.Event.Fault_raised { addr; pkey = Pkey.to_int pkey; access });
      Kard_obs.Trace.incr t.trace "hw.faults");
    Fault.overwrite t.last_fault ~addr ~pkey ~access ~thread:tid ~ip ~time;
    -1
  end

let last_fault t = t.last_fault

let note_tlb_hits t ~tid n = Tlb.note_hits (core_of t tid).tlb n

let note_tlb_misses t ~tid n =
  if n > 0 then Kard_obs.Trace.observe t.trace "hw.dtlb_miss_burst" n;
  Tlb.note_misses (core_of t tid).tlb n

let note_streamed_grants t vpage n =
  if Pkey.equal (Page_table.pkey_of_vpage t.page_table vpage) Pkey.k_def then
    t.default_grants <- t.default_grants + n

let stats t =
  let dtlb_accesses = ref 0 and dtlb_misses = ref 0 in
  Array.iter
    (function
      | None -> ()
      | Some core ->
        dtlb_accesses := !dtlb_accesses + Tlb.accesses core.tlb;
        dtlb_misses := !dtlb_misses + Tlb.misses core.tlb)
    t.cores;
  { wrpkru_calls = t.wrpkru_calls;
    rdpkru_calls = t.rdpkru_calls;
    pkey_mprotect_calls = t.pkey_mprotect_calls;
    pages_retagged = t.pages_retagged;
    faults = t.faults;
    dtlb_accesses = !dtlb_accesses;
    dtlb_misses = !dtlb_misses }

(* The one guarded miss-rate division, shared by {!dtlb_miss_rate} and
   the machine's per-run report so an empty run can never divide by
   zero in either place. *)
let miss_rate ~misses ~accesses =
  if accesses = 0 then 0. else float_of_int misses /. float_of_int accesses

let dtlb_miss_rate t =
  let s = stats t in
  miss_rate ~misses:s.dtlb_misses ~accesses:s.dtlb_accesses

let reset_stats t =
  t.wrpkru_calls <- 0;
  t.rdpkru_calls <- 0;
  t.pkey_mprotect_calls <- 0;
  t.pages_retagged <- 0;
  t.faults <- 0;
  t.default_grants <- 0;
  Array.iter
    (function None -> () | Some core -> Tlb.reset_stats core.tlb)
    t.cores
