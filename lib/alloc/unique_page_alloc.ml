module Page = Kard_mpk.Page
module Cost_model = Kard_mpk.Cost_model
module Address_space = Kard_vm.Address_space
module Memfd = Kard_vm.Memfd

(* The paper's fixed consolidation size: up to 128 objects share one
   physical page. *)
let granule = 32

type t = {
  aspace : Address_space.t;
  meta : Meta_table.t;
  cost : Cost_model.t;
  trace : Kard_obs.Trace.sink;
  memfd : Memfd.t;
  mutable cursor : int; (* next free byte offset in the memfd *)
  mutable next_id : int;
  mutable stats : Alloc_iface.stats;
  mutable live_wasted : int;
}

let create ?trace aspace ~meta ~cost () =
  { aspace;
    meta;
    cost;
    trace;
    memfd = Memfd.create (Address_space.phys aspace) ~name:"kard-heap";
    cursor = 0;
    next_id = 0;
    stats = Alloc_iface.zero_stats;
    live_wasted = 0 }

let file_bytes t = Memfd.size t.memfd
let wasted_bytes t = t.live_wasted

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let round_up_granule size = (size + granule - 1) / granule * granule

let bump_stats t f = t.stats <- f t.stats

(* Allocator work has no owning simulated thread; its events land on
   the synthetic "runtime" track (tid -1). *)
let emit_alloc t (meta : Obj_meta.t) alloc =
  match t.trace with
  | None -> ()
  | Some tr ->
    Kard_obs.Trace.emit tr ~tid:(-1)
      (Kard_obs.Event.Alloc { obj_id = meta.Obj_meta.id; size = meta.Obj_meta.size; alloc });
    Kard_obs.Trace.incr t.trace
      (match alloc with
      | Kard_obs.Event.Fresh -> "alloc.fresh"
      | Kard_obs.Event.Global -> "alloc.global")

(* Grow the memfd so that [cursor + reserved) is covered; returns the
   cycle cost (zero when no growth was needed). *)
let ensure_file_covers t upto =
  if upto > Memfd.size t.memfd then begin
    (* Grow in 16-page steps to amortize ftruncate calls, like the
       paper's runtime grows the file according to demand. *)
    let wanted = max upto (Memfd.size t.memfd + (16 * Page.size)) in
    Memfd.ftruncate t.memfd wanted;
    bump_stats t (fun s -> { s with ftruncate_calls = s.ftruncate_calls + 1 });
    t.cost.Cost_model.ftruncate
  end
  else 0

let alloc t ~site size =
  if size <= 0 then invalid_arg "Unique_page_alloc.alloc: size must be positive";
  let reserved = round_up_granule size in
  bump_stats t (fun s ->
      { s with
        allocations = s.allocations + 1;
        bytes_requested = s.bytes_requested + size;
        bytes_reserved = s.bytes_reserved + reserved });
  t.live_wasted <- t.live_wasted + (reserved - size);
  (* Large allocations start on a fresh file page so they stay
     page-aligned; small ones pack at the consolidation cursor. *)
  if reserved >= Page.size && Page.offset_in_page t.cursor <> 0 then
    t.cursor <- Page.base_of_vpage (Page.vpage_of_addr t.cursor + 1);
  let file_start = t.cursor in
  let file_end = file_start + reserved in
  t.cursor <- file_end;
  let grow_cost = ensure_file_covers t file_end in
  let first_file_page = Page.vpage_of_addr file_start in
  let pages = Page.pages_spanned file_start reserved in
  let mapped_base = Address_space.mmap_file t.aspace t.memfd ~file_page:first_file_page ~pages in
  bump_stats t (fun s -> { s with mmap_calls = s.mmap_calls + 1 });
  let base = mapped_base + Page.offset_in_page file_start in
  let meta =
    { Obj_meta.id = fresh_id t; base; size; reserved; kind = Obj_meta.Heap site; pages }
  in
  Meta_table.register t.meta meta;
  emit_alloc t meta Kard_obs.Event.Fresh;
  (meta, t.cost.Cost_model.mmap + grow_cost)

let alloc_global t ~site ~resident size =
  if size <= 0 then invalid_arg "Unique_page_alloc.alloc_global: size must be positive";
  (* Globals get unique, page-aligned, unconsolidated pages (paper
     section 6).  They are placed at load time, so the runtime cost is
     bookkeeping only; globals the program never touches stay
     non-resident. *)
  let pages = max 1 (Page.pages_spanned 0 size) in
  let base =
    if resident then Address_space.mmap_anon t.aspace ~pages
    else Address_space.reserve t.aspace ~pages
  in
  bump_stats t (fun s ->
      { s with
        global_allocations = s.global_allocations + 1;
        bytes_requested = s.bytes_requested + size;
        bytes_reserved = s.bytes_reserved + (pages * Page.size) });
  let meta =
    { Obj_meta.id = fresh_id t;
      base;
      size;
      reserved = pages * Page.size;
      kind = Obj_meta.Global site;
      pages }
  in
  Meta_table.register t.meta meta;
  emit_alloc t meta Kard_obs.Event.Global;
  (meta, t.cost.Cost_model.atomic_op)

let free t (meta : Obj_meta.t) =
  Meta_table.unregister t.meta meta;
  (match t.trace with
  | None -> ()
  | Some tr ->
    Kard_obs.Trace.emit tr ~tid:(-1) (Kard_obs.Event.Free { obj_id = meta.Obj_meta.id });
    Kard_obs.Trace.incr t.trace "alloc.free");
  bump_stats t (fun s -> { s with frees = s.frees + 1 });
  t.live_wasted <- t.live_wasted - (meta.reserved - meta.size);
  (* The virtual mapping goes away; physical file pages stay resident
     because the allocator does not reuse file space (section 6). *)
  let first_vpage = Page.vpage_of_addr meta.base in
  Address_space.munmap t.aspace ~base:(Page.base_of_vpage first_vpage) ~pages:meta.pages;
  t.cost.Cost_model.munmap

let iface t =
  { Alloc_iface.name = "kard-unique-page";
    alloc = (fun ~site size -> alloc t ~site size);
    alloc_global = (fun ~site ~resident size -> alloc_global t ~site ~resident size);
    free = (fun meta -> free t meta);
    stats = (fun () -> t.stats) }
