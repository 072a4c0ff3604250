module Page = Kard_mpk.Page

(* Object ids and virtual pages are both handed out sequentially (the
   allocators' id counters, the address space's page cursor), so both
   indexes are growable arrays rather than hash tables, as in
   [Page_table]: [find_vpage] runs on every fault and [find_id] on
   every object a vkey load retags, and each must be a bounds-checked
   read.  One [Some meta] is allocated per registration and shared by
   every slot that indexes it, so a lookup returns the stored option
   without allocating.

   Both start at 64 slots, the size a race scenario needs, and double
   on demand: anything over 256 words would be allocated straight into
   the major heap on every [Machine.create] (DESIGN.md §5).  The start
   must be at least 1, since [grown] doubles. *)
type t = {
  mutable by_vpage : Obj_meta.t option array; (* index = vpage *)
  mutable by_id : Obj_meta.t option array; (* index = object id *)
  mutable live : int; (* ids with an entry *)
}

let initial_capacity = 64

let create () =
  { by_vpage = Array.make initial_capacity None;
    by_id = Array.make initial_capacity None;
    live = 0 }

let grown arr index =
  let n = ref (Array.length arr) in
  while index >= !n do
    n := 2 * !n
  done;
  let bigger = Array.make !n None in
  Array.blit arr 0 bigger 0 (Array.length arr);
  bigger

let register t (meta : Obj_meta.t) =
  let id = meta.Obj_meta.id in
  if id < 0 then invalid_arg "Meta_table.register: negative object id";
  let first = Page.vpage_of_addr meta.Obj_meta.base in
  let last = first + meta.Obj_meta.pages - 1 in
  if id >= Array.length t.by_id then t.by_id <- grown t.by_id id;
  if last >= Array.length t.by_vpage then t.by_vpage <- grown t.by_vpage last;
  let entry = Some meta in
  if Option.is_none t.by_id.(id) then t.live <- t.live + 1;
  t.by_id.(id) <- entry;
  (* A page shared by several objects (the native allocator packs
     them) indexes the latest registration. *)
  for vpage = first to last do
    t.by_vpage.(vpage) <- entry
  done

let unregister t (meta : Obj_meta.t) =
  let id = meta.Obj_meta.id in
  if id >= 0 && id < Array.length t.by_id && Option.is_some t.by_id.(id) then begin
    t.by_id.(id) <- None;
    t.live <- t.live - 1
  end;
  let first = Page.vpage_of_addr meta.Obj_meta.base in
  let last = Int.min (first + meta.Obj_meta.pages - 1) (Array.length t.by_vpage - 1) in
  (* Clear a page only while it still indexes this object: a shared
     page may already belong to a later registration. *)
  for vpage = first to last do
    match t.by_vpage.(vpage) with
    | Some m when m.Obj_meta.id = id -> t.by_vpage.(vpage) <- None
    | Some _ | None -> ()
  done

let find_vpage t vpage =
  if vpage >= 0 && vpage < Array.length t.by_vpage then t.by_vpage.(vpage) else None

let find_addr t addr =
  match find_vpage t (Page.vpage_of_addr addr) with
  | Some meta when Obj_meta.contains meta addr -> Some meta
  | Some _ | None -> None

let find_id t id = if id >= 0 && id < Array.length t.by_id then t.by_id.(id) else None
let live_count t = t.live
