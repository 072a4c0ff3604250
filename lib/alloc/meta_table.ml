module Page = Kard_mpk.Page

type t = {
  by_vpage : (Page.vpage, Obj_meta.t) Hashtbl.t;
  by_id : (int, Obj_meta.t) Hashtbl.t;
}

let create () = { by_vpage = Hashtbl.create 4096; by_id = Hashtbl.create 4096 }

let vpages_of (meta : Obj_meta.t) =
  let first = Page.vpage_of_addr meta.base in
  List.init meta.pages (fun i -> first + i)

let register t meta =
  Hashtbl.replace t.by_id meta.Obj_meta.id meta;
  List.iter (fun vp -> Hashtbl.replace t.by_vpage vp meta) (vpages_of meta)

let unregister t meta =
  Hashtbl.remove t.by_id meta.Obj_meta.id;
  List.iter
    (fun vp ->
      match Hashtbl.find_opt t.by_vpage vp with
      | Some m when Obj_meta.equal m meta -> Hashtbl.remove t.by_vpage vp
      | Some _ | None -> ())
    (vpages_of meta)

let find_vpage t vpage = Hashtbl.find_opt t.by_vpage vpage

let find_addr t addr =
  match find_vpage t (Page.vpage_of_addr addr) with
  | Some meta when Obj_meta.contains meta addr -> Some meta
  | Some _ | None -> None

let find_id t id = Hashtbl.find_opt t.by_id id
let live_count t = Hashtbl.length t.by_id
