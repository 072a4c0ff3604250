module Page = Kard_mpk.Page

type backing =
  | Anon of Phys_mem.frame
  | File_shared of Memfd.t * int

type t = {
  phys : Phys_mem.t;
  map : (Page.vpage, backing) Hashtbl.t;
  (* Reference counts of 512-page groups, to model last-level
     page-table consumption. *)
  pt_groups : (int, int) Hashtbl.t;
  mutable peak_pt_groups : int;
  mutable peak_mapped : int;
  mutable next_vpage : Page.vpage;
}

(* Start well above zero so that address 0 is never valid, catching
   null-pointer style mistakes in workload programs. *)
let first_vpage = 0x10

(* [map] is only looked up and counted, never iterated, so its bucket
   count cannot reach an output; it starts small, on the minor heap
   (DESIGN.md §5), and the hash table resizes itself. *)
let create phys =
  { phys;
    map = Hashtbl.create 64;
    pt_groups = Hashtbl.create 64;
    peak_pt_groups = 0;
    peak_mapped = 0;
    next_vpage = first_vpage }

let pt_group_incr t vpage =
  let group = vpage / 512 in
  let count = Option.value ~default:0 (Hashtbl.find_opt t.pt_groups group) in
  Hashtbl.replace t.pt_groups group (count + 1);
  if count = 0 && Hashtbl.length t.pt_groups > t.peak_pt_groups then
    t.peak_pt_groups <- Hashtbl.length t.pt_groups;
  if Hashtbl.length t.map > t.peak_mapped then t.peak_mapped <- Hashtbl.length t.map

let pt_group_decr t vpage =
  let group = vpage / 512 in
  match Hashtbl.find_opt t.pt_groups group with
  | Some 1 -> Hashtbl.remove t.pt_groups group
  | Some count -> Hashtbl.replace t.pt_groups group (count - 1)
  | None -> ()
let phys t = t.phys

let bump t pages =
  let base = t.next_vpage in
  t.next_vpage <- base + pages;
  base

let mmap_anon t ~pages =
  if pages <= 0 then invalid_arg "Address_space.mmap_anon: pages must be positive";
  let base_vpage = bump t pages in
  for i = 0 to pages - 1 do
    Hashtbl.replace t.map (base_vpage + i) (Anon (Phys_mem.alloc_frame t.phys));
    pt_group_incr t (base_vpage + i)
  done;
  Page.base_of_vpage base_vpage

let mmap_file t memfd ~file_page ~pages =
  if pages <= 0 then invalid_arg "Address_space.mmap_file: pages must be positive";
  if file_page < 0 || file_page + pages > Memfd.page_count memfd then
    invalid_arg
      (Printf.sprintf "Address_space.mmap_file: range [%d,%d) beyond file (%d pages)"
         file_page (file_page + pages) (Memfd.page_count memfd));
  let base_vpage = bump t pages in
  for i = 0 to pages - 1 do
    Hashtbl.replace t.map (base_vpage + i) (File_shared (memfd, file_page + i));
    pt_group_incr t (base_vpage + i)
  done;
  Page.base_of_vpage base_vpage

let reserve t ~pages =
  if pages <= 0 then invalid_arg "Address_space.reserve: pages must be positive";
  Page.base_of_vpage (bump t pages)

let munmap t ~base ~pages =
  let base_vpage = Page.vpage_of_addr base in
  for i = 0 to pages - 1 do
    (match Hashtbl.find_opt t.map (base_vpage + i) with
    | Some (Anon frame) ->
      Phys_mem.free_frame t.phys frame;
      pt_group_decr t (base_vpage + i)
    | Some (File_shared _) -> pt_group_decr t (base_vpage + i)
    | None -> ());
    Hashtbl.remove t.map (base_vpage + i)
  done

let backing_of_vpage t vpage = Hashtbl.find_opt t.map vpage
let is_mapped t addr = Hashtbl.mem t.map (Page.vpage_of_addr addr)
let mapped_pages t = Hashtbl.length t.map
let page_table_pages t = Hashtbl.length t.pt_groups
let peak_page_table_pages t = t.peak_pt_groups
let peak_mapped_pages t = t.peak_mapped
