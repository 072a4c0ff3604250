(* Tests for the allocators: consolidated unique page allocation
   (paper section 5.3, figure 2), the metadata table, and the native
   bump allocator used by Baseline/TSan runs. *)

module Page = Kard_mpk.Page
module Obj_meta = Kard_alloc.Obj_meta
module Meta_table = Kard_alloc.Meta_table
module Alloc_iface = Kard_alloc.Alloc_iface
module Upa = Kard_alloc.Unique_page_alloc
module Native = Kard_alloc.Native_alloc

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let make_upa () =
  let phys = Kard_vm.Phys_mem.create () in
  let aspace = Kard_vm.Address_space.create phys in
  let meta = Meta_table.create () in
  let upa = Upa.create aspace ~meta ~cost:Kard_mpk.Cost_model.default () in
  (phys, aspace, meta, upa, Upa.iface upa)

(* {1 Figure 2: consolidation} *)

let test_figure2_consolidation () =
  let phys, aspace, _, upa, iface = make_upa () in
  (* 128 objects of 32 B fit exactly into one physical page. *)
  for i = 0 to 127 do
    let (_ : Obj_meta.t * int) = iface.Alloc_iface.alloc ~site:i 32 in
    ()
  done;
  check_int "128 virtual pages" 128 (Kard_vm.Address_space.mapped_pages aspace);
  (* The file grows in batches; the objects' data needs only 1 page. *)
  check "few physical frames" true (Kard_vm.Phys_mem.resident_frames phys <= 16);
  check "file covers the data" true (Upa.file_bytes upa >= 128 * 32)

let test_unique_virtual_pages () =
  let _, _, _, _, iface = make_upa () in
  let m1, _ = iface.Alloc_iface.alloc ~site:1 32 in
  let m2, _ = iface.Alloc_iface.alloc ~site:1 32 in
  check "different virtual pages" true
    (Page.vpage_of_addr m1.Obj_meta.base <> Page.vpage_of_addr m2.Obj_meta.base);
  (* Page-internal offsets shift so allocations never overlap in the
     shared physical page. *)
  check "page-internal bases differ" true
    (Page.offset_in_page m1.Obj_meta.base <> Page.offset_in_page m2.Obj_meta.base)

let test_freed_pages_not_reused () =
  let _, _, _, _, iface = make_upa () in
  let m, _ = iface.Alloc_iface.alloc ~site:1 32 in
  let (_ : int) = iface.Alloc_iface.free m in
  let m2, _ = iface.Alloc_iface.alloc ~site:1 32 in
  check "fresh virtual pages" true (m2.Obj_meta.base <> m.Obj_meta.base)

(* A free unmaps the object's virtual pages and nothing else: the
   backing file keeps its bytes and frames (file space is not reused
   either, section 6), so the next object takes a fresh page-internal
   slot rather than the freed one. *)
let test_free_unmaps_keeps_file () =
  let phys, aspace, _, upa, iface = make_upa () in
  let keep, _ = iface.Alloc_iface.alloc ~site:1 32 in
  let m, _ = iface.Alloc_iface.alloc ~site:1 32 in
  let mapped = Kard_vm.Address_space.mapped_pages aspace in
  let file = Upa.file_bytes upa and frames = Kard_vm.Phys_mem.resident_frames phys in
  let cost = iface.Alloc_iface.free m in
  check_int "free costs one munmap" Kard_mpk.Cost_model.default.Kard_mpk.Cost_model.munmap cost;
  check_int "its page unmapped" (mapped - 1) (Kard_vm.Address_space.mapped_pages aspace);
  check_int "file unchanged" file (Upa.file_bytes upa);
  check_int "frames unchanged" frames (Kard_vm.Phys_mem.resident_frames phys);
  let m2, _ = iface.Alloc_iface.alloc ~site:1 32 in
  check "fresh slot" true
    (List.for_all
       (fun (o : Obj_meta.t) ->
         Page.offset_in_page m2.Obj_meta.base <> Page.offset_in_page o.Obj_meta.base)
       [ keep; m ])

let test_aliased_objects_share_physical_page () =
  let _, aspace, _, _, iface = make_upa () in
  let m1, _ = iface.Alloc_iface.alloc ~site:1 32 in
  let m2, _ = iface.Alloc_iface.alloc ~site:1 32 in
  (* Two objects, two virtual pages, one physical frame: both pages
     map the same page of the backing file. *)
  let frame_of (m : Obj_meta.t) =
    match Kard_vm.Address_space.backing_of_vpage aspace (Page.vpage_of_addr m.Obj_meta.base) with
    | Some (Kard_vm.Address_space.File_shared (fd, page)) ->
      Kard_vm.Phys_mem.frame_to_int (Kard_vm.Memfd.frame_of_page fd page)
    | Some (Kard_vm.Address_space.Anon _) | None -> Alcotest.fail "object page not file-backed"
  in
  check "distinct virtual pages" true
    (Page.vpage_of_addr m1.Obj_meta.base <> Page.vpage_of_addr m2.Obj_meta.base);
  check_int "one physical frame" (frame_of m1) (frame_of m2)

(* {1 Granule rounding (the water_nsquared pathology)} *)

let test_granule_rounding () =
  let _, _, _, upa, iface = make_upa () in
  let m, _ = iface.Alloc_iface.alloc ~site:1 24 in
  check_int "24 B reserves 32 B" 32 m.Obj_meta.reserved;
  check_int "8 B wasted" 8 (Upa.wasted_bytes upa);
  let m2, _ = iface.Alloc_iface.alloc ~site:1 33 in
  check_int "33 B reserves 64 B" 64 m2.Obj_meta.reserved

let test_large_allocation_page_aligned () =
  let _, _, _, _, iface = make_upa () in
  let (_ : Obj_meta.t * int) = iface.Alloc_iface.alloc ~site:1 100 in
  let m, _ = iface.Alloc_iface.alloc ~site:1 (2 * Page.size) in
  check_int "page aligned" 0 (Page.offset_in_page m.Obj_meta.base);
  check_int "spans two pages" 2 m.Obj_meta.pages

(* {1 Metadata table} *)

let test_meta_lookup () =
  let _, _, meta, _, iface = make_upa () in
  let m, _ = iface.Alloc_iface.alloc ~site:9 100 in
  (match Meta_table.find_addr meta (m.Obj_meta.base + 50) with
  | Some found -> check "lookup mid-object" true (Obj_meta.equal found m)
  | None -> Alcotest.fail "expected to find object");
  check "address beyond size misses" true
    (Meta_table.find_addr meta (m.Obj_meta.base + 100) = None);
  (* Page-granular lookup still resolves the padding (the fault path
     uses it, since the page belongs to the object). *)
  (match Meta_table.find_vpage meta (Page.vpage_of_addr m.Obj_meta.base) with
  | Some found -> check "vpage lookup" true (Obj_meta.equal found m)
  | None -> Alcotest.fail "expected vpage hit");
  check_int "live count" 1 (Meta_table.live_count meta);
  let (_ : int) = iface.Alloc_iface.free m in
  check "gone after free" true (Meta_table.find_addr meta m.Obj_meta.base = None);
  check_int "live count zero" 0 (Meta_table.live_count meta)

let obj ~id ~vpage ~pages =
  let base = Page.base_of_vpage vpage in
  { Obj_meta.id; base; size = pages * Page.size; reserved = pages * Page.size;
    kind = Obj_meta.Heap 0; pages }

let same found (m : Obj_meta.t) =
  match found with Some (f : Obj_meta.t) -> f.Obj_meta.id = m.Obj_meta.id | None -> false

(* The indexes are arrays over ids and vpages: they start at 64 slots
   and double on registration, here past 4,096 in one step. *)
let test_meta_growth () =
  let meta = Meta_table.create () in
  let small = obj ~id:3 ~vpage:0x20 ~pages:1 in
  let far = obj ~id:10_000 ~vpage:9_000 ~pages:3 in
  Meta_table.register meta small;
  Meta_table.register meta far;
  check "id past 4096" true (same (Meta_table.find_id meta 10_000) far);
  check "vpage past 4096" true (same (Meta_table.find_vpage meta 9_002) far);
  check "first vpage past 4096" true
    (same (Meta_table.find_addr meta (Page.base_of_vpage 9_000)) far);
  check "earlier entries survive growth" true (same (Meta_table.find_id meta 3) small);
  check "vpage after the object misses" true (Meta_table.find_vpage meta 9_003 = None);
  check_int "live count" 2 (Meta_table.live_count meta);
  Meta_table.unregister meta far;
  check "id gone" true (Meta_table.find_id meta 10_000 = None);
  check "pages gone" true (Meta_table.find_vpage meta 9_001 = None);
  check_int "live count after unregister" 1 (Meta_table.live_count meta);
  Meta_table.register meta small;
  check_int "re-registering an id counts once" 1 (Meta_table.live_count meta)

let test_meta_out_of_range () =
  let meta = Meta_table.create () in
  Meta_table.register meta (obj ~id:0 ~vpage:0x10 ~pages:1);
  check "negative id" true (Meta_table.find_id meta (-1) = None);
  check "negative vpage" true (Meta_table.find_vpage meta (-5) = None);
  check "id past the array" true (Meta_table.find_id meta 1_000_000 = None);
  check "vpage past the array" true (Meta_table.find_vpage meta 1_000_000 = None);
  check "address past the array" true (Meta_table.find_addr meta max_int = None);
  check "unregistered id inside the array" true (Meta_table.find_id meta 7 = None);
  check "negative id rejected" true
    (try
       Meta_table.register meta (obj ~id:(-1) ~vpage:0x30 ~pages:1);
       false
     with Invalid_argument _ -> true);
  (* Unregistering what was never registered changes nothing. *)
  Meta_table.unregister meta (obj ~id:50_000 ~vpage:70_000 ~pages:2);
  check_int "live count untouched" 1 (Meta_table.live_count meta)

(* Native allocation packs several objects per page: a shared page
   resolves to the latest registration, and unregistering an object
   clears a page only while the page still resolves to it. *)
let test_meta_shared_pages () =
  let meta = Meta_table.create () in
  let a = obj ~id:1 ~vpage:0x40 ~pages:2 in
  let b = { (obj ~id:2 ~vpage:0x41 ~pages:1) with Obj_meta.base = Page.base_of_vpage 0x41 + 128 } in
  Meta_table.register meta a;
  Meta_table.register meta b;
  check "a keeps its own page" true (same (Meta_table.find_vpage meta 0x40) a);
  check "the shared page resolves to the latest" true (same (Meta_table.find_vpage meta 0x41) b);
  check "find_addr confirms against the latest object" true
    (same (Meta_table.find_addr meta (Page.base_of_vpage 0x41 + 200)) b);
  check "an address of a on the shared page misses" true
    (Meta_table.find_addr meta (Page.base_of_vpage 0x41) = None);
  Meta_table.unregister meta a;
  check "a's own page cleared" true (Meta_table.find_vpage meta 0x40 = None);
  check "the shared page keeps b" true (same (Meta_table.find_vpage meta 0x41) b);
  Meta_table.register meta a;
  Meta_table.unregister meta b;
  check "removing b keeps the page a re-registered" true
    (same (Meta_table.find_vpage meta 0x41) a);
  Meta_table.unregister meta a;
  check "all pages clear" true
    (Meta_table.find_vpage meta 0x40 = None && Meta_table.find_vpage meta 0x41 = None);
  check_int "nothing live" 0 (Meta_table.live_count meta)

let test_meta_site_and_kind () =
  let _, _, _, _, iface = make_upa () in
  let m, _ = iface.Alloc_iface.alloc ~site:42 16 in
  check_int "site recorded" 42 (Obj_meta.site m);
  check "heap kind" true (Obj_meta.is_heap m);
  let g, _ = iface.Alloc_iface.alloc_global ~site:7 ~resident:true 64 in
  check "global kind" false (Obj_meta.is_heap g)

(* {1 Globals} *)

let test_global_unique_pages () =
  let _, aspace, _, _, iface = make_upa () in
  let g1, _ = iface.Alloc_iface.alloc_global ~site:1 ~resident:true 8 in
  let g2, _ = iface.Alloc_iface.alloc_global ~site:2 ~resident:true 8 in
  check "globals on distinct pages" true
    (Page.vpage_of_addr g1.Obj_meta.base <> Page.vpage_of_addr g2.Obj_meta.base);
  check_int "resident globals mapped" 2 (Kard_vm.Address_space.mapped_pages aspace)

let test_global_non_resident () =
  let phys, aspace, _, _, iface = make_upa () in
  let (_ : Obj_meta.t * int) = iface.Alloc_iface.alloc_global ~site:1 ~resident:false 64 in
  check_int "no frames for untouched global" 0 (Kard_vm.Phys_mem.resident_frames phys);
  check_int "not mapped" 0 (Kard_vm.Address_space.mapped_pages aspace);
  ignore phys

(* {1 Native allocator} *)

let make_native () =
  let phys = Kard_vm.Phys_mem.create () in
  let aspace = Kard_vm.Address_space.create phys in
  let meta = Meta_table.create () in
  let native = Native.create aspace ~meta ~cost:Kard_mpk.Cost_model.default () in
  (phys, meta, Native.iface native)

let test_native_packs_objects () =
  let _, _, iface = make_native () in
  let m1, _ = iface.Alloc_iface.alloc ~site:1 16 in
  let m2, _ = iface.Alloc_iface.alloc ~site:1 16 in
  check "same page" true
    (Page.vpage_of_addr m1.Obj_meta.base = Page.vpage_of_addr m2.Obj_meta.base)

let test_native_freelist_reuse () =
  let _, _, iface = make_native () in
  let m, _ = iface.Alloc_iface.alloc ~site:1 64 in
  let (_ : int) = iface.Alloc_iface.free m in
  let m2, _ = iface.Alloc_iface.alloc ~site:1 64 in
  check "address reused" true (m2.Obj_meta.base = m.Obj_meta.base)

let test_native_alignment () =
  let _, _, iface = make_native () in
  let m, _ = iface.Alloc_iface.alloc ~site:1 3 in
  check_int "16-byte alignment" 0 (m.Obj_meta.base land 15);
  check_int "reserved rounded" 16 m.Obj_meta.reserved

let test_native_large_mmap_path () =
  let _, _, iface = make_native () in
  let m, _ = iface.Alloc_iface.alloc ~site:1 (1024 * 1024) in
  check_int "page aligned" 0 (Page.offset_in_page m.Obj_meta.base);
  check_int "256 pages" 256 m.Obj_meta.pages

let upa_no_overlap_prop =
  QCheck.Test.make ~name:"unique-page allocations never overlap" ~count:50
    QCheck.(list_of_size (Gen.int_range 2 30) (int_range 1 300))
    (fun sizes ->
      let _, _, _, _, iface = make_upa () in
      let metas = List.map (fun size -> fst (iface.Alloc_iface.alloc ~site:0 size)) sizes in
      (* Pairwise disjoint virtual ranges. *)
      let ranges = List.map (fun m -> (m.Obj_meta.base, m.Obj_meta.base + m.Obj_meta.size)) metas in
      let rec disjoint = function
        | [] -> true
        | (lo, hi) :: rest ->
          List.for_all (fun (lo', hi') -> hi <= lo' || hi' <= lo) rest && disjoint rest
      in
      disjoint ranges)

let () =
  Alcotest.run "kard_alloc"
    [ ( "consolidation",
        [ Alcotest.test_case "figure 2" `Quick test_figure2_consolidation;
          Alcotest.test_case "unique virtual pages" `Quick test_unique_virtual_pages;
          Alcotest.test_case "freed pages not reused" `Quick test_freed_pages_not_reused;
          Alcotest.test_case "free unmaps, keeps the file" `Quick test_free_unmaps_keeps_file;
          Alcotest.test_case "physical sharing" `Quick test_aliased_objects_share_physical_page;
          QCheck_alcotest.to_alcotest upa_no_overlap_prop ] );
      ( "granule",
        [ Alcotest.test_case "rounding" `Quick test_granule_rounding;
          Alcotest.test_case "large allocations" `Quick test_large_allocation_page_aligned ] );
      ( "metadata",
        [ Alcotest.test_case "lookup" `Quick test_meta_lookup;
          Alcotest.test_case "site and kind" `Quick test_meta_site_and_kind;
          Alcotest.test_case "growth past 4096" `Quick test_meta_growth;
          Alcotest.test_case "out-of-range lookups" `Quick test_meta_out_of_range;
          Alcotest.test_case "shared pages" `Quick test_meta_shared_pages ] );
      ( "globals",
        [ Alcotest.test_case "unique pages" `Quick test_global_unique_pages;
          Alcotest.test_case "non-resident" `Quick test_global_non_resident ] );
      ( "native",
        [ Alcotest.test_case "packs objects" `Quick test_native_packs_objects;
          Alcotest.test_case "freelist reuse" `Quick test_native_freelist_reuse;
          Alcotest.test_case "alignment" `Quick test_native_alignment;
          Alcotest.test_case "large mmap path" `Quick test_native_large_mmap_path ] ) ]
