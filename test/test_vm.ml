(* Tests for the virtual-memory substrate: physical frames, in-memory
   files and the address space (including the shared-mapping aliasing
   that consolidated unique page allocation relies on, seen as two
   virtual pages backed by one frame). *)

module Phys_mem = Kard_vm.Phys_mem
module Memfd = Kard_vm.Memfd
module Address_space = Kard_vm.Address_space
module Page = Kard_mpk.Page

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* {1 Phys_mem} *)

let test_phys_alloc_free () =
  let phys = Phys_mem.create () in
  let f1 = Phys_mem.alloc_frame phys in
  let f2 = Phys_mem.alloc_frame phys in
  check "distinct frames" true (Phys_mem.frame_to_int f1 <> Phys_mem.frame_to_int f2);
  check_int "two resident" 2 (Phys_mem.resident_frames phys);
  Phys_mem.free_frame phys f1;
  check_int "one resident" 1 (Phys_mem.resident_frames phys);
  check_int "peak stays" (2 * Page.size) (Phys_mem.peak_resident_bytes phys);
  check_int "total allocated" 2 (Phys_mem.total_allocated_frames phys)

let test_phys_double_free () =
  let phys = Phys_mem.create () in
  let f = Phys_mem.alloc_frame phys in
  Phys_mem.free_frame phys f;
  check "double free rejected" true
    (try
       Phys_mem.free_frame phys f;
       false
     with Invalid_argument _ -> true)

(* {1 Memfd} *)

let test_memfd_ftruncate () =
  let phys = Phys_mem.create () in
  let fd = Memfd.create phys ~name:"test" in
  check_int "empty" 0 (Memfd.size fd);
  Memfd.ftruncate fd 5000;
  check_int "rounded to pages" (2 * Page.size) (Memfd.size fd);
  check_int "frames allocated" 2 (Phys_mem.resident_frames phys);
  Memfd.ftruncate fd 4096;
  check_int "shrunk" Page.size (Memfd.size fd);
  check_int "frame freed" 1 (Phys_mem.resident_frames phys)

let test_memfd_bounds () =
  let phys = Phys_mem.create () in
  let fd = Memfd.create phys ~name:"test" in
  Memfd.ftruncate fd 4096;
  check "out-of-range page rejected" true
    (try
       ignore (Memfd.frame_of_page fd 1);
       false
     with Invalid_argument _ -> true)

(* {1 Address_space} *)

(* The physical frame behind a mapped address. *)
let frame_of aspace addr =
  match Address_space.backing_of_vpage aspace (Page.vpage_of_addr addr) with
  | Some (Address_space.Anon frame) -> Phys_mem.frame_to_int frame
  | Some (Address_space.File_shared (fd, page)) ->
    Phys_mem.frame_to_int (Memfd.frame_of_page fd page)
  | None -> Alcotest.failf "0x%x is not mapped" addr

let test_aspace_anon () =
  let phys = Phys_mem.create () in
  let aspace = Address_space.create phys in
  let base = Address_space.mmap_anon aspace ~pages:2 in
  check "mapped" true (Address_space.is_mapped aspace base);
  check "second page mapped" true (Address_space.is_mapped aspace (base + Page.size));
  check "address zero unmapped" false (Address_space.is_mapped aspace 0);
  check "a frame per page" true (frame_of aspace base <> frame_of aspace (base + Page.size));
  check_int "two frames resident" 2 (Phys_mem.resident_frames phys);
  Address_space.munmap aspace ~base ~pages:2;
  check "unmapped" false (Address_space.is_mapped aspace base);
  check_int "frames freed" 0 (Phys_mem.resident_frames phys)

(* The heart of consolidation: two virtual pages aliasing one file
   page resolve to one physical frame. *)
let test_aspace_file_aliasing () =
  let phys = Phys_mem.create () in
  let aspace = Address_space.create phys in
  let fd = Memfd.create phys ~name:"heap" in
  Memfd.ftruncate fd Page.size;
  let v1 = Address_space.mmap_file aspace fd ~file_page:0 ~pages:1 in
  let v2 = Address_space.mmap_file aspace fd ~file_page:0 ~pages:1 in
  check "distinct virtual pages" true (v1 <> v2);
  check_int "aliased frame" (frame_of aspace v1) (frame_of aspace (v2 + 100));
  check_int "one physical frame" 1 (Phys_mem.resident_frames phys);
  check_int "two mapped pages" 2 (Address_space.mapped_pages aspace)

let test_aspace_reserve () =
  let phys = Phys_mem.create () in
  let aspace = Address_space.create phys in
  let base = Address_space.reserve aspace ~pages:4 in
  check "reserved not mapped" false (Address_space.is_mapped aspace base);
  check_int "no frames" 0 (Phys_mem.resident_frames phys);
  (* Reservations must not collide with later mappings. *)
  let other = Address_space.mmap_anon aspace ~pages:1 in
  check "no overlap" true (other >= base + (4 * Page.size) || other < base)

let test_aspace_accounting () =
  let phys = Phys_mem.create () in
  let aspace = Address_space.create phys in
  let base = Address_space.mmap_anon aspace ~pages:3 in
  check_int "pt pages" 1 (Address_space.page_table_pages aspace);
  check "peak mapped at least 3" true (Address_space.peak_mapped_pages aspace >= 3);
  Address_space.munmap aspace ~base ~pages:3;
  check_int "pt pages after unmap" 0 (Address_space.page_table_pages aspace);
  check "peak retained" true (Address_space.peak_mapped_pages aspace >= 3)

let () =
  Alcotest.run "kard_vm"
    [ ( "phys_mem",
        [ Alcotest.test_case "alloc/free" `Quick test_phys_alloc_free;
          Alcotest.test_case "double free" `Quick test_phys_double_free ] );
      ( "memfd",
        [ Alcotest.test_case "ftruncate" `Quick test_memfd_ftruncate;
          Alcotest.test_case "bounds" `Quick test_memfd_bounds ] );
      ( "address_space",
        [ Alcotest.test_case "anonymous mapping" `Quick test_aspace_anon;
          Alcotest.test_case "file aliasing" `Quick test_aspace_file_aliasing;
          Alcotest.test_case "reserve" `Quick test_aspace_reserve;
          Alcotest.test_case "accounting" `Quick test_aspace_accounting ] ) ]
