(* Unit and property tests for the MPK hardware model. *)

module Perm = Kard_mpk.Perm
module Pkey = Kard_mpk.Pkey
module Pkru = Kard_mpk.Pkru
module Page = Kard_mpk.Page
module Page_table = Kard_mpk.Page_table
module Tlb = Kard_mpk.Tlb
module Fault = Kard_mpk.Fault
module Cost_model = Kard_mpk.Cost_model
module Mpk_hw = Kard_mpk.Mpk_hw

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* {1 Perm} *)

let test_perm_allows () =
  check "no-access denies read" false (Perm.allows Perm.No_access `Read);
  check "no-access denies write" false (Perm.allows Perm.No_access `Write);
  check "read-only allows read" true (Perm.allows Perm.Read_only `Read);
  check "read-only denies write" false (Perm.allows Perm.Read_only `Write);
  check "read-write allows read" true (Perm.allows Perm.Read_write `Read);
  check "read-write allows write" true (Perm.allows Perm.Read_write `Write)

let test_perm_lattice () =
  check "join widens" true (Perm.equal (Perm.join Perm.Read_only Perm.Read_write) Perm.Read_write);
  check "meet narrows" true (Perm.equal (Perm.meet Perm.Read_only Perm.Read_write) Perm.Read_only);
  check "join with bottom" true (Perm.equal (Perm.join Perm.No_access Perm.Read_only) Perm.Read_only)

let test_perm_bits_roundtrip () =
  List.iter
    (fun p -> check "bits roundtrip" true (Perm.equal p (Perm.of_bits (Perm.to_bits p))))
    [ Perm.No_access; Perm.Read_only; Perm.Read_write ];
  (* The (ad=1, wd=1) encoding also denies access, like hardware. *)
  check "ad+wd denies" true (Perm.equal (Perm.of_bits 0b11) Perm.No_access)

(* {1 Pkey} *)

let test_pkey_reserved () =
  check_int "k0 is default" 0 (Pkey.to_int Pkey.k_def);
  check_int "k14 is read-only domain" 14 (Pkey.to_int Pkey.k_ro);
  check_int "k15 is not-accessed domain" 15 (Pkey.to_int Pkey.k_na);
  check_int "13 data keys" 13 (List.length Pkey.data_keys);
  check "data keys exclude reserved" true
    (List.for_all
       (fun k -> not (List.exists (Pkey.equal k) [ Pkey.k_def; Pkey.k_ro; Pkey.k_na ]))
       Pkey.data_keys)

let test_pkey_bounds () =
  Alcotest.check_raises "negative rejected" (Invalid_argument "Pkey.of_int: -1 outside [0, 15]")
    (fun () -> ignore (Pkey.of_int (-1)));
  Alcotest.check_raises "16 rejected" (Invalid_argument "Pkey.of_int: 16 outside [0, 15]")
    (fun () -> ignore (Pkey.of_int 16))

(* {1 Pkru} *)

let test_pkru_all_access () =
  check_int "all-access register is zero" 0 (Pkru.to_int Pkru.all_access);
  List.iter
    (fun i ->
      check "every key read-write" true
        (Perm.equal (Pkru.get Pkru.all_access (Pkey.of_int i)) Perm.Read_write))
    (List.init Pkey.count Fun.id)

let test_pkru_deny_all_keeps_k0 () =
  check "k0 stays read-write" true (Perm.equal (Pkru.get Pkru.deny_all Pkey.k_def) Perm.Read_write);
  List.iter
    (fun i ->
      if i <> 0 then
        check "other keys denied" true
          (Perm.equal (Pkru.get Pkru.deny_all (Pkey.of_int i)) Perm.No_access))
    (List.init Pkey.count Fun.id)

let test_pkru_set_get () =
  let r = Pkru.set Pkru.deny_all (Pkey.of_int 5) Perm.Read_only in
  check "set key 5 read-only" true (Perm.equal (Pkru.get r (Pkey.of_int 5)) Perm.Read_only);
  check "key 6 untouched" true (Perm.equal (Pkru.get r (Pkey.of_int 6)) Perm.No_access);
  let r2 = Pkru.set r (Pkey.of_int 5) Perm.Read_write in
  check "upgrade to read-write" true (Perm.equal (Pkru.get r2 (Pkey.of_int 5)) Perm.Read_write)

let test_pkru_held_keys () =
  let r = Pkru.of_assignments [ (Pkey.k_ro, Perm.Read_only); (Pkey.k_na, Perm.Read_write) ] in
  let held = Pkru.held_keys r in
  check_int "three held keys (incl. k0)" 3 (List.length held);
  check "k_na held rw" true
    (List.exists (fun (k, p) -> Pkey.equal k Pkey.k_na && Perm.equal p Perm.Read_write) held)

let pkru_roundtrip_prop =
  QCheck.Test.make ~name:"pkru set/get roundtrip" ~count:500
    QCheck.(pair (int_bound 15) (int_bound 2))
    (fun (key, perm_idx) ->
      let perm = List.nth [ Perm.No_access; Perm.Read_only; Perm.Read_write ] perm_idx in
      let r = Pkru.set Pkru.all_access (Pkey.of_int key) perm in
      Perm.equal (Pkru.get r (Pkey.of_int key)) perm)

let pkru_independence_prop =
  QCheck.Test.make ~name:"pkru keys are independent" ~count:500
    QCheck.(triple (int_bound 15) (int_bound 15) (int_bound 2))
    (fun (k1, k2, perm_idx) ->
      QCheck.assume (k1 <> k2);
      let perm = List.nth [ Perm.No_access; Perm.Read_only; Perm.Read_write ] perm_idx in
      let before = Pkru.get Pkru.deny_all (Pkey.of_int k2) in
      let r = Pkru.set Pkru.deny_all (Pkey.of_int k1) perm in
      Perm.equal (Pkru.get r (Pkey.of_int k2)) before)

(* {1 Page} *)

let test_page_geometry () =
  check_int "page size" 4096 Page.size;
  check_int "vpage of 0x2345" 2 (Page.vpage_of_addr 0x2345);
  check_int "offset of 0x2345" 0x345 (Page.offset_in_page 0x2345);
  check_int "base of vpage 2" 0x2000 (Page.base_of_vpage 2)

let test_pages_spanned () =
  check_int "zero-length spans one" 1 (Page.pages_spanned 0x1000 0);
  check_int "within page" 1 (Page.pages_spanned 0x1000 4096);
  check_int "crosses boundary" 2 (Page.pages_spanned 0x1fff 2);
  check_int "three pages" 3 (Page.pages_spanned 0x1800 8192)

(* {1 Page_table} *)

let test_page_table () =
  let pt = Page_table.create () in
  check "default key" true (Pkey.equal (Page_table.pkey_of_addr pt 0x5000) Pkey.k_def);
  let pages = Page_table.set_pkey_range pt ~base:0x5000 ~len:8192 Pkey.k_na in
  check_int "two pages tagged" 2 pages;
  check "tagged page" true (Pkey.equal (Page_table.pkey_of_addr pt 0x5fff) Pkey.k_na);
  check "next page tagged" true (Pkey.equal (Page_table.pkey_of_addr pt 0x6000) Pkey.k_na);
  check "beyond range default" true (Pkey.equal (Page_table.pkey_of_addr pt 0x7000) Pkey.k_def);
  Page_table.clear_range pt ~base:0x5000 ~len:8192;
  check "cleared back to default" true (Pkey.equal (Page_table.pkey_of_addr pt 0x5000) Pkey.k_def);
  check_int "no entries left" 0 (Page_table.entry_count pt)

(* A range write is [set_pkey] on each page: same tags, same entry
   count, same generation, whatever the keys already there and
   however far past the table's current size the range reaches. *)
let page_table_range_prop =
  QCheck.Test.make ~name:"set_pkey_range = set_pkey per page" ~count:300
    QCheck.(
      list_of_size (Gen.int_range 1 20)
        (triple (int_bound 9000) (int_bound (6 * Page.size)) (int_bound 15)))
    (fun writes ->
      let ranged = Page_table.create () and single = Page_table.create () in
      List.for_all
        (fun (vpage, len, key) ->
          let base = Page.base_of_vpage vpage + (len mod 97) in
          let pkey = Pkey.of_int key in
          let pages = Page_table.set_pkey_range ranged ~base ~len pkey in
          let first = Page.vpage_of_addr base in
          for vp = first to first + Page.pages_spanned base len - 1 do
            Page_table.set_pkey single vp pkey
          done;
          pages = Page.pages_spanned base len
          && Page_table.generation ranged = Page_table.generation single
          && Page_table.entry_count ranged = Page_table.entry_count single)
        writes
      && List.for_all
           (fun vp ->
             Pkey.equal (Page_table.pkey_of_vpage ranged vp) (Page_table.pkey_of_vpage single vp))
           (List.init 9100 Fun.id))

(* {1 Tlb} *)

let test_tlb_hit_miss () =
  let tlb = Tlb.create ~entries:8 ~ways:2 () in
  check "first touch misses" true (Tlb.access tlb 1 = `Miss);
  check "second touch hits" true (Tlb.access tlb 1 = `Hit);
  check_int "accesses counted" 2 (Tlb.accesses tlb);
  check_int "one miss" 1 (Tlb.misses tlb)

let test_tlb_eviction () =
  let tlb = Tlb.create ~entries:4 ~ways:1 () in
  (* Direct-mapped with 4 sets: pages 0 and 4 collide. *)
  ignore (Tlb.access tlb 0);
  ignore (Tlb.access tlb 4);
  check "0 was evicted" true (Tlb.access tlb 0 = `Miss)

let test_tlb_bulk () =
  let tlb = Tlb.create () in
  (* Two first touches: two accesses, two misses. *)
  ignore (Tlb.access tlb 7);
  ignore (Tlb.access tlb 71);
  Tlb.note_hits tlb 100;
  Tlb.note_misses tlb 50;
  check_int "bulk accesses" 152 (Tlb.accesses tlb);
  check_int "bulk misses" 52 (Tlb.misses tlb);
  Tlb.reset_stats tlb;
  check_int "reset" 0 (Tlb.accesses tlb)

let test_tlb_lru () =
  let tlb = Tlb.create ~entries:2 ~ways:2 () in
  (* One set, two ways: 0 and 2 fill it; touching 0 makes 2 the LRU. *)
  ignore (Tlb.access tlb 0);
  ignore (Tlb.access tlb 2);
  ignore (Tlb.access tlb 0);
  ignore (Tlb.access tlb 4);
  check "LRU (2) evicted, 0 stays" true (Tlb.access tlb 0 = `Hit);
  check "2 gone" true (Tlb.access tlb 2 = `Miss)

(* The pkey-carrying fast path: [access_translate] must resolve key and
   translation in one lookup, re-walking the page table only on a miss
   or when the table's generation moved since the fill. *)
let test_tlb_pkey_caching () =
  let pt = Page_table.create () in
  Page_table.set_pkey pt 9 (Pkey.of_int 3);
  let tlb = Tlb.create ~entries:8 ~ways:2 () in
  let walks = ref 0 in
  let load () = incr walks; Page_table.pkey_of_vpage pt 9 in
  let probe () = Tlb.access_translate tlb 9 ~gen:(Page_table.generation pt) ~load in
  let k1, hm1 = probe () in
  check "first touch misses" true (hm1 = `Miss);
  check "miss walks the table" true (!walks = 1);
  check "key resolved" true (Pkey.equal k1 (Pkey.of_int 3));
  let k2, hm2 = probe () in
  check "second touch hits" true (hm2 = `Hit);
  check_int "hit performs no walk" 1 !walks;
  check "cached key served" true (Pkey.equal k2 (Pkey.of_int 3));
  (* A page-table write anywhere moves the generation: the next hit
     must re-read the key, but the translation is still cached. *)
  Page_table.set_pkey pt 9 (Pkey.of_int 7);
  let k3, hm3 = probe () in
  check "stale gen still a translation hit" true (hm3 = `Hit);
  check_int "stale gen re-walks" 2 !walks;
  check "fresh key observed" true (Pkey.equal k3 (Pkey.of_int 7));
  let _, hm4 = probe () in
  check "refilled gen hits without walk" true (hm4 = `Hit && !walks = 2);
  check_int "four accesses, one miss" 1 (Tlb.misses tlb);
  check_int "accesses counted" 4 (Tlb.accesses tlb)

(* The TLB against a reference model: one list per set, most recently
   used first, holding each page with the generation its key was
   cached at ([None] after a plain [access]).  Random [access],
   [access_translate] and [translate] sequences, interleaved with
   page-table writes that bump the generation, must give the model's
   hit/miss verdicts and counters, the page table's current key, and a
   walk exactly when the model has no key cached at the current
   generation. *)
type tlb_op =
  | Access of int
  | Access_translate of int
  | Translate of int
  | Retag of int * int (* vpage, key *)

let pp_tlb_op = function
  | Access vp -> Printf.sprintf "access %d" vp
  | Access_translate vp -> Printf.sprintf "access_translate %d" vp
  | Translate vp -> Printf.sprintf "translate %d" vp
  | Retag (vp, k) -> Printf.sprintf "retag %d k%d" vp k

let tlb_model_prop ~entries ~ways =
  let sets = entries / ways in
  let vpage = QCheck.Gen.int_bound ((3 * entries) - 1) in
  let op =
    QCheck.Gen.(
      frequency
        [ (3, map (fun vp -> Access vp) vpage);
          (3, map (fun vp -> Access_translate vp) vpage);
          (3, map (fun vp -> Translate vp) vpage);
          (1, map2 (fun vp k -> Retag (vp, k)) vpage (int_bound (Pkey.count - 1))) ])
  in
  QCheck.Test.make
    ~name:(Printf.sprintf "matches an LRU model (%d entries, %d ways)" entries ways)
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_tlb_op ops))
       QCheck.Gen.(list_size (int_range 0 300) op))
    (fun ops ->
      let tlb = Tlb.create ~entries ~ways () in
      let pt = Page_table.create () in
      let model = Array.make sets [] in
      let accesses = ref 0 and misses = ref 0 in
      (* The model's verdict, and the generation [vp] had cached. *)
      let touch vp ~cache =
        incr accesses;
        let set = vp mod sets in
        let cached = List.assoc_opt vp model.(set) in
        if Option.is_none cached then incr misses;
        let others = List.remove_assoc vp model.(set) in
        let others = List.filteri (fun i _ -> i < ways - 1) others in
        model.(set) <- (vp, cache) :: others;
        ((if Option.is_some cached then `Hit else `Miss), Option.join cached)
      in
      let step = function
        | Access vp -> Tlb.access tlb vp = fst (touch vp ~cache:None)
        | Access_translate vp ->
          let gen = Page_table.generation pt in
          let walks = ref 0 in
          let load () =
            incr walks;
            Page_table.pkey_of_vpage pt vp
          in
          let key, verdict = Tlb.access_translate tlb vp ~gen ~load in
          let expected, cached = touch vp ~cache:(Some gen) in
          verdict = expected
          && Pkey.equal key (Page_table.pkey_of_vpage pt vp)
          && !walks = if cached = Some gen then 0 else 1
        | Translate vp ->
          let gen = Page_table.generation pt in
          let key = Tlb.translate tlb vp ~gen ~pt in
          let expected, _ = touch vp ~cache:(Some gen) in
          Tlb.last_missed tlb = (expected = `Miss)
          && Pkey.equal key (Page_table.pkey_of_vpage pt vp)
        | Retag (vp, k) ->
          Page_table.set_pkey pt vp (Pkey.of_int k);
          true
      in
      List.for_all
        (fun op -> step op && Tlb.accesses tlb = !accesses && Tlb.misses tlb = !misses)
        ops)

(* {1 Mpk_hw} *)

let make_hw () =
  let hw = Mpk_hw.create () in
  Mpk_hw.register_thread hw 0;
  Mpk_hw.register_thread hw 1;
  hw

let test_hw_access_default () =
  let hw = make_hw () in
  (match Mpk_hw.check_access hw ~tid:0 ~addr:0x4000 ~access:`Write ~ip:0 ~time:0 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "default key should allow access");
  check_int "no faults" 0 (Mpk_hw.stats hw).Mpk_hw.faults

let test_hw_fault_on_denied () =
  let hw = make_hw () in
  let (_ : int) = Mpk_hw.pkey_mprotect hw ~base:0x4000 ~len:4096 Pkey.k_na in
  let (_ : int) = Mpk_hw.wrpkru hw ~tid:0 Pkru.deny_all in
  (match Mpk_hw.check_access hw ~tid:0 ~addr:0x4123 ~access:`Read ~ip:7 ~time:99 with
  | Ok _ -> Alcotest.fail "expected a fault"
  | Error f ->
    check "fault key" true (Pkey.equal f.Fault.pkey Pkey.k_na);
    check_int "fault addr" 0x4123 f.Fault.addr;
    check_int "fault thread" 0 f.Fault.thread;
    check_int "fault ip" 7 f.Fault.ip;
    check_int "fault time" 99 f.Fault.time);
  check_int "fault counted" 1 (Mpk_hw.stats hw).Mpk_hw.faults

let test_hw_per_thread_pkru () =
  let hw = make_hw () in
  let (_ : int) = Mpk_hw.pkey_mprotect hw ~base:0x4000 ~len:4096 (Pkey.of_int 3) in
  let granted = Pkru.set Pkru.deny_all (Pkey.of_int 3) Perm.Read_write in
  let (_ : int) = Mpk_hw.wrpkru hw ~tid:0 granted in
  let (_ : int) = Mpk_hw.wrpkru hw ~tid:1 Pkru.deny_all in
  check "thread 0 can write" true
    (Result.is_ok (Mpk_hw.check_access hw ~tid:0 ~addr:0x4000 ~access:`Write ~ip:0 ~time:0));
  check "thread 1 faults" true
    (Result.is_error (Mpk_hw.check_access hw ~tid:1 ~addr:0x4000 ~access:`Write ~ip:0 ~time:0))

let test_hw_read_only_permission () =
  let hw = make_hw () in
  let key = Pkey.of_int 2 in
  let (_ : int) = Mpk_hw.pkey_mprotect hw ~base:0x8000 ~len:4096 key in
  let ro = Pkru.set Pkru.deny_all key Perm.Read_only in
  let (_ : int) = Mpk_hw.wrpkru hw ~tid:0 ro in
  check "read allowed" true
    (Result.is_ok (Mpk_hw.check_access hw ~tid:0 ~addr:0x8000 ~access:`Read ~ip:0 ~time:0));
  check "write faults" true
    (Result.is_error (Mpk_hw.check_access hw ~tid:0 ~addr:0x8000 ~access:`Write ~ip:0 ~time:0))

let test_hw_costs () =
  let hw = make_hw () in
  let c = Mpk_hw.cost hw in
  check_int "wrpkru cost" c.Cost_model.wrpkru (Mpk_hw.wrpkru hw ~tid:0 Pkru.all_access);
  let _, rd = Mpk_hw.rdpkru hw ~tid:0 in
  check_int "rdpkru cost" c.Cost_model.rdpkru rd;
  let mprotect = Mpk_hw.pkey_mprotect hw ~base:0 ~len:(3 * 4096) Pkey.k_ro in
  check_int "mprotect cost scales with pages"
    (c.Cost_model.pkey_mprotect_base + (3 * c.Cost_model.pkey_mprotect_page))
    mprotect

let test_hw_context_update () =
  let hw = make_hw () in
  (* Reactive assignment: rewriting the saved context is visible but
     does not count as a WRPKRU execution. *)
  let before = (Mpk_hw.stats hw).Mpk_hw.wrpkru_calls in
  Mpk_hw.set_pkru_in_context hw ~tid:1 Pkru.deny_all;
  check_int "no wrpkru counted" before (Mpk_hw.stats hw).Mpk_hw.wrpkru_calls;
  check "context visible" true (Pkru.equal (Mpk_hw.pkru_of hw ~tid:1) Pkru.deny_all)

(* A retag through [pkey_mprotect] must be visible on the very next
   access even though the page's translation is already cached: the
   stale cached pkey may never mask a #GP. *)
let test_hw_retag_faults_despite_tlb_hit () =
  let hw = make_hw () in
  let k3 = Pkey.of_int 3 and k5 = Pkey.of_int 5 in
  let (_ : int) = Mpk_hw.pkey_mprotect hw ~base:0x4000 ~len:4096 k3 in
  let (_ : int) = Mpk_hw.wrpkru hw ~tid:0 (Pkru.set Pkru.deny_all k3 Perm.Read_write) in
  check "access allowed, TLB warmed" true
    (Result.is_ok (Mpk_hw.check_access hw ~tid:0 ~addr:0x4000 ~access:`Write ~ip:0 ~time:0));
  let (_ : int) = Mpk_hw.pkey_mprotect hw ~base:0x4000 ~len:4096 k5 in
  (match Mpk_hw.check_access hw ~tid:0 ~addr:0x4000 ~access:`Write ~ip:1 ~time:1 with
  | Ok _ -> Alcotest.fail "stale cached pkey masked the #GP"
  | Error f -> check "fault sees the new key" true (Pkey.equal f.Fault.pkey k5));
  let s = Mpk_hw.stats hw in
  (* Both accesses translate; the second still hits (translation was
     cached — only the key was refreshed). *)
  check_int "two dTLB accesses" 2 s.Mpk_hw.dtlb_accesses;
  check_int "one dTLB miss" 1 s.Mpk_hw.dtlb_misses

(* Same property for a bare [Page_table.set_pkey] that bypasses the
   pkey_mprotect wrapper: any page-table write moves the generation. *)
let test_hw_direct_page_table_write_not_masked () =
  let hw = make_hw () in
  let k3 = Pkey.of_int 3 in
  let (_ : int) = Mpk_hw.pkey_mprotect hw ~base:0x9000 ~len:4096 k3 in
  let (_ : int) = Mpk_hw.wrpkru hw ~tid:0 (Pkru.set Pkru.deny_all k3 Perm.Read_write) in
  check "warm the TLB" true
    (Result.is_ok (Mpk_hw.check_access hw ~tid:0 ~addr:0x9000 ~access:`Read ~ip:0 ~time:0));
  Page_table.set_pkey (Mpk_hw.page_table hw) (Page.vpage_of_addr 0x9000) Pkey.k_na;
  check "direct retag faults immediately" true
    (Result.is_error (Mpk_hw.check_access hw ~tid:0 ~addr:0x9000 ~access:`Read ~ip:1 ~time:1))

(* The fault path performs (and counts) the translation: denied
   accesses generate real dTLB traffic, and the post-fault retry finds
   a warmed TLB. *)
let test_hw_fault_path_dtlb_accounting () =
  let hw = make_hw () in
  let (_ : int) = Mpk_hw.pkey_mprotect hw ~base:0x4000 ~len:4096 Pkey.k_na in
  let (_ : int) = Mpk_hw.wrpkru hw ~tid:0 Pkru.deny_all in
  check "denied" true
    (Result.is_error (Mpk_hw.check_access hw ~tid:0 ~addr:0x4000 ~access:`Read ~ip:0 ~time:0));
  let s1 = Mpk_hw.stats hw in
  check_int "faulting access translates" 1 s1.Mpk_hw.dtlb_accesses;
  check_int "cold fault misses" 1 s1.Mpk_hw.dtlb_misses;
  check "denied again" true
    (Result.is_error (Mpk_hw.check_access hw ~tid:0 ~addr:0x4000 ~access:`Read ~ip:1 ~time:1));
  let s2 = Mpk_hw.stats hw in
  check_int "retry translates too" 2 s2.Mpk_hw.dtlb_accesses;
  check_int "retry hits the warmed TLB" 1 s2.Mpk_hw.dtlb_misses;
  (* Granting access afterwards charges no extra miss: the fault left
     the translation cached. *)
  let (_ : int) = Mpk_hw.wrpkru hw ~tid:0 (Pkru.set Pkru.deny_all Pkey.k_na Perm.Read_only) in
  check "granted read succeeds" true
    (Result.is_ok (Mpk_hw.check_access hw ~tid:0 ~addr:0x4000 ~access:`Read ~ip:2 ~time:2));
  check_int "still one miss total" 1 (Mpk_hw.stats hw).Mpk_hw.dtlb_misses

(* [default_grants] is counted where the MMU takes its verdict: a
   granted access to a [k_def] page counts, a granted access to a
   keyed page and a faulting access do not, and [reset_stats] clears
   the tally with the other counters. *)
let test_hw_default_grants () =
  let hw = make_hw () in
  let k3 = Pkey.of_int 3 in
  let (_ : int) = Mpk_hw.pkey_mprotect hw ~base:0x8000 ~len:4096 k3 in
  let (_ : int) = Mpk_hw.wrpkru hw ~tid:0 (Pkru.set Pkru.deny_all k3 Perm.Read_only) in
  let access addr access = Mpk_hw.check_access hw ~tid:0 ~addr ~access ~ip:0 ~time:0 in
  check "k_def write granted" true (Result.is_ok (access 0x4000 `Write));
  check "k_def read granted" true (Result.is_ok (access 0x4010 `Read));
  check_int "both k_def grants counted" 2 (Mpk_hw.default_grants hw);
  check "keyed read granted" true (Result.is_ok (access 0x8000 `Read));
  check "keyed write faults" true (Result.is_error (access 0x8000 `Write));
  check_int "keyed grant and fault not counted" 2 (Mpk_hw.default_grants hw);
  check_int "the fault itself counted" 1 (Mpk_hw.stats hw).Mpk_hw.faults;
  Mpk_hw.reset_stats hw;
  check_int "reset clears the tally" 0 (Mpk_hw.default_grants hw)

(* A block op's analytic remainder ([note_streamed_grants]) feeds the
   same tally as [try_access], and only for [k_def] pages. *)
let test_hw_streamed_grants () =
  let hw = make_hw () in
  let k3 = Pkey.of_int 3 in
  let (_ : int) = Mpk_hw.pkey_mprotect hw ~base:0x8000 ~len:4096 k3 in
  let def_page = Page.vpage_of_addr 0x4000 and keyed_page = Page.vpage_of_addr 0x8000 in
  Mpk_hw.note_streamed_grants hw def_page 500;
  check_int "streamed k_def accesses counted" 500 (Mpk_hw.default_grants hw);
  Mpk_hw.note_streamed_grants hw keyed_page 500;
  check_int "streamed keyed accesses not counted" 500 (Mpk_hw.default_grants hw)

let test_cost_model_sanity () =
  let c = Cost_model.default in
  check "wrpkru slower than rdpkru" true (c.Cost_model.wrpkru > c.Cost_model.rdpkru);
  check "fault costs dominate" true (c.Cost_model.fault_roundtrip > c.Cost_model.pkey_mprotect_base);
  check "fault delay equals roundtrip" true
    (Cost_model.fault_delay_threshold c = c.Cost_model.fault_roundtrip);
  let seconds = Cost_model.cycles_to_seconds c 2_100_000_000 in
  check "2.1G cycles is one second" true (abs_float (seconds -. 1.0) < 1e-9)

let () =
  Alcotest.run "kard_mpk"
    [ ( "perm",
        [ Alcotest.test_case "allows" `Quick test_perm_allows;
          Alcotest.test_case "lattice" `Quick test_perm_lattice;
          Alcotest.test_case "bits roundtrip" `Quick test_perm_bits_roundtrip ] );
      ( "pkey",
        [ Alcotest.test_case "reserved keys" `Quick test_pkey_reserved;
          Alcotest.test_case "bounds" `Quick test_pkey_bounds ] );
      ( "pkru",
        [ Alcotest.test_case "all access" `Quick test_pkru_all_access;
          Alcotest.test_case "deny all keeps k0" `Quick test_pkru_deny_all_keeps_k0;
          Alcotest.test_case "set/get" `Quick test_pkru_set_get;
          Alcotest.test_case "held keys" `Quick test_pkru_held_keys;
          QCheck_alcotest.to_alcotest pkru_roundtrip_prop;
          QCheck_alcotest.to_alcotest pkru_independence_prop ] );
      ( "page",
        [ Alcotest.test_case "geometry" `Quick test_page_geometry;
          Alcotest.test_case "pages spanned" `Quick test_pages_spanned ] );
      ( "page_table",
        [ Alcotest.test_case "tag and clear" `Quick test_page_table;
          QCheck_alcotest.to_alcotest page_table_range_prop ] );
      ( "tlb",
        [ Alcotest.test_case "hit/miss" `Quick test_tlb_hit_miss;
          Alcotest.test_case "eviction" `Quick test_tlb_eviction;
          Alcotest.test_case "bulk" `Quick test_tlb_bulk;
          Alcotest.test_case "lru" `Quick test_tlb_lru;
          Alcotest.test_case "pkey caching + generation" `Quick test_tlb_pkey_caching;
          QCheck_alcotest.to_alcotest (tlb_model_prop ~entries:8 ~ways:2);
          QCheck_alcotest.to_alcotest (tlb_model_prop ~entries:4 ~ways:1);
          QCheck_alcotest.to_alcotest (tlb_model_prop ~entries:64 ~ways:4) ] );
      ( "mpk_hw",
        [ Alcotest.test_case "default access" `Quick test_hw_access_default;
          Alcotest.test_case "fault on denied" `Quick test_hw_fault_on_denied;
          Alcotest.test_case "per-thread pkru" `Quick test_hw_per_thread_pkru;
          Alcotest.test_case "read-only permission" `Quick test_hw_read_only_permission;
          Alcotest.test_case "costs" `Quick test_hw_costs;
          Alcotest.test_case "context update" `Quick test_hw_context_update;
          Alcotest.test_case "retag faults despite TLB hit" `Quick
            test_hw_retag_faults_despite_tlb_hit;
          Alcotest.test_case "direct page-table write not masked" `Quick
            test_hw_direct_page_table_write_not_masked;
          Alcotest.test_case "fault-path dTLB accounting" `Quick
            test_hw_fault_path_dtlb_accounting;
          Alcotest.test_case "default-key grants counted" `Quick test_hw_default_grants;
          Alcotest.test_case "streamed grants counted" `Quick test_hw_streamed_grants;
          Alcotest.test_case "cost model sanity" `Quick test_cost_model_sanity ] ) ]
