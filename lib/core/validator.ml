module Pkey = Kard_mpk.Pkey
module Perm = Kard_mpk.Perm
module Pkru = Kard_mpk.Pkru
module Page = Kard_mpk.Page
module Mpk_hw = Kard_mpk.Mpk_hw
module Hooks = Kard_sched.Hooks

exception Violation of string

type t = {
  env : Hooks.env;
  detector : Detector.t;
  depth : (int, int) Hashtbl.t; (* tid -> section nesting *)
  mutable checks : int;
}

let fail t fmt =
  ignore t;
  Format.kasprintf (fun msg -> raise (Violation msg)) fmt

let check t cond fmt =
  t.checks <- t.checks + 1;
  if not cond then fail t fmt
  else Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt

let depth_of t tid = Option.value ~default:0 (Hashtbl.find_opt t.depth tid)

let check_outside_pkru t ~tid =
  let pkru = Mpk_hw.pkru_of t.env.Hooks.hw ~tid in
  check t
    (Perm.equal (Pkru.get pkru Pkey.k_na) Perm.Read_write)
    "t%d outside sections must hold k_na read-write" tid;
  check t
    (Perm.equal (Pkru.get pkru Pkey.k_ro) Perm.Read_only)
    "t%d outside sections must hold k_ro read-only" tid;
  List.iter
    (fun key ->
      check t
        (Perm.equal (Pkru.get pkru key) Perm.No_access)
        "t%d outside sections must hold no data key, found %a" tid Pkey.pp key)
    Pkey.data_keys

let check_inside_pkru t ~tid =
  let pkru = Mpk_hw.pkru_of t.env.Hooks.hw ~tid in
  check t
    (Perm.equal (Pkru.get pkru Pkey.k_na) Perm.No_access)
    "t%d inside a section must have k_na retracted" tid

(* Exclusive write / shared read over the key-section map. *)
let check_key_exclusivity t =
  let ksmap = Detector.key_section_map t.detector in
  List.iter
    (fun key ->
      let holders = Key_section_map.holders ksmap key in
      let writers =
        List.filter (fun h -> Perm.equal h.Key_section_map.perm Perm.Read_write) holders
      in
      check t
        (List.length writers <= 1)
        "k%d has %d read-write holders" key (List.length writers);
      check t
        (writers = [] || List.length holders = List.length writers)
        "k%d mixes a read-write holder with readers" key)
    (Detector.assignable_keys t.detector)

(* Sampled consistency between the domain table and the page table. *)
let max_sampled_objects = 64

let check_domain_tags t =
  let domains = Detector.domains t.detector in
  let page_table = Mpk_hw.page_table t.env.Hooks.hw in
  (* The detector supplies the expected physical tag per key (slot /
     evict tag under the vkey cache). *)
  List.iter
    (fun key ->
      let objs = Domain_state.objects_with_key domains key in
      let expected = Detector.expected_page_key t.detector ~key in
      List.iteri
        (fun i obj_id ->
          if i < max_sampled_objects then
            match Kard_alloc.Meta_table.find_id t.env.Hooks.meta obj_id with
            | Some meta ->
              check t
                (Pkey.equal
                   (Kard_mpk.Page_table.pkey_of_addr page_table meta.Kard_alloc.Obj_meta.base)
                   expected)
                "object #%d is in the read-write domain under k%d but its page disagrees" obj_id
                key
            | None ->
              fail t "object #%d has a domain entry but no metadata" obj_id)
        objs)
    (Detector.assignable_keys t.detector)

let make ?config ~cell ~vcell env =
  let hooks = Detector.make ?config ~cell env in
  let detector = Option.get !cell in
  let t = { env; detector; depth = Hashtbl.create 16; checks = 0 } in
  vcell := Some t;
  (* When key sharing is possible, exclusivity is deliberately
     relaxed; skip that check. *)
  let sharing_possible =
    (Detector.config detector).Config.data_keys < Pkey.data_key_count
    (* Virtual mode shares only at full-pool pinning, but that is
       run-dependent; keep the check off rather than flag it. *)
    || (Detector.config detector).Config.vkeys > 0
  in
  { hooks with
    Hooks.on_spawn =
      (fun ~tid ->
        let cycles = hooks.Hooks.on_spawn ~tid in
        check_outside_pkru t ~tid;
        cycles);
    on_lock =
      (fun ~tid ~lock ~site ->
        let cycles = hooks.Hooks.on_lock ~tid ~lock ~site in
        Hashtbl.replace t.depth tid (depth_of t tid + 1);
        check_inside_pkru t ~tid;
        if not sharing_possible then check_key_exclusivity t;
        cycles);
    on_unlock =
      (fun ~tid ~lock ->
        let cycles = hooks.Hooks.on_unlock ~tid ~lock in
        Hashtbl.replace t.depth tid (depth_of t tid - 1);
        check t (depth_of t tid >= 0) "t%d exited more sections than it entered" tid;
        if depth_of t tid = 0 then check_outside_pkru t ~tid;
        check_domain_tags t;
        cycles);
    on_fault =
      (fun fault ->
        check t
          (not (Pkey.equal fault.Kard_mpk.Fault.pkey Pkey.k_def))
          "a fault carried the default key";
        hooks.Hooks.on_fault fault);
    on_thread_exit =
      (fun ~tid ->
        let cycles = hooks.Hooks.on_thread_exit ~tid in
        check t (depth_of t tid = 0) "t%d exited while still in a section" tid;
        cycles) }

let checks_performed t = t.checks
