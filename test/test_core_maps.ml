(* Tests for the runtime's bookkeeping: protection domains, the
   section-object map, the key-section map, and effective key
   assignment (paper sections 5.2-5.4). *)

module Pkey = Kard_mpk.Pkey
module Perm = Kard_mpk.Perm
module Domain_state = Kard_core.Domain_state
module Somap = Kard_core.Section_object_map
module Ksmap = Kard_core.Key_section_map
module Key_assign = Kard_core.Key_assign
module Config = Kard_core.Config

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* {1 Domain_state} *)

let test_domain_default_and_migration () =
  let d = Domain_state.create () in
  check "unknown objects are not-accessed" true
    (Domain_state.domain_of d ~obj_id:9 = Domain_state.Not_accessed);
  Domain_state.set d ~obj_id:9 Domain_state.Read_only;
  check "read-only" true (Domain_state.domain_of d ~obj_id:9 = Domain_state.Read_only);
  check_int "one migration" 1 (Domain_state.migrations d);
  Domain_state.set d ~obj_id:9 Domain_state.Read_only;
  check_int "idempotent set is free" 1 (Domain_state.migrations d)

let test_domain_key_index () =
  let d = Domain_state.create () in
  let k1 = 1 in
  Domain_state.set d ~obj_id:1 (Domain_state.Read_write k1);
  Domain_state.set d ~obj_id:2 (Domain_state.Read_write k1);
  check_int "two objects on k1" 2 (List.length (Domain_state.objects_with_key d k1));
  Domain_state.set d ~obj_id:1 Domain_state.Read_only;
  check_int "one left after demotion" 1 (List.length (Domain_state.objects_with_key d k1));
  Domain_state.forget d ~obj_id:2;
  check_int "none after forget" 0 (List.length (Domain_state.objects_with_key d k1))

(* In-place iteration visits the list form's objects in reverse: the
   list is a consing fold over the same set. *)
let test_domain_iter_in_place () =
  let d = Domain_state.create () in
  for obj_id = 0 to 99 do
    Domain_state.set d ~obj_id (Domain_state.Read_write (1 + (obj_id mod 3)))
  done;
  Domain_state.set d ~obj_id:4 Domain_state.Read_only;
  List.iter
    (fun key ->
      let visited = ref [] in
      Domain_state.iter_objects_with_key d key (fun obj_id -> visited := obj_id :: !visited);
      check (Printf.sprintf "key %d" key) true (!visited = Domain_state.objects_with_key d key))
    [ 1; 2; 3; 9 ]

let test_domain_counts () =
  let d = Domain_state.create () in
  Domain_state.set d ~obj_id:1 Domain_state.Read_only;
  Domain_state.set d ~obj_id:2 (Domain_state.Read_write 3);
  (* Setting a fresh object to Not-accessed is a no-op: that is
     already its implicit domain. *)
  Domain_state.set d ~obj_id:3 Domain_state.Not_accessed;
  check_int "tracked" 2 (Domain_state.tracked d);
  (* A demotion from a real domain is tracked explicitly, and a
     forgotten object is not. *)
  Domain_state.set d ~obj_id:1 Domain_state.Not_accessed;
  check_int "demoted stays tracked" 2 (Domain_state.tracked d);
  Domain_state.forget d ~obj_id:1;
  check_int "forgotten" 1 (Domain_state.tracked d)

(* {1 Section_object_map} *)

let test_somap_record_lookup () =
  let m = Somap.create () in
  Somap.record m ~section:10 ~obj_id:1 Somap.Needs_read;
  Somap.record m ~section:10 ~obj_id:2 Somap.Needs_write;
  check_int "two objects" 2 (Somap.entries m ~section:10).Somap.n;
  check "need of 1" true (Somap.need_of m ~section:10 ~obj_id:1 = Some Somap.Needs_read);
  check_int "unknown section empty" 0 (Somap.entries m ~section:99).Somap.n

let test_somap_write_sticky () =
  let m = Somap.create () in
  Somap.record m ~section:10 ~obj_id:1 Somap.Needs_write;
  Somap.record m ~section:10 ~obj_id:1 Somap.Needs_read;
  check "write survives later read" true
    (Somap.need_of m ~section:10 ~obj_id:1 = Some Somap.Needs_write);
  Somap.record m ~section:10 ~obj_id:2 Somap.Needs_read;
  Somap.record m ~section:10 ~obj_id:2 Somap.Needs_write;
  check "read upgrades to write" true
    (Somap.need_of m ~section:10 ~obj_id:2 = Some Somap.Needs_write)

let sections_touching m ~obj_id =
  let acc = ref [] in
  Somap.iter_sections_touching m ~obj_id (fun section -> acc := section :: !acc);
  !acc

let test_somap_reverse_index () =
  let m = Somap.create () in
  Somap.record m ~section:10 ~obj_id:1 Somap.Needs_read;
  Somap.record m ~section:20 ~obj_id:1 Somap.Needs_read;
  Somap.record m ~section:30 ~obj_id:1 Somap.Needs_write;
  check_int "three touching" 3 (List.length (sections_touching m ~obj_id:1));
  check_int "two reading" 2
    (List.length
       (List.filter
          (fun section -> Somap.need_of m ~section ~obj_id:1 = Some Somap.Needs_read)
          (sections_touching m ~obj_id:1)));
  Somap.forget_object m ~obj_id:1;
  check_int "forgotten" 0 (List.length (sections_touching m ~obj_id:1));
  check "removed from sections" true (Somap.need_of m ~section:10 ~obj_id:1 = None)

(* The section-entry walk reads a section's slots in place, so their
   order is the order objects were first recorded: an upgrade rewrites
   its own slot, a re-record adds none, and a forget closes the gap
   without reordering the rest. *)
let test_somap_entries_order () =
  let m = Somap.create () in
  let slots section =
    let e = Somap.entries m ~section in
    List.init e.Somap.n (fun i -> (e.Somap.objs.(i), e.Somap.needs.(i)))
  in
  let r = Somap.Needs_read and w = Somap.Needs_write in
  List.iter (fun obj_id -> Somap.record m ~section:10 ~obj_id r) [ 5; 3; 9; 1 ];
  check "first-recorded order" true (slots 10 = [ (5, r); (3, r); (9, r); (1, r) ]);
  Somap.record m ~section:10 ~obj_id:9 w;
  check "upgrade in its own slot" true (slots 10 = [ (5, r); (3, r); (9, w); (1, r) ]);
  Somap.record m ~section:10 ~obj_id:3 r;
  Somap.record m ~section:10 ~obj_id:9 r;
  check "re-records add no slot" true (slots 10 = [ (5, r); (3, r); (9, w); (1, r) ]);
  Somap.record m ~section:20 ~obj_id:3 w;
  Somap.forget_object m ~obj_id:3;
  check "forget keeps the others in order" true (slots 10 = [ (5, r); (9, w); (1, r) ]);
  check "forget empties the other section" true (slots 20 = []);
  Somap.record m ~section:10 ~obj_id:3 r;
  check "a forgotten object comes back last" true
    (slots 10 = [ (5, r); (9, w); (1, r); (3, r) ]);
  check_int "entry count" 4 (Somap.entry_count m);
  check_int "section count keeps emptied sections" 2 (Somap.section_count m)

type somap_op =
  | Record of int * int * Somap.need
  | Forget of int
  | Renew of int * int * Somap.need (* forget the object, then record it again *)

let somap_sections = [ 0; 1; 2; 3; 4; 7 ]

(* Objects 0-80, and four past the object index's first 256 slots and
   its first doubling, so that the index grows while objects are
   recorded in it. *)
let somap_objects = Array.of_list (List.init 81 Fun.id @ [ 255; 256; 511; 700 ])

let somap_op_gen =
  QCheck.Gen.(
    let obj_id = frequency [ (12, int_range 0 80); (1, oneofl [ 255; 256; 511; 700 ]) ] in
    let need = map (fun w -> if w then Somap.Needs_write else Somap.Needs_read) bool in
    let section = oneofl somap_sections in
    frequency
      [ (6, map3 (fun section obj_id need -> Record (section, obj_id, need)) section obj_id need);
        (1, map (fun obj_id -> Forget obj_id) obj_id);
        (1, map3 (fun section obj_id need -> Renew (section, obj_id, need)) section obj_id need) ])

(* The reference: each section's entries as an association list in
   identification order, and the sections ever recorded. *)
type somap_model = {
  lists : (int * (int * Somap.need) list) list;
  recorded : int list;
}

let model_entries model section =
  Option.value ~default:[] (List.assoc_opt section model.lists)

let rec model_step model = function
  | Record (section, obj_id, need) ->
    let l = model_entries model section in
    let l =
      match (List.assoc_opt obj_id l, need) with
      | None, _ -> l @ [ (obj_id, need) ]
      | Some Somap.Needs_read, Somap.Needs_write ->
        List.map (fun (o, n) -> if o = obj_id then (o, Somap.Needs_write) else (o, n)) l
      | Some _, _ -> l
    in
    let recorded =
      if List.mem section model.recorded then model.recorded else section :: model.recorded
    in
    { lists = (section, l) :: List.remove_assoc section model.lists; recorded }
  | Forget obj_id ->
    { model with
      lists = List.map (fun (section, l) -> (section, List.remove_assoc obj_id l)) model.lists }
  | Renew (section, obj_id, need) ->
    model_step (model_step model (Forget obj_id)) (Record (section, obj_id, need))

(* Every view of the map against the reference: each section's arrays
   slot by slot, the need and membership of every object, the object's
   section set, both counts, and the sharing test for every pair of
   sections.  [needs.(s).(o)] is the reference's need of the [o]-th
   object of [somap_objects] in the [s]-th section. *)
let somap_agrees m model =
  let sections = Array.of_list somap_sections in
  let needs =
    Array.map
      (fun section ->
        let entries = model_entries model section in
        Array.map (fun obj_id -> List.assoc_opt obj_id entries) somap_objects)
      sections
  in
  let holder_in section =
    { Ksmap.tid = 0; perm = Perm.Read_write; section; lock = 0; proactive = false }
  in
  let section_ok si section =
    let l = model_entries model section in
    let e = Somap.entries m ~section in
    e.Somap.n = List.length l
    && List.for_all2
         (fun (obj_id, need) i -> e.Somap.objs.(i) = obj_id && e.Somap.needs.(i) = need)
         l
         (List.init e.Somap.n Fun.id)
    && Array.for_all Fun.id
         (Array.mapi
            (fun oi need ->
              let obj_id = somap_objects.(oi) in
              Somap.need_of m ~section ~obj_id = need
              && Somap.touches m ~section ~obj_id = Option.is_some need)
            needs.(si))
    && Array.for_all Fun.id
         (Array.mapi
            (fun sj other ->
              let shared = ref false in
              Array.iteri
                (fun oi need ->
                  if Option.is_some need && Option.is_some needs.(sj).(oi) then shared := true)
                needs.(si);
              Key_assign.disjoint_sections m ~section [ holder_in other ] = not !shared)
            sections)
  in
  let object_ok oi obj_id =
    let yielded = ref [] in
    Somap.iter_sections_touching m ~obj_id (fun section -> yielded := section :: !yielded);
    List.sort compare !yielded
    = List.filteri (fun si _ -> Option.is_some needs.(si).(oi)) somap_sections
  in
  Array.for_all Fun.id (Array.mapi section_ok sections)
  && Array.for_all Fun.id (Array.mapi object_ok somap_objects)
  && Somap.entry_count m = List.fold_left (fun acc (_, l) -> acc + List.length l) 0 model.lists
  && Somap.section_count m = List.length model.recorded

(* Random records, forgets and forget-then-record renewals over
   sections 0-4 and 7 and the objects of [somap_objects], checked
   against the reference after every operation.  A section gathers a
   dozen or more objects, so its arrays grow past their first
   capacity, forgets remove from the middle, and a renewed object must
   come back with only its new section. *)
let somap_model_prop =
  QCheck.Test.make ~name:"section-object map equals its list model" ~count:100
    (QCheck.make ~print:(fun ops -> Printf.sprintf "<%d ops>" (List.length ops))
       QCheck.Gen.(list_size (int_range 0 250) somap_op_gen))
    (fun ops ->
      let m = Somap.create () in
      let rec go model = function
        | [] -> true
        | op :: rest ->
          (match op with
          | Record (section, obj_id, need) -> Somap.record m ~section ~obj_id need
          | Forget obj_id -> Somap.forget_object m ~obj_id
          | Renew (section, obj_id, need) ->
            Somap.forget_object m ~obj_id;
            Somap.record m ~section ~obj_id need);
          let model = model_step model op in
          somap_agrees m model && go model rest
      in
      go { lists = []; recorded = [] } ops)

(* {1 Key_section_map} *)

let holder ?(perm = Perm.Read_write) ?(section = 10) ?(lock = 1) ?(proactive = false) tid =
  { Ksmap.tid; perm; section; lock; proactive }

let acquire ?(force = false) m k (h : Ksmap.holder) =
  (if force then Ksmap.force_acquire else Ksmap.acquire)
    m k ~tid:h.Ksmap.tid h.Ksmap.perm ~section:h.Ksmap.section ~lock:h.Ksmap.lock
    ~proactive:h.Ksmap.proactive

(* The fault path's in-place views as holder records: the newest
   read-write holding, and the latest release by a thread other than
   [tid] with its stamp. *)
let write_holder m k =
  let w = Ksmap.newest_writer m k in
  if w < 0 then None else Some (Ksmap.holder_of (Ksmap.holding m k w))

let release_by_other m k ~tid =
  let r = Ksmap.release_by_other m k ~tid in
  if r.Ksmap.s_tid < 0 then None
  else Some (Ksmap.release_time_by_other m k ~tid, Ksmap.holder_of r)

(* Every live holding of [k] through [holding], newest first. *)
let holdings m k =
  List.rev (List.init (Ksmap.held_count m k) (fun i -> Ksmap.holder_of (Ksmap.holding m k i)))

let test_ksmap_exclusive_write () =
  let m = Ksmap.create () in
  let k = 1 in
  acquire m k (holder 0);
  check "second rw denied" false (Ksmap.can_acquire m k ~tid:1 Perm.Read_write);
  check "ro denied under rw" false (Ksmap.can_acquire m k ~tid:1 Perm.Read_only);
  check "holder may re-acquire" true (Ksmap.can_acquire m k ~tid:0 Perm.Read_write);
  check "write holder found" true
    (match write_holder m k with
    | Some h -> h.Ksmap.tid = 0
    | None -> false)

let test_ksmap_shared_read () =
  let m = Ksmap.create () in
  let k = 2 in
  acquire m k (holder ~perm:Perm.Read_only 0);
  check "second reader allowed" true (Ksmap.can_acquire m k ~tid:1 Perm.Read_only);
  acquire m k (holder ~perm:Perm.Read_only ~section:20 1);
  check_int "two holders" 2 (List.length (Ksmap.holders m k));
  check "writer denied under readers" false (Ksmap.can_acquire m k ~tid:2 Perm.Read_write);
  check "no write holder" true (write_holder m k = None)

let test_ksmap_release_and_timestamp () =
  let m = Ksmap.create () in
  let k = 3 in
  acquire m k (holder 0);
  Ksmap.release m k ~tid:0 ~time:1000;
  check "released" true (Ksmap.holders m k = []);
  check_int "release stamped" 1000 (Ksmap.last_release_time m k);
  check_int "never released" (-1) (Ksmap.last_release_time m 6);
  (match release_by_other m k ~tid:1 with
  | Some (1000, h) -> check_int "releaser identity kept" 0 h.Ksmap.tid
  | _ -> Alcotest.fail "expected release record");
  check "own release does not count" true (release_by_other m k ~tid:0 = None);
  acquire m k (holder 1);
  check "a stamp below the latest is refused" true
    (try
       Ksmap.release m k ~tid:1 ~time:999;
       false
     with Invalid_argument _ -> true)

let test_ksmap_upgrade () =
  let m = Ksmap.create () in
  let k = 4 in
  acquire m k (holder ~perm:Perm.Read_only 0);
  acquire m k (holder ~perm:Perm.Read_write 0);
  (match write_holder m k with
  | Some h -> check_int "upgraded in place" 0 h.Ksmap.tid
  | None -> Alcotest.fail "expected upgrade");
  check_int "still one holding" 1 (List.length (Ksmap.holders m k))

let test_ksmap_force_acquire () =
  let m = Ksmap.create () in
  let k = 5 in
  acquire m k (holder 0);
  check "normal acquire raises" true
    (try
       acquire m k (holder 1);
       false
     with Invalid_argument _ -> true);
  acquire ~force:true m k (holder ~section:20 1);
  check_int "shared holding" 2 (List.length (Ksmap.holders m k))

(* Per-key and per-thread views of the holdings: the vkey layer's
   pin count, a thread's keys for its section exit, and the keys no
   thread holds. *)
let test_ksmap_holdings () =
  let m = Ksmap.create () in
  acquire m 7 (holder ~perm:Perm.Read_only 0);
  acquire m 7 (holder ~perm:Perm.Read_only ~section:20 1);
  acquire m 2 (holder ~section:20 1);
  acquire m 4 (holder ~perm:Perm.Read_only 0);
  check_int "two holdings of 7" 2 (Ksmap.held_count m 7);
  check_int "key never held" 0 (Ksmap.held_count m 9);
  let perms tid = List.map (fun key -> Ksmap.perm_of m key ~tid) [ 2; 4; 7; 9 ] in
  check "thread 1's keys" true
    (perms 1 = [ Perm.Read_write; Perm.No_access; Perm.Read_only; Perm.No_access ]);
  check "thread 0's keys" true
    (perms 0 = [ Perm.No_access; Perm.Read_only; Perm.Read_only; Perm.No_access ]);
  check "unknown thread holds nothing" true (List.for_all (( = ) Perm.No_access) (perms 5));
  check "holdings oldest first in place" true
    (List.init (Ksmap.held_count m 7) (fun i -> (Ksmap.holding m 7 i).Ksmap.s_tid) = [ 0; 1 ]);
  check "no holding past the live ones" true
    (try
       ignore (Ksmap.holding m 7 2 : Ksmap.slot);
       false
     with Invalid_argument _ -> true);
  check "unheld among" true (Ksmap.unheld_keys m ~among:[ 2; 3; 4; 9 ] = [ 3; 9 ]);
  Ksmap.release m 7 ~tid:1 ~time:50;
  check_int "one holding of 7 left" 1 (Ksmap.held_count m 7);
  check "thread 1 keeps key 2" true
    (perms 1 = [ Perm.Read_write; Perm.No_access; Perm.No_access; Perm.No_access ])

(* {2 The key-section map against a list model} *)

type ksmap_op =
  | Take of bool * int * Ksmap.holder (* forced?, key, holding *)
  | Drop of int * int * int (* tid, key, stamp increment (0 repeats) *)

(* Keys 0-20 and 37 (past the initial capacity of 16 and the first
   doubling), most operations on keys 0-3 so that several threads
   contend for each key. *)
let ksmap_keys = List.init 21 Fun.id @ [ 37 ]

let ksmap_op_gen =
  QCheck.Gen.(
    let key = frequency [ (8, int_range 0 3); (4, int_range 0 20); (1, return 37) ] in
    let tid = int_range 0 5 in
    frequency
      [ ( 5,
          let* forced = frequency [ (4, return false); (1, return true) ] in
          let* key = key in
          let* tid = tid in
          let* perm = oneofl [ Perm.Read_only; Perm.Read_only; Perm.Read_write ] in
          let* section = int_range 0 9 in
          let* lock = int_range 0 3 in
          let* proactive = bool in
          return (Take (forced, key, { Ksmap.tid; perm; section; lock; proactive })) );
        ( 4,
          let* tid = tid in
          let* key = key in
          let* dt = oneofl [ 0; 0; 1; 3 ] in
          return (Drop (tid, key, dt)) ) ])

(* The reference: each key's holdings newest first, as the cons-list
   predecessor kept them, and every release ever made, newest first. *)
type ksmap_model = {
  held : (int * Ksmap.holder list) list;
  released : (int * int * Ksmap.holder) list; (* key, stamp, holding *)
  clock : int;
}

let model_holders model key = Option.value ~default:[] (List.assoc_opt key model.held)

let model_can_acquire model key ~tid perm =
  let others = List.filter (fun (h : Ksmap.holder) -> h.Ksmap.tid <> tid) (model_holders model key) in
  match perm with
  | Perm.Read_write -> others = []
  | Perm.Read_only ->
    List.for_all (fun (h : Ksmap.holder) -> not (Perm.equal h.Ksmap.perm Perm.Read_write)) others
  | Perm.No_access -> false

let with_holders model key hs = { model with held = (key, hs) :: List.remove_assoc key model.held }

(* The latest release of [key] by each thread other than [tid], the
   latest of those winning and the lowest tid on equal stamps. *)
let model_last_release_by_other model key ~tid =
  let latest_by =
    List.fold_left
      (fun acc (k, time, (h : Ksmap.holder)) ->
        if k <> key || h.Ksmap.tid = tid || List.mem_assoc h.Ksmap.tid acc then acc
        else (h.Ksmap.tid, (time, h)) :: acc)
      [] model.released
  in
  List.fold_left
    (fun best (r, (time, h)) ->
      match best with
      | Some (bt, (bh : Ksmap.holder)) when bt > time || (bt = time && bh.Ksmap.tid < r) -> best
      | Some _ | None -> Some (time, h))
    None latest_by

let ksmap_model_step model = function
  | Take (forced, key, h) ->
    let tid = h.Ksmap.tid in
    if (not forced) && not (model_can_acquire model key ~tid h.Ksmap.perm) then model
    else
      let hs = model_holders model key in
      let h =
        match List.find_opt (fun (o : Ksmap.holder) -> o.Ksmap.tid = tid) hs with
        | None -> h
        | Some o ->
          { h with
            Ksmap.perm = Perm.join o.Ksmap.perm h.Ksmap.perm;
            proactive = o.Ksmap.proactive && h.Ksmap.proactive }
      in
      with_holders model key (h :: List.filter (fun (o : Ksmap.holder) -> o.Ksmap.tid <> tid) hs)
  | Drop (tid, key, dt) ->
    let time = model.clock + dt in
    let model = { model with clock = time } in
    let hs = model_holders model key in
    (match List.find_opt (fun (o : Ksmap.holder) -> o.Ksmap.tid = tid) hs with
    | None -> model
    | Some h ->
      let model =
        with_holders model key (List.filter (fun (o : Ksmap.holder) -> o.Ksmap.tid <> tid) hs)
      in
      { model with released = (key, time, h) :: model.released })

(* Every view of the map, for every key and thread, against the
   reference; key 64 was never touched. *)
let ksmap_agrees m model =
  List.for_all
    (fun key ->
      let hs = model_holders model key in
      Ksmap.holders m key = hs
      && Ksmap.held_count m key = List.length hs
      && holdings m key = hs
      && write_holder m key
         = List.find_opt (fun (h : Ksmap.holder) -> Perm.equal h.Ksmap.perm Perm.Read_write) hs
      && Ksmap.last_release_time m key
         = (match List.find_opt (fun (k, _, _) -> k = key) model.released with
           | Some (_, time, _) -> time
           | None -> -1)
      && List.for_all
           (fun tid ->
             Ksmap.perm_of m key ~tid
                = (match List.find_opt (fun (h : Ksmap.holder) -> h.Ksmap.tid = tid) hs with
                  | Some h -> h.Ksmap.perm
                  | None -> Perm.No_access)
             && List.for_all
                  (fun perm ->
                    Ksmap.can_acquire m key ~tid perm = model_can_acquire model key ~tid perm)
                  [ Perm.Read_write; Perm.Read_only; Perm.No_access ]
             && release_by_other m key ~tid = model_last_release_by_other model key ~tid)
           (List.init 6 Fun.id))
    (ksmap_keys @ [ 64 ])

(* Random acquisitions, forced acquisitions and releases over threads
   0-5, with release stamps that never decrease and often repeat,
   checked against the reference after every operation.  A refused
   acquisition must raise and change nothing. *)
let ksmap_model_prop =
  QCheck.Test.make ~name:"key-section map equals its list model" ~count:200
    (QCheck.make ~print:(fun ops -> Printf.sprintf "<%d ops>" (List.length ops))
       QCheck.Gen.(list_size (int_range 0 200) ksmap_op_gen))
    (fun ops ->
      let m = Ksmap.create () in
      let rec go model = function
        | [] -> true
        | op :: rest ->
          let refused =
            match op with
            | Take (forced, key, h) -> (
              try
                acquire ~force:forced m key h;
                false
              with Invalid_argument _ -> true)
            | Drop (tid, key, dt) ->
              Ksmap.release m key ~tid ~time:(model.clock + dt);
              false
          in
          let model' = ksmap_model_step model op in
          let refusal_ok =
            match op with
            | Take (false, key, h) ->
              refused = not (model_can_acquire model key ~tid:h.Ksmap.tid h.Ksmap.perm)
            | Take (true, _, _) | Drop _ -> not refused
          in
          refusal_ok && ksmap_agrees m model' && go model' rest
      in
      go { held = []; released = []; clock = 0 } ops)

(* {1 Key_assign: the three rules of section 5.4} *)

let assign_env () =
  let config = Config.default in
  (Key_assign.create config, Ksmap.create (), Domain_state.create (), Somap.create ())

(* A decision as the detector takes it: rule 1's candidate is the
   lowest key of [held], the keys the thread's open sections acquired,
   that [reusable] accepts; the result is the rule and its key. *)
let choose ka ~ksmap ~domains ~somap ~tid ~section ~held =
  let reuse =
    List.fold_left
      (fun best key ->
        if (best < 0 || key < best) && Key_assign.reusable ka ~ksmap ~tid key then key else best)
      (-1) held
  in
  let rule = Key_assign.choose ka ~ksmap ~domains ~somap ~section ~reuse in
  (rule, Key_assign.chosen ka)

let rule_name = function
  | Key_assign.Reuse -> "reuse"
  | Key_assign.Fresh -> "fresh"
  | Key_assign.Recycle -> "recycle"
  | Key_assign.Share -> "share"

let pp_decision fmt (rule, key) = Format.fprintf fmt "%s k%d" (rule_name rule) key

let test_assign_reuse_rule () =
  let ka, ksmap, domains, somap = assign_env () in
  acquire ksmap 5 (holder 0);
  acquire ksmap 3 (holder ~perm:Perm.Read_only 0);
  acquire ksmap 8 (holder 0);
  check "a read-write key is reusable" true (Key_assign.reusable ka ~ksmap ~tid:0 5);
  check "a read-only key is not" false (Key_assign.reusable ka ~ksmap ~tid:0 3);
  check "another thread's key is not" false (Key_assign.reusable ka ~ksmap ~tid:1 5);
  check "a key outside key space is not" false (Key_assign.reusable ka ~ksmap ~tid:0 14);
  (match choose ka ~ksmap ~domains ~somap ~tid:0 ~section:10 ~held:[ 8; 3; 5; 8 ] with
  | Key_assign.Reuse, k -> check_int "reuses the lowest held key" 5 k
  | d -> Alcotest.failf "expected Reuse, got %a" pp_decision d);
  Ksmap.release ksmap 5 ~tid:0 ~time:1;
  (match choose ka ~ksmap ~domains ~somap ~tid:0 ~section:10 ~held:[ 8; 3; 5 ] with
  | Key_assign.Reuse, k -> check_int "a released key is skipped" 8 k
  | d -> Alcotest.failf "expected Reuse, got %a" pp_decision d)

let test_assign_fresh_rule () =
  let ka, ksmap, domains, somap = assign_env () in
  (match choose ka ~ksmap ~domains ~somap ~tid:0 ~section:10 ~held:[] with
  | Key_assign.Fresh, _ -> ()
  | _ -> Alcotest.fail "expected Fresh when keys are unassigned")

let test_assign_recycle_rule () =
  let ka, ksmap, domains, somap = assign_env () in
  (* All 13 keys protect objects, none held: recycling picks the key
     with the fewest objects to demote. *)
  List.iteri
    (fun i key ->
      Domain_state.set domains ~obj_id:(100 + i) (Domain_state.Read_write key);
      if i <> 4 then Domain_state.set domains ~obj_id:(200 + i) (Domain_state.Read_write key))
    (Key_assign.available_keys ka);
  (match choose ka ~ksmap ~domains ~somap ~tid:0 ~section:10 ~held:[] with
  | Key_assign.Recycle, k ->
    check_int "cheapest key" 5 k;
    check_int "one object to demote" 1 (List.length (Domain_state.objects_with_key domains k))
  | _ -> Alcotest.fail "expected Recycle")

(* Table 4's sharing test: a key may be shared with its holders only
   when no object the entering section has recorded, read or written,
   is recorded by a holder's section. *)
let test_assign_disjoint_sections () =
  let somap = Somap.create () in
  Somap.record somap ~section:10 ~obj_id:1 Somap.Needs_read;
  Somap.record somap ~section:10 ~obj_id:2 Somap.Needs_write;
  Somap.record somap ~section:20 ~obj_id:3 Somap.Needs_write;
  Somap.record somap ~section:30 ~obj_id:2 Somap.Needs_read;
  Somap.record somap ~section:40 ~obj_id:1 Somap.Needs_read;
  let disjoint section holders =
    Key_assign.disjoint_sections somap ~section
      (List.map (fun s -> holder ~section:s 1) holders)
  in
  check "no holders" true (disjoint 10 []);
  check "disjoint holder" true (disjoint 10 [ 20 ]);
  check "a shared written object" false (disjoint 10 [ 30 ]);
  check "a shared read object" false (disjoint 10 [ 40 ]);
  check "any holder overlapping" false (disjoint 10 [ 20; 40 ]);
  check "a section never recorded" true (disjoint 99 [ 10; 30 ]);
  Somap.forget_object somap ~obj_id:1;
  check "disjoint once the object is forgotten" true (disjoint 10 [ 40 ])

let test_assign_share_rule () =
  let config = { Config.default with Config.data_keys = 2 } in
  let ka = Key_assign.create config in
  let ksmap = Ksmap.create () in
  let domains = Domain_state.create () in
  let somap = Somap.create () in
  (* Both keys held, both protecting objects: sharing is forced. *)
  List.iteri
    (fun i key ->
      Domain_state.set domains ~obj_id:i (Domain_state.Read_write key);
      acquire ksmap key (holder ~section:(20 + i) i))
    (Key_assign.available_keys ka);
  Somap.record somap ~section:20 ~obj_id:0 Somap.Needs_write;
  Somap.record somap ~section:21 ~obj_id:1 Somap.Needs_write;
  Somap.record somap ~section:10 ~obj_id:50 Somap.Needs_write;
  (match choose ka ~ksmap ~domains ~somap ~tid:5 ~section:10 ~held:[] with
  | Key_assign.Share, _ -> ()
  | d -> Alcotest.failf "expected Share, got %a" pp_decision d)

(* The budget's range is [Config.validate]'s to check (test_detector). *)
let test_assign_key_budget () =
  let ka = Key_assign.create { Config.default with Config.data_keys = 3 } in
  check_int "budget respected" 3 (List.length (Key_assign.available_keys ka))

let test_assign_stats () =
  let ka, ksmap, domains, somap = assign_env () in
  let rule, key = choose ka ~ksmap ~domains ~somap ~tid:0 ~section:10 ~held:[] in
  Key_assign.note ka rule key;
  Key_assign.note ka Key_assign.Share key;
  Key_assign.note ka Key_assign.Share key;
  let s = Key_assign.stats ka in
  check_int "fresh counted" 1 s.Key_assign.fresh_events;
  check_int "shares counted" 2 s.Key_assign.sharing_events;
  check_int "nothing else" 0 (s.Key_assign.reuse_events + s.Key_assign.recycling_events)

(* {1 Key_assign saturation: the full-table decisions} *)

(* Put every data key under protection (one object each, recorded in
   the somap under its holder's section) and, unless [skip] says
   otherwise, under a live holder too. *)
let saturate ?(skip = fun _ -> false) ka ksmap domains somap =
  List.iteri
    (fun i key ->
      Domain_state.set domains ~obj_id:(100 + i) (Domain_state.Read_write key);
      Somap.record somap ~section:(20 + i) ~obj_id:(100 + i) Somap.Needs_write;
      if not (skip i) then acquire ksmap key (holder ~section:(20 + i) ~lock:i i))
    (Key_assign.available_keys ka)

let test_assign_saturation_share () =
  let ka, ksmap, domains, somap = assign_env () in
  saturate ka ksmap domains somap;
  Somap.record somap ~section:10 ~obj_id:500 Somap.Needs_write;
  match choose ka ~ksmap ~domains ~somap ~tid:50 ~section:10 ~held:[] with
  | Key_assign.Share, k ->
    check "shared key is a data key" true (List.mem k (Key_assign.available_keys ka));
    check "shared key is genuinely held" true (Ksmap.holders ksmap k <> [])
  | d -> Alcotest.failf "expected Share at full saturation, got %a" pp_decision d

let test_assign_saturation_recycle () =
  (* One holder short of saturation: the single unheld key must be
     recycled — sharing is strictly a last resort. *)
  let ka, ksmap, domains, somap = assign_env () in
  let spare_idx = 7 in
  saturate ~skip:(fun i -> i = spare_idx) ka ksmap domains somap;
  let spare = List.nth (Key_assign.available_keys ka) spare_idx in
  Domain_state.set domains ~obj_id:300 (Domain_state.Read_write spare);
  match choose ka ~ksmap ~domains ~somap ~tid:50 ~section:10 ~held:[] with
  | Key_assign.Recycle, k -> check_int "the single unheld key" spare k
  | d -> Alcotest.failf "expected Recycle of the unheld key, got %a" pp_decision d

let test_assign_saturation_vkey_pool () =
  (* The sharing moment with a virtual pool over the same hardware:
     once a one-key budget's key is held the next section must share
     it, but a 16-key pool over that one key hands out fresh keys
     until all 16 are held, and shares only then. *)
  let fail_with expected d = Alcotest.failf "expected %s, got %a" expected pp_decision d in
  let sections config n =
    (* Threads 0..n-1 each enter a section that takes a fresh key and
       keeps holding it; then thread 50 enters one more. *)
    let ka = Key_assign.create config in
    let ksmap = Ksmap.create () and domains = Domain_state.create () in
    let somap = Somap.create () in
    for i = 0 to n - 1 do
      Somap.record somap ~section:(20 + i) ~obj_id:(100 + i) Somap.Needs_write;
      match choose ka ~ksmap ~domains ~somap ~tid:i ~section:(20 + i) ~held:[] with
      | Key_assign.Fresh, key ->
        Key_assign.note ka Key_assign.Fresh key;
        Domain_state.set domains ~obj_id:(100 + i) (Domain_state.Read_write key);
        acquire ksmap key (holder ~section:(20 + i) ~lock:i i)
      | d -> fail_with (Printf.sprintf "Fresh for section %d" i) d
    done;
    Somap.record somap ~section:10 ~obj_id:500 Somap.Needs_write;
    choose ka ~ksmap ~domains ~somap ~tid:50 ~section:10 ~held:[]
  in
  let one_key = { Config.default with Config.data_keys = 1 } in
  (match sections one_key 1 with
  | Key_assign.Share, k -> check_int "one key shares the held key" 1 k
  | d -> fail_with "Share" d);
  let pooled = { one_key with Config.vkeys = 16 } in
  (match sections pooled 1 with
  | Key_assign.Fresh, k -> check_int "the pool hands out its second key" 2 k
  | d -> fail_with "Fresh" d);
  (match sections pooled 15 with
  | Key_assign.Fresh, k -> check_int "and its last" 16 k
  | d -> fail_with "Fresh" d);
  match sections pooled 16 with
  | Key_assign.Share, k -> check "shares a pool key" true (k >= 1 && k <= 16)
  | d -> fail_with "Share at full pool saturation" d

(* {1 Key assignment properties} *)

let assign_state_gen =
  QCheck.Gen.(
    let* keys = int_range 1 13 in
    (* Per data key: held by a thread (Some tid) or not, plus how many
       objects it protects. *)
    let* key_states = list_size (return keys) (pair (opt (int_range 0 3)) (int_range 0 3)) in
    return (keys, key_states))

let assign_decision_prop =
  QCheck.Test.make ~name:"key assignment decisions respect the rules" ~count:400
    (QCheck.make ~print:(fun _ -> "<state>") assign_state_gen)
    (fun (keys, key_states) ->
      let config = { Config.default with Config.data_keys = keys } in
      let ka = Key_assign.create config in
      let ksmap = Ksmap.create () in
      let domains = Domain_state.create () in
      let somap = Somap.create () in
      let next_obj = ref 100 in
      List.iteri
        (fun i (held_by, objects) ->
          let key = List.nth (Key_assign.available_keys ka) i in
          for _ = 1 to objects do
            Domain_state.set domains ~obj_id:!next_obj (Domain_state.Read_write key);
            incr next_obj
          done;
          match held_by with
          | Some tid -> acquire ksmap key (holder ~section:(20 + tid) ~lock:tid tid)
          | None -> ())
        key_states;
      let faulter = 9 (* holds nothing *) in
      let decision = choose ka ~ksmap ~domains ~somap ~tid:faulter ~section:10 ~held:[] in
      let unassigned_exists =
        List.exists
          (fun key ->
            Ksmap.holders ksmap key = [] && Domain_state.objects_with_key domains key = [])
          (Key_assign.available_keys ka)
      in
      let unheld_exists =
        List.exists (fun key -> Ksmap.holders ksmap key = []) (Key_assign.available_keys ka)
      in
      match decision with
      | Key_assign.Reuse, _ -> false (* the faulter holds nothing *)
      | Key_assign.Fresh, key ->
        unassigned_exists
        && Ksmap.holders ksmap key = []
        && Domain_state.objects_with_key domains key = []
      | Key_assign.Recycle, key -> (not unassigned_exists) && Ksmap.holders ksmap key = []
      | Key_assign.Share, _ -> not unheld_exists)

let () =
  Alcotest.run "kard_core_maps"
    [ ( "domains",
        [ Alcotest.test_case "default and migration" `Quick test_domain_default_and_migration;
          Alcotest.test_case "key index" `Quick test_domain_key_index;
          Alcotest.test_case "in-place key iteration" `Quick test_domain_iter_in_place;
          Alcotest.test_case "counts" `Quick test_domain_counts ] );
      ( "section_object_map",
        [ Alcotest.test_case "record/lookup" `Quick test_somap_record_lookup;
          Alcotest.test_case "write sticky" `Quick test_somap_write_sticky;
          Alcotest.test_case "reverse index" `Quick test_somap_reverse_index;
          Alcotest.test_case "entries in identification order" `Quick test_somap_entries_order;
          QCheck_alcotest.to_alcotest somap_model_prop ] );
      ( "key_section_map",
        [ Alcotest.test_case "exclusive write" `Quick test_ksmap_exclusive_write;
          Alcotest.test_case "shared read" `Quick test_ksmap_shared_read;
          Alcotest.test_case "release and timestamp" `Quick test_ksmap_release_and_timestamp;
          Alcotest.test_case "upgrade" `Quick test_ksmap_upgrade;
          Alcotest.test_case "force acquire (sharing)" `Quick test_ksmap_force_acquire;
          Alcotest.test_case "holdings per key and thread" `Quick test_ksmap_holdings;
          QCheck_alcotest.to_alcotest ksmap_model_prop ] );
      ( "key_assign",
        [ Alcotest.test_case "rule 1: reuse" `Quick test_assign_reuse_rule;
          Alcotest.test_case "rule 2: fresh" `Quick test_assign_fresh_rule;
          Alcotest.test_case "rule 3a: recycle" `Quick test_assign_recycle_rule;
          Alcotest.test_case "rule 3b: share" `Quick test_assign_share_rule;
          Alcotest.test_case "disjoint sections (Table 4)" `Quick test_assign_disjoint_sections;
          Alcotest.test_case "key budget" `Quick test_assign_key_budget;
          Alcotest.test_case "stats" `Quick test_assign_stats;
          Alcotest.test_case "saturation: recycle the one unheld key" `Quick
            test_assign_saturation_recycle;
          Alcotest.test_case "saturation: share when all keys held" `Quick
            test_assign_saturation_share;
          Alcotest.test_case "saturation: a vkey pool defers sharing" `Quick
            test_assign_saturation_vkey_pool ] );
      ("key_assign properties", [ QCheck_alcotest.to_alcotest assign_decision_prop ]) ]
