module Perm = Kard_mpk.Perm
module Dense = Kard_sched.Dense

type holder = {
  tid : int;
  perm : Perm.t;
  section : int;
  lock : int;
  proactive : bool;
}

(* Keys are small dense ints — the 16 architectural pkeys in identity
   mode, or virtual keys 1..pool under the vkey cache — and
   threads/sections are small dense ids, so every map here is flat
   storage: acquire and release run on every section entry/exit and
   must neither hash nor allocate.  Per-key storage grows on demand
   (a vkey pool can be thousands wide but only touched keys pay).
   Holders of one key live in parallel arrays ([slots]); the [holder]
   records of the public API are materialized on demand by the cold
   callers (race logging, key assignment).

   Slot order encodes the history the cons-list predecessor exposed:
   slot [n-1] is the most recent holding (list head), a new holding
   appends, and an upgrade moves the holding to the top.  Release
   stamps go to per-key (and per-key-per-releaser) flat arrays, time
   [-1] meaning "never"; only the per-releaser rows keep who released
   and for which section, because only the fault-window check asks.

   [held_by] is answered from a per-tid sorted index of held keys —
   O(keys the thread holds), not O(key capacity), which matters once
   the key space is a vkey pool. *)
type slots = {
  mutable tids : int array;
  mutable perms : Perm.t array;
  mutable sections : int array;
  mutable locks : int array;
  mutable proactives : bool array;
  mutable n : int;
}

type release_row = {
  mutable r_time : int array; (* index = releaser tid; -1 = none *)
  mutable r_perm : Perm.t array;
  mutable r_section : int array;
  mutable r_lock : int array;
  mutable r_proactive : bool array;
}

type t = {
  mutable slots : slots array; (* index = key *)
  mutable lr_time : int array; (* key -> last release time, -1 = none *)
  mutable by_releaser : release_row array; (* index = key *)
  mutable tid_keys : int array array; (* tid -> ascending keys held *)
  mutable tid_nkeys : int array;
}

let fresh_slots () =
  { tids = [||]; perms = [||]; sections = [||]; locks = [||]; proactives = [||]; n = 0 }

let fresh_release_row () =
  { r_time = [||]; r_perm = [||]; r_section = [||]; r_lock = [||]; r_proactive = [||] }

let create () =
  let cap = Kard_mpk.Pkey.count in
  { slots = Array.init cap (fun _ -> fresh_slots ());
    lr_time = Array.make cap (-1);
    by_releaser = Array.init cap (fun _ -> fresh_release_row ());
    tid_keys = Array.make 16 [||];
    tid_nkeys = Array.make 16 0 }

(* Grow every key-indexed array to cover [key]. *)
let ensure_key t key =
  if key < 0 then invalid_arg "Key_section_map: negative key";
  let cap = Array.length t.slots in
  if key >= cap then begin
    let cap' = Dense.grow_pow2 cap key in
    t.slots <- Array.init cap' (fun i -> if i < cap then t.slots.(i) else fresh_slots ());
    t.lr_time <- Array.init cap' (fun i -> if i < cap then t.lr_time.(i) else -1);
    t.by_releaser <-
      Array.init cap' (fun i -> if i < cap then t.by_releaser.(i) else fresh_release_row ())
  end

let slots_of t key =
  ensure_key t key;
  t.slots.(key)

(* Read-only access: out-of-range keys have no holders. *)
let slots_ro t key = if key >= 0 && key < Array.length t.slots then Some t.slots.(key) else None

let slot_holder s i =
  { tid = s.tids.(i);
    perm = s.perms.(i);
    section = s.sections.(i);
    lock = s.locks.(i);
    proactive = s.proactives.(i) }

(* Scans are top-level recursions or loops, never local closures:
   without flambda a local [let rec] that captures variables is a heap
   block per call, and the scans below run on every section entry and
   exit or on the fault path. *)

(* Newest holding first, as the cons-list predecessor returned;
   [skip] names a thread to leave out ([-1] leaves out nobody). *)
let rec holders_from s ~skip i acc =
  if i >= s.n then acc
  else holders_from s ~skip (i + 1) (if s.tids.(i) <> skip then slot_holder s i :: acc else acc)

let holders t key = match slots_ro t key with None -> [] | Some s -> holders_from s ~skip:(-1) 0 []

let other_holders t key ~tid =
  match slots_ro t key with None -> [] | Some s -> holders_from s ~skip:tid 0 []

let rec writer_below s i =
  if i < 0 then None
  else if Perm.equal s.perms.(i) Perm.Read_write then Some (slot_holder s i)
  else writer_below s (i - 1)

let write_holder t key =
  match slots_ro t key with
  | None -> None
  | Some s -> writer_below s (s.n - 1)

let held_count t key = if key >= 0 && key < Array.length t.slots then t.slots.(key).n else 0

let rec slot_from s tid i =
  if i >= s.n then -1 else if s.tids.(i) = tid then i else slot_from s tid (i + 1)

let slot_of s ~tid = slot_from s tid 0

(* {2 The per-tid held-keys index} *)

let ensure_tid t tid =
  if tid < 0 then invalid_arg "Key_section_map: negative thread id";
  let cap = Array.length t.tid_nkeys in
  if tid >= cap then begin
    let cap' = Dense.grow_pow2 cap tid in
    let keys = Array.make cap' [||] in
    Array.blit t.tid_keys 0 keys 0 cap;
    let nkeys = Array.make cap' 0 in
    Array.blit t.tid_nkeys 0 nkeys 0 cap;
    t.tid_keys <- keys;
    t.tid_nkeys <- nkeys
  end

let index_add t ~tid key =
  ensure_tid t tid;
  let arr = t.tid_keys.(tid) and n = t.tid_nkeys.(tid) in
  let arr =
    if n = Array.length arr then begin
      let bigger = Array.make (max 4 (2 * n)) 0 in
      Array.blit arr 0 bigger 0 n;
      t.tid_keys.(tid) <- bigger;
      bigger
    end
    else arr
  in
  (* Insert keeping ascending order. *)
  let i = ref n in
  while !i > 0 && arr.(!i - 1) > key do
    arr.(!i) <- arr.(!i - 1);
    decr i
  done;
  arr.(!i) <- key;
  t.tid_nkeys.(tid) <- n + 1

let rec index_from (arr : int array) n (key : int) i =
  if i >= n then -1 else if arr.(i) = key then i else index_from arr n key (i + 1)

let index_remove t ~tid key =
  if tid < Array.length t.tid_nkeys then begin
    let arr = t.tid_keys.(tid) and n = t.tid_nkeys.(tid) in
    let i = index_from arr n key 0 in
    if i >= 0 then begin
      Array.blit arr (i + 1) arr i (n - i - 1);
      t.tid_nkeys.(tid) <- n - 1
    end
  end

(* Ascending key order (canonical): the head of the result is the
   lowest-numbered key the thread holds. *)
let rec held_below t arr ~tid i acc =
  if i < 0 then acc
  else
    let key = arr.(i) in
    let s = t.slots.(key) in
    let j = slot_of s ~tid in
    held_below t arr ~tid (i - 1) (if j >= 0 then (key, s.perms.(j)) :: acc else acc)

let held_by t ~tid =
  if tid < 0 || tid >= Array.length t.tid_nkeys then []
  else held_below t t.tid_keys.(tid) ~tid (t.tid_nkeys.(tid) - 1) []

let rec only_self s tid i = i >= s.n || (s.tids.(i) = tid && only_self s tid (i + 1))

let rec no_other_writer s tid i =
  i >= s.n
  || ((s.tids.(i) = tid || not (Perm.equal s.perms.(i) Perm.Read_write))
     && no_other_writer s tid (i + 1))

let can_acquire t key ~tid perm =
  if key < 0 || key >= Array.length t.slots then not (Perm.equal perm Perm.No_access)
  else
    let s = t.slots.(key) in
    match perm with
    | Perm.Read_write -> only_self s tid 0
    | Perm.Read_only -> no_other_writer s tid 0
    | Perm.No_access -> false

let grow_slots s =
  let cap = max 4 (2 * s.n) in
  let bigger_int arr =
    let r = Array.make cap 0 in
    Array.blit arr 0 r 0 s.n;
    r
  in
  let perms = Array.make cap Perm.No_access in
  Array.blit s.perms 0 perms 0 s.n;
  let proactives = Array.make cap false in
  Array.blit s.proactives 0 proactives 0 s.n;
  s.tids <- bigger_int s.tids;
  s.perms <- perms;
  s.sections <- bigger_int s.sections;
  s.locks <- bigger_int s.locks;
  s.proactives <- proactives

(* Remove slot [i], keeping the order of the others. *)
let remove_slot s i =
  for j = i to s.n - 2 do
    s.tids.(j) <- s.tids.(j + 1);
    s.perms.(j) <- s.perms.(j + 1);
    s.sections.(j) <- s.sections.(j + 1);
    s.locks.(j) <- s.locks.(j + 1);
    s.proactives.(j) <- s.proactives.(j + 1)
  done;
  s.n <- s.n - 1

let push_slot s ~tid perm ~section ~lock ~proactive =
  if s.n = Array.length s.tids then grow_slots s;
  let i = s.n in
  s.tids.(i) <- tid;
  s.perms.(i) <- perm;
  s.sections.(i) <- section;
  s.locks.(i) <- lock;
  s.proactives.(i) <- proactive;
  s.n <- i + 1

let add_holding t key ~tid perm ~section ~lock ~proactive =
  let s = slots_of t key in
  let i = slot_of s ~tid in
  if i >= 0 then begin
    (* Upgrade (or idempotent re-acquire): the holding moves to the
       top with the joined permission and the new section/lock.  A
       holding counts as proactive only while every acquisition of it
       was — one access-driven (re)acquire means the thread really
       touched data under the key, which the idealized algorithm also
       grants. *)
    let joined = Perm.join s.perms.(i) perm in
    let proactive = s.proactives.(i) && proactive in
    remove_slot s i;
    push_slot s ~tid joined ~section ~lock ~proactive
  end
  else begin
    push_slot s ~tid perm ~section ~lock ~proactive;
    index_add t ~tid key
  end

let acquire t key ~tid perm ~section ~lock ~proactive =
  if not (can_acquire t key ~tid perm) then
    invalid_arg
      (Format.asprintf "Key_section_map.acquire: k%d not acquirable by t%d as %a" key tid
         Perm.pp perm);
  add_holding t key ~tid perm ~section ~lock ~proactive

let force_acquire = add_holding

let note_release_by t k ~tid ~time ~perm ~section ~lock ~proactive =
  let row = t.by_releaser.(k) in
  if tid >= Array.length row.r_time then begin
    let cap = Dense.grow_pow2 (Array.length row.r_time) tid in
    let grown_int init arr =
      let r = Array.make cap init in
      Array.blit arr 0 r 0 (Array.length arr);
      r
    in
    let perms = Array.make cap Perm.No_access in
    Array.blit row.r_perm 0 perms 0 (Array.length row.r_perm);
    let proactives = Array.make cap false in
    Array.blit row.r_proactive 0 proactives 0 (Array.length row.r_proactive);
    row.r_time <- grown_int (-1) row.r_time;
    row.r_perm <- perms;
    row.r_section <- grown_int 0 row.r_section;
    row.r_lock <- grown_int 0 row.r_lock;
    row.r_proactive <- proactives
  end;
  row.r_time.(tid) <- time;
  row.r_perm.(tid) <- perm;
  row.r_section.(tid) <- section;
  row.r_lock.(tid) <- lock;
  row.r_proactive.(tid) <- proactive

let release t key ~tid ~time =
  let s = slots_of t key in
  let i = slot_of s ~tid in
  if i >= 0 then begin
    let perm = s.perms.(i) and section = s.sections.(i) and lock = s.locks.(i) in
    let proactive = s.proactives.(i) in
    remove_slot s i;
    index_remove t ~tid key;
    t.lr_time.(key) <- time;
    note_release_by t key ~tid ~time ~perm ~section ~lock ~proactive
  end

let last_release_time t key =
  if key < 0 || key >= Array.length t.lr_time then -1 else t.lr_time.(key)

let last_release_by_other t key ~tid =
  (* Most recent release of [key] by any other thread; on equal stamps
     the lowest releasing tid wins (canonical). *)
  if key < 0 || key >= Array.length t.by_releaser then None
  else begin
    let row = t.by_releaser.(key) in
    let best = ref (-1) in
    let best_time = ref min_int in
    for releaser = 0 to Array.length row.r_time - 1 do
      if releaser <> tid && row.r_time.(releaser) >= 0 && row.r_time.(releaser) > !best_time
      then begin
        best := releaser;
        best_time := row.r_time.(releaser)
      end
    done;
    if !best < 0 then None
    else
      let r = !best in
      Some
        ( row.r_time.(r),
          { tid = r;
            perm = row.r_perm.(r);
            section = row.r_section.(r);
            lock = row.r_lock.(r);
            proactive = row.r_proactive.(r) } )
  end

let unheld_keys t ~among = List.filter (fun key -> held_count t key = 0) among
