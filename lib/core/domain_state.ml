module Dense = Kard_sched.Dense

type domain =
  | Not_accessed
  | Read_only
  | Read_write of int

(* Object ids are handed out sequentially by the allocators, so domain
   state lives in an obj_id-indexed int array rather than a hash table:
   the proactive-acquisition walk queries it once per mapped object on
   every section entry, and an array read neither hashes nor allocates
   the [Read_write] box.

   Encoding: [k >= 0] is Read-write under data key [k]; the negative
   codes distinguish "never recorded" from an explicit Not-accessed so
   [tracked] keeps its hash-table meaning.

   Keys are small dense ints too, so each key's object set is found by
   an array read.  The sets themselves stay hash tables, mapping each
   member to its page count.  Their iteration order decides the order
   recycling demotes in and the base a vkey batch's trace event names,
   so it is part of the simulated result (DESIGN.md §5).  Each key's
   page total sits beside them, so a vkey load or eviction counts its
   batch without visiting a member. *)
let code_absent = -1
let code_not_accessed = -2
let code_read_only = -3

type t = {
  mutable codes : int array; (* index = obj_id *)
  mutable tracked : int; (* codes <> code_absent *)
  mutable by_key : (int, int) Hashtbl.t option array; (* index = key: member -> pages *)
  mutable key_pages : int array; (* index = key: its members' pages; empty until a join *)
  mutable migrations : int;
}

let create () =
  { codes = Array.make 256 code_absent;
    tracked = 0;
    by_key = Array.make 16 None;
    key_pages = [||];
    migrations = 0 }

let code_of t ~obj_id =
  if obj_id >= 0 && obj_id < Array.length t.codes then t.codes.(obj_id) else code_absent

let rw_key_code = code_of

let decode code =
  if code >= 0 then Read_write code
  else if code = code_read_only then Read_only
  else Not_accessed

let encode = function
  | Not_accessed -> code_not_accessed
  | Read_only -> code_read_only
  | Read_write key -> key

let domain_of t ~obj_id = decode (code_of t ~obj_id)

let ensure t obj_id =
  if obj_id >= Array.length t.codes then begin
    let bigger = Array.make (Dense.grow_pow2 (Array.length t.codes) obj_id) code_absent in
    Array.blit t.codes 0 bigger 0 (Array.length t.codes);
    t.codes <- bigger
  end

let find_bucket t k = if k >= 0 && k < Array.length t.by_key then t.by_key.(k) else None

let key_bucket t k =
  match find_bucket t k with
  | Some bucket -> bucket
  | None ->
    if k >= Array.length t.by_key then begin
      let bigger = Array.make (Dense.grow_pow2 (Array.length t.by_key) k) None in
      Array.blit t.by_key 0 bigger 0 (Array.length t.by_key);
      t.by_key <- bigger
    end;
    let bucket = Hashtbl.create 16 in
    t.by_key.(k) <- Some bucket;
    bucket

let join t key obj_id pages =
  Hashtbl.replace (key_bucket t key) obj_id pages;
  if key >= Array.length t.key_pages then begin
    let bigger = Array.make (Dense.grow_pow2 (Array.length t.key_pages) key) 0 in
    Array.blit t.key_pages 0 bigger 0 (Array.length t.key_pages);
    t.key_pages <- bigger
  end;
  t.key_pages.(key) <- t.key_pages.(key) + pages

let leave t key obj_id =
  let bucket = key_bucket t key in
  t.key_pages.(key) <- t.key_pages.(key) - Hashtbl.find bucket obj_id;
  Hashtbl.remove bucket obj_id

let set_code t ~obj_id ~pages code =
  if obj_id < 0 then invalid_arg "Domain_state.set: negative obj_id";
  let before_code = code_of t ~obj_id in
  (* Compare codes, counting a never-seen object as Not-accessed:
     recording Not-accessed on it stays a no-op, exactly as the
     implicit default did. *)
  let effective = if before_code = code_absent then code_not_accessed else before_code in
  if effective <> code then begin
    ensure t obj_id;
    if before_code >= 0 then leave t before_code obj_id;
    if before_code = code_absent then t.tracked <- t.tracked + 1;
    t.codes.(obj_id) <- code;
    if code >= 0 then join t code obj_id pages;
    t.migrations <- t.migrations + 1
  end

let set t ~obj_id ?(pages = 0) domain = set_code t ~obj_id ~pages (encode domain)
(* A Read-write domain's code is its key. *)
let set_read_write t ~obj_id ~pages key = set_code t ~obj_id ~pages key

let forget t ~obj_id =
  let code = code_of t ~obj_id in
  if code <> code_absent then begin
    if code >= 0 then leave t code obj_id;
    t.codes.(obj_id) <- code_absent;
    t.tracked <- t.tracked - 1
  end

let objects_with_key t key =
  match find_bucket t key with
  | Some bucket -> Hashtbl.fold (fun obj_id _ acc -> obj_id :: acc) bucket []
  | None -> []

let iter_objects_with_key t key f =
  match find_bucket t key with
  | Some bucket -> Hashtbl.iter (fun obj_id _ -> f obj_id) bucket
  | None -> ()

let key_pages t key = if key >= 0 && key < Array.length t.key_pages then t.key_pages.(key) else 0

let key_load t key =
  match find_bucket t key with
  | Some bucket -> Hashtbl.length bucket
  | None -> 0

let migrations t = t.migrations
let tracked t = t.tracked
