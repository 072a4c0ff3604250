type need =
  | Needs_read
  | Needs_write

type memo = {
  objs : int array;
  needs : need array;
}

type t = {
  by_section : (int, (int, need) Hashtbl.t) Hashtbl.t;
  by_object : (int, (int, unit) Hashtbl.t) Hashtbl.t;
  (* The proactive acquisition walk reads a section's entries on every
     section entry, but they only change when an identification adds
     an object or upgrades a read need to a write need.  So each
     section keeps a memo: its entries as two flat arrays in exactly
     [objects_of]'s order, built on the first walk after a change.
     Section ids are small dense ints, so the memo table is an
     id-indexed array ([None] = stale) and a hit is one bounds-checked
     load.  A [record] that changes nothing keeps the memo. *)
  mutable cache : memo option array; (* index = section *)
}

let create () =
  { by_section = Hashtbl.create 64;
    by_object = Hashtbl.create 256;
    cache = Array.make 64 None }

let invalidate t section =
  if section >= 0 && section < Array.length t.cache then t.cache.(section) <- None

let ensure_cache t section =
  if section >= Array.length t.cache then begin
    let n = ref (Array.length t.cache) in
    while section >= !n do
      n := 2 * !n
    done;
    let bigger = Array.make !n None in
    Array.blit t.cache 0 bigger 0 (Array.length t.cache);
    t.cache <- bigger
  end

let bucket table key ~size =
  match Hashtbl.find_opt table key with
  | Some b -> b
  | None ->
    let b = Hashtbl.create size in
    Hashtbl.replace table key b;
    b

(* Only a new object or a read-to-write upgrade changes the section's
   entries (an existing binding is replaced in place, so the bucket's
   order never moves), and only then is the memo dropped and the
   reverse index touched: an object already in the section is already
   in its reverse index. *)
let record t ~section ~obj_id need =
  let objs = bucket t.by_section section ~size:16 in
  match Hashtbl.find_opt objs obj_id, need with
  | Some Needs_write, _ | Some Needs_read, Needs_read -> ()
  | Some Needs_read, Needs_write ->
    Hashtbl.replace objs obj_id need;
    invalidate t section
  | None, _ ->
    Hashtbl.replace objs obj_id need;
    invalidate t section;
    Hashtbl.replace (bucket t.by_object obj_id ~size:8) section ()

let objects_of t ~section =
  match Hashtbl.find_opt t.by_section section with
  | Some objs -> Hashtbl.fold (fun obj_id need acc -> (obj_id, need) :: acc) objs []
  | None -> []

let empty_memo = { objs = [||]; needs = [||] }

(* Fill from the back: the fold behind [objects_of] conses, so its
   list is the reverse of the bucket's iteration order. *)
let build_memo t section =
  match Hashtbl.find_opt t.by_section section with
  | None -> empty_memo
  | Some bucket ->
    let n = Hashtbl.length bucket in
    let m = { objs = Array.make n 0; needs = Array.make n Needs_read } in
    let i = ref n in
    Hashtbl.iter
      (fun obj_id need ->
        decr i;
        m.objs.(!i) <- obj_id;
        m.needs.(!i) <- need)
      bucket;
    m

let memo t ~section =
  if section < 0 then build_memo t section
  else begin
    ensure_cache t section;
    match t.cache.(section) with
    | Some m -> m
    | None ->
      let m = build_memo t section in
      t.cache.(section) <- Some m;
      m
  end

let need_of t ~section ~obj_id =
  match Hashtbl.find_opt t.by_section section with
  | Some objs -> Hashtbl.find_opt objs obj_id
  | None -> None

let iter_sections_touching t ~obj_id f =
  match Hashtbl.find_opt t.by_object obj_id with
  | Some sections -> Hashtbl.iter (fun section () -> f section) sections
  | None -> ()

let forget_object t ~obj_id =
  (match Hashtbl.find_opt t.by_object obj_id with
  | Some sections ->
    Hashtbl.iter
      (fun section () ->
        invalidate t section;
        match Hashtbl.find_opt t.by_section section with
        | Some objs -> Hashtbl.remove objs obj_id
        | None -> ())
      sections
  | None -> ());
  Hashtbl.remove t.by_object obj_id

let section_count t = Hashtbl.length t.by_section

let entry_count t =
  Hashtbl.fold (fun _ objs acc -> acc + Hashtbl.length objs) t.by_section 0

let pp_need fmt = function
  | Needs_read -> Format.pp_print_string fmt "r"
  | Needs_write -> Format.pp_print_string fmt "w"
