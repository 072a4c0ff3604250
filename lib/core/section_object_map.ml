type need =
  | Needs_read
  | Needs_write

type entries = {
  mutable objs : int array;
  mutable needs : need array;
  mutable n : int;
}

(* Section ids are small dense ints, so the sections live in an
   id-indexed array, [absent] marking one never recorded.  The
   proactive acquisition walk reads a section's arrays directly on
   every section entry; they change only when an identification
   appends an object or upgrades a read need (one slot rewritten), and
   when a freed or demoted object is shifted out.

   Object ids are dense too, so the object index is an id-indexed
   array of per-object tables, each mapping the object's sections to
   their need: a lookup reads the object's slot, then probes its own
   table.  A table's iteration order is part of the simulated result:
   through the detector's [active_readers] it orders a race record's
   holding sides, and so decides which holder the record names first.
   So a forgotten object's table is dropped and a later record starts
   a fresh one: a cleared table keeps its grown bucket array, and
   would iterate in another order. *)
type t = {
  mutable sections : entries array; (* index = section *)
  mutable by_object : (int, need) Hashtbl.t option array; (* index = obj_id *)
  mutable section_count : int;
  mutable entry_count : int;
}

let absent = { objs = [||]; needs = [||]; n = 0 }

let create () =
  { sections = Array.make 64 absent;
    by_object = Array.make 256 None;
    section_count = 0;
    entry_count = 0 }

let object_sections t obj_id =
  if obj_id >= 0 && obj_id < Array.length t.by_object then t.by_object.(obj_id) else None

let entries t ~section =
  if section >= 0 && section < Array.length t.sections then t.sections.(section) else absent

(* The section's own entries, made on its first record. *)
let section_entries t section =
  if section < 0 then invalid_arg "Section_object_map: negative section id";
  if section >= Array.length t.sections then begin
    let bigger = Array.make (Kard_sched.Dense.grow_pow2 (Array.length t.sections) section) absent in
    Array.blit t.sections 0 bigger 0 (Array.length t.sections);
    t.sections <- bigger
  end;
  let e = t.sections.(section) in
  if e != absent then e
  else begin
    let e = { objs = [||]; needs = [||]; n = 0 } in
    t.sections.(section) <- e;
    t.section_count <- t.section_count + 1;
    e
  end

let append t e obj_id need =
  if e.n = Array.length e.objs then begin
    let cap = max 4 (2 * e.n) in
    let objs = Array.make cap 0 and needs = Array.make cap Needs_read in
    Array.blit e.objs 0 objs 0 e.n;
    Array.blit e.needs 0 needs 0 e.n;
    e.objs <- objs;
    e.needs <- needs
  end;
  e.objs.(e.n) <- obj_id;
  e.needs.(e.n) <- need;
  e.n <- e.n + 1;
  t.entry_count <- t.entry_count + 1

let rec index_of e (obj_id : int) i =
  if i >= e.n then -1 else if e.objs.(i) = obj_id then i else index_of e obj_id (i + 1)

(* The object's own table, made on its first record. *)
let new_object_sections t obj_id =
  if obj_id < 0 then invalid_arg "Section_object_map: negative object id";
  if obj_id >= Array.length t.by_object then begin
    let bigger = Array.make (Kard_sched.Dense.grow_pow2 (Array.length t.by_object) obj_id) None in
    Array.blit t.by_object 0 bigger 0 (Array.length t.by_object);
    t.by_object <- bigger
  end;
  let sections = Hashtbl.create 8 in
  t.by_object.(obj_id) <- Some sections;
  sections

(* Only a new object or a read-to-write upgrade changes the map; an
   upgrade replaces the object's binding in place, so the table's
   order never moves. *)
let record t ~section ~obj_id need =
  let e = section_entries t section in
  match object_sections t obj_id with
  | None ->
    Hashtbl.replace (new_object_sections t obj_id) section need;
    append t e obj_id need
  | Some sections -> (
    match Hashtbl.find sections section with
    | Needs_write -> ()
    | Needs_read -> (
      match need with
      | Needs_read -> ()
      | Needs_write ->
        Hashtbl.replace sections section Needs_write;
        e.needs.(index_of e obj_id 0) <- Needs_write)
    | exception Not_found ->
      Hashtbl.replace sections section need;
      append t e obj_id need)

(* [Some Needs_read] and [Some Needs_write] are constants, so the
   answer allocates nothing. *)
let need_of t ~section ~obj_id =
  match object_sections t obj_id with
  | None -> None
  | Some sections -> (
    match Hashtbl.find sections section with
    | Needs_read -> Some Needs_read
    | Needs_write -> Some Needs_write
    | exception Not_found -> None)

let touches t ~section ~obj_id =
  match object_sections t obj_id with
  | Some sections -> Hashtbl.mem sections section
  | None -> false

let iter_sections_touching t ~obj_id f =
  match object_sections t obj_id with
  | Some sections -> Hashtbl.iter (fun section _ -> f section) sections
  | None -> ()

(* Remove the object from one section, keeping the others in order. *)
let remove_entry t section obj_id =
  let e = t.sections.(section) in
  let i = index_of e obj_id 0 in
  Array.blit e.objs (i + 1) e.objs i (e.n - i - 1);
  Array.blit e.needs (i + 1) e.needs i (e.n - i - 1);
  e.n <- e.n - 1;
  t.entry_count <- t.entry_count - 1

let forget_object t ~obj_id =
  match object_sections t obj_id with
  | Some sections ->
    Hashtbl.iter (fun section _ -> remove_entry t section obj_id) sections;
    t.by_object.(obj_id) <- None
  | None -> ()

let section_count t = t.section_count
let entry_count t = t.entry_count
