(** The section-object map (section 5.3, figure 3).

    Tracks, for every critical section (named by its synchronization
    call site), which shared objects it accessed and with what access
    type.  Consulted at section entry for proactive key acquisition
    and by the key-sharing heuristic.

    One index per direction: each section's entries are two growable
    parallel arrays in identification order, which the section-entry
    walk reads in place; an array indexed by object id holds each
    object's table of the sections that touched it and their need, in
    hash order.  Lookups allocate nothing. *)

type need =
  | Needs_read
  | Needs_write

type t

val create : unit -> t

val record : t -> section:int -> obj_id:int -> need -> unit
(** Append a new entry, or upgrade a read need to a write need in
    place; a write need is never downgraded, and re-recording an entry
    that already holds is a no-op.
    @raise Invalid_argument on a negative section or object id. *)

(** A section's entries: [objs.(i)] needs [needs.(i)] for [i < n], in
    the order the objects were first recorded.  The record is the
    map's own storage, so it changes with the section and must not be
    kept across a {!record} or {!forget_object}. *)
type entries = private {
  mutable objs : int array;
  mutable needs : need array;
  mutable n : int;
}

val entries : t -> section:int -> entries
(** The section's entries; a section never recorded has none. *)

val need_of : t -> section:int -> obj_id:int -> need option

val touches : t -> section:int -> obj_id:int -> bool
(** Whether the section has recorded the object: {!need_of} without
    the need. *)

val iter_sections_touching : t -> obj_id:int -> (int -> unit) -> unit
(** Apply a function to every section recorded for the object, in the
    object's section-set order, without building a list.  The function
    must not change the map. *)

val forget_object : t -> obj_id:int -> unit
(** Called when an object is freed or demoted to Not-accessed.  The
    other entries of each section keep their order. *)

val section_count : t -> int
(** Sections ever recorded, including those whose objects were all
    forgotten. *)

val entry_count : t -> int
