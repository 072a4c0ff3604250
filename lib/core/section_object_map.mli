(** The section-object map (section 5.3, figure 3).

    Tracks, for every critical section (named by its synchronization
    call site), which shared objects it accessed and with what access
    type.  Consulted at section entry for proactive key acquisition
    and by the key-sharing heuristic. *)

type need =
  | Needs_read
  | Needs_write

type t

val create : unit -> t

val record : t -> section:int -> obj_id:int -> need -> unit
(** A write need overrides an earlier read need, never the reverse.
    Re-recording an entry that already holds is a no-op. *)

val objects_of : t -> section:int -> (int * need) list

(** A section's entries as flat arrays, element by element equal to
    {!objects_of}. *)
type memo = private {
  objs : int array;
  needs : need array;  (** [needs.(i)] is the need for [objs.(i)]. *)
}

val memo : t -> section:int -> memo
(** The section's memo, rebuilt only after its entries changed: a
    {!record} that neither adds the object nor upgrades its need, and
    any change to another section, return the physically same memo.
    The arrays must not be mutated.  This is the proactive
    acquisition walk's view, read on every section entry. *)

val need_of : t -> section:int -> obj_id:int -> need option

val iter_sections_touching : t -> obj_id:int -> (int -> unit) -> unit
(** Apply a function to every section recorded for the object, in the
    object's section-set order, without building a list.  The function
    must not change the map. *)

val forget_object : t -> obj_id:int -> unit
(** Called when an object is freed or demoted to Not-accessed. *)

val section_count : t -> int
val entry_count : t -> int
val pp_need : Format.formatter -> need -> unit
