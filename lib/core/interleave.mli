(** Protection interleaving (section 5.5, figure 4).

    After a conflict fault on an object, Kard re-protects the object
    with a key of the {e faulting} thread so the original holder's
    next access also faults.  Observing byte offsets from both sides
    lets Kard decide whether the threads really touched the same
    bytes; records with positively disjoint access sets are pruned.
    If a side never faults again (e.g. its critical section was too
    small), no evidence accumulates and the record survives — exactly
    how the paper's pigz false positive escaped pruning. *)

type verdict =
  | Pending              (** Not enough evidence yet. *)
  | Spurious of Race_record.t list
      (** Both sides observed, byte sets disjoint: prune these records. *)
  | Confirmed            (** Overlapping bytes observed: a real conflict. *)

type t

val create : unit -> t

val active : t -> obj_id:int -> bool

val start : t -> obj_id:int -> record:Race_record.t -> unit
(** Begin interleaving for the object, seeded with the faulting
    record (whose offset counts as the faulter's first evidence). *)

val attach_record : t -> obj_id:int -> record:Race_record.t -> unit
(** Associate a further record with an ongoing interleaving. *)

val observe : t -> obj_id:int -> tid:int -> offset:int -> verdict
(** A new faulting access on the object while interleaving. *)

val finish : t -> obj_id:int -> unit
(** Terminate interleaving for the object (a participant left its
    critical section, or a verdict was reached). *)

val finish_thread : t -> tid:int -> int list
(** Terminate every interleaving the thread participates in; returns
    the affected objects. *)

val started_count : t -> int
val pruned_count : t -> int
val confirmed_count : t -> int
val note_pruned : t -> int -> unit
val note_confirmed : t -> unit
