(** The pure key-enforced race detection algorithm (Algorithm 1).

    An executable model over abstract threads, critical sections and
    objects, with one idealized key pair per object.  It exists
    separately from the MPK-driven runtime so that the paper's set
    equations can be property-tested directly, and so a differential
    test can compare the runtime against it on random traces.

    One deliberate fix relative to the printed algorithm: line 20 is
    implemented as "some {e other} thread holds [wk_o] or [rk_o]",
    matching the prose of section 4 ("a thread can acquire [wk_o]
    only if no other thread is holding [wk_o] or [rk_o]"); the
    printed formula [rk_o \notin (K_F \cup K_R)] would allow a write
    concurrent with another thread's shared read. *)

type t

type event =
  | Enter of { thread : int; section : int }
  | Exit of { thread : int }  (** Leaves the innermost section. *)
  | Read of { thread : int; obj : int }
  | Write of { thread : int; obj : int }

type race = {
  thread : int;
  obj : int;
  access : [ `Read | `Write ];
  holders : int list;  (** Threads holding a conflicting key. *)
  in_section : bool;   (** Was the faulting thread inside a section? *)
}

val create : unit -> t

val step : t -> event -> race list
(** Apply one event; returns the potential races it triggered.
    @raise Invalid_argument on unbalanced [Exit]. *)

val run : t -> event list -> race list
(** Apply in order, concatenating the races. *)

(** {1 Views of the named sets, for tests} *)

val keys_of_thread : t -> int -> Key_sets.Set.t
(** K(t). *)

val kr_of_section : t -> int -> Key_sets.Set.t
(** KR(s): keys the section needs with read-only permission. *)

val kw_of_section : t -> int -> Key_sets.Set.t
(** KW(s). *)

val kf : t -> Key_sets.Set.t
(** Free keys over the universe of objects seen so far. *)

val holders : t -> Key_sets.t -> int list
val section_stack : t -> int -> int list
val objects_seen : t -> int list
