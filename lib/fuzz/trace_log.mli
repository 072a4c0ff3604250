(** The recorded event trace of one fuzzed run.

    A wrapper around the Kard detector's hooks records the
    interleaved lock/access/alloc/free sequence the machine actually
    executed (in hook-firing order, which is the machine's
    linearization), and the compiled fuzz program injects the barrier
    events directly.  The pure oracles ({!Oracles}) replay this one
    sequence, so every oracle judges exactly the schedule the runtime
    saw. *)

type ev =
  | Lock of { tid : int; lock : int; site : int }
  | Unlock of { tid : int; lock : int }
  | Read of { tid : int; obj : int }
  | Write of { tid : int; obj : int }
  | Alloc of { tid : int; obj : int }
  | Free of { tid : int; obj : int }
  | Pass of { tid : int; phase : int }
      (** A worker observed the coordinator's phase publication. *)
  | Arrive of { tid : int; phase : int }
      (** A worker finished its phase work. *)
  | Release of { phase : int }
      (** The coordinator opened the phase (after refreshing slots). *)

type t

val create : unit -> t
val emit : t -> ev -> unit

val events : t -> ev list
(** Chronological order. *)

val wrap :
  t -> meta:Kard_alloc.Meta_table.t -> Kard_sched.Hooks.t -> Kard_sched.Hooks.t
(** Record lock/unlock/read/write/alloc/free through the hook chain
    (resolving addresses to object ids via [meta]) before delegating
    to the wrapped detector. *)
