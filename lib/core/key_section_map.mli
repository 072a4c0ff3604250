(** The key-section map (section 5.4, figure 3).

    Tracks which threads (and on behalf of which critical sections)
    currently hold each Read-write domain key, with what permission,
    and when each key was last released — the input to race checks,
    key assignment and the timestamp-based pruning of section 5.5.
    The map keeps nothing per thread: which sections are executing,
    and which keys a thread's open sections acquired, are the
    detector's frames; this map knows a section only as the field of
    a holding.

    Keys are plain [int]s: the physical data pkeys in identity mode,
    or virtual keys [1..pool] under the vkey cache (DESIGN.md §11).
    A key's storage is made on its first acquisition, so a pool of
    thousands only pays for the keys actually touched. *)

type holder = {
  tid : int;
  perm : Kard_mpk.Perm.t;  (** [Read_only] or [Read_write]. *)
  section : int;           (** The section the key was acquired for. *)
  lock : int;              (** The lock guarding that section: conflicts
                               between sections of the same lock are
                               ordered, hence never ILU races. *)
  proactive : bool;        (** Acquired by the section-entry walk (from
                               the section-object map) rather than by an
                               access of this activation — the runtime
                               grants these unconditionally where
                               Algorithm 1 line 4 takes only the
                               uncontested subset. *)
}

(** A holding as the map stores it: the fields of a {!holder}.  The
    record is the map's own storage, reused in place, so it changes
    with the key and must not be kept across an acquisition or release
    of the key.  Reading it allocates nothing, which is what the fault
    path's conflict checks need. *)
type slot = private {
  mutable s_tid : int;  (** [-1] in a release record that is none. *)
  mutable s_perm : Kard_mpk.Perm.t;
  mutable s_section : int;
  mutable s_lock : int;
  mutable s_proactive : bool;
}

type t

val create : unit -> t

val holders : t -> int -> holder list
(** Newest holding first. *)

val held_count : t -> int -> int
(** Live holdings of a key, O(1) — the vkey layer's pinning input. *)

val holding : t -> int -> int -> slot
(** [holding t key i]: the key's live holding [i], oldest first, for
    [0 <= i < held_count t key]; the newest is the last.
    @raise Invalid_argument outside that range. *)

val newest_writer : t -> int -> int
(** The index of the key's newest holding with read-write permission
    (there is at most one unless the key is shared), [-1] if none. *)

val holder_of : slot -> holder

val perm_of : t -> int -> tid:int -> Kard_mpk.Perm.t
(** The thread's permission on the key, [No_access] when it holds
    none. *)

val can_acquire : t -> int -> tid:int -> Kard_mpk.Perm.t -> bool
(** Read-write: no other holder at all; read-only: no other
    read-write holder (section 5.4). *)

val acquire :
  t -> int -> tid:int -> Kard_mpk.Perm.t -> section:int -> lock:int -> proactive:bool -> unit
(** Record a holding of the key, given by the fields of a {!holder}
    (passed one by one, so the section-entry walk builds no record per
    key).  Upgrades in place if the thread already holds the key, and
    the holding becomes the newest.
    @raise Invalid_argument when the acquisition is not permitted. *)

val force_acquire :
  t -> int -> tid:int -> Kard_mpk.Perm.t -> section:int -> lock:int -> proactive:bool -> unit
(** Key sharing (section 5.4 rule 3b): adds the holding even when it
    violates exclusivity — the documented false-negative source. *)

val release : t -> int -> tid:int -> time:int -> unit
(** Removes the thread's holding and stamps the release time; a no-op
    when the thread holds no such key.
    @raise Invalid_argument when [time] is below the key's latest
    release stamp: a key's stamps never decrease. *)

val last_release_time : t -> int -> int
(** The stamp of the key's latest release, [-1] if it was never
    released: the section-entry walk's delay-injection cooldown. *)

val release_by_other : t -> int -> tid:int -> slot
(** The latest release of the key by a thread other than [tid] (so a
    faulter's own releases do not mask the conflicting one), the
    lowest releasing tid winning on equal stamps, for the fault-delay
    window check of section 5.5: the released holding, with [s_tid]
    [-1] when no other thread released the key.  The record is the
    map's own storage, as for {!holding}. *)

val release_time_by_other : t -> int -> tid:int -> int
(** The stamp of that release, [-1] when there is none. *)

val unheld_keys : t -> among:int list -> int list
