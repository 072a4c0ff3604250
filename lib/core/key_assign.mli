(** Effective key assignment (section 5.4).

    When a newly identified shared object needs a Read-write domain
    key, Kard follows three rules: reuse a key the faulting thread
    already holds; otherwise take an unassigned key; otherwise recycle
    an assigned-but-unheld key (demoting its objects to the Read-only
    domain) or, as a last resort, share a held key — preferring keys
    whose holding sections touch disjoint object sets, since sharing
    is the one source of false negatives (Table 4).

    Rule 1 reads the keys the thread's open sections acquired, which
    the caller passes in, and checks each against the key-section map:
    the map keeps no per-thread index.  The other rules read each
    key's holding count and object count, and list only the chosen
    key's objects.

    Keys are plain [int]s: physical data pkeys ([1..data_keys]) in
    identity mode, virtual keys ([1..vkeys]) under the vkey cache
    (DESIGN.md §11).  Virtual mode replaces the O(keys) fresh/recycle
    scans with cursors so a pool of thousands stays O(1) amortized per
    assignment; with so many keys, sharing only triggers once the
    entire pool is simultaneously held. *)

type decision =
  | Reuse of int
      (** The thread already holds this key; protect the object with it. *)
  | Fresh of int
      (** An unassigned key. *)
  | Recycle of int * int list
      (** An unheld key; the listed objects must be demoted to the
          Read-only domain before reuse. *)
  | Share of int
      (** A currently held key; may cause false negatives. *)

type stats = {
  reuse_events : int;
  fresh_events : int;
  recycling_events : int;
  sharing_events : int;
}

type t

val create : Config.t -> t

val available_keys : t -> int list
(** The keys this configuration may hand out (physical data keys or
    the virtual pool). *)

val disjoint_sections :
  Section_object_map.t -> section:int -> Key_section_map.holder list -> bool
(** The Table 4 test for sharing a key: no object [section] has
    recorded is recorded by any holder's section. *)

val choose :
  t ->
  ksmap:Key_section_map.t ->
  domains:Domain_state.t ->
  somap:Section_object_map.t ->
  tid:int ->
  section:int ->
  held:int list ->
  decision
(** Decide a key for a new Read-write domain object identified by
    [tid] inside [section].  [held] lists the keys the thread's open
    sections acquired, in any order and possibly with repeats; rule 1
    reuses the lowest of them in key space that the thread still holds
    with read-write permission. *)

val note : t -> decision -> unit
(** Record the decision in the statistics and advance the virtual-mode
    cursors (callers invoke this after actually applying the
    decision). *)

val stats : t -> stats
val pp_decision : Format.formatter -> decision -> unit
