(** Effective key assignment (section 5.4).

    When a newly identified shared object needs a Read-write domain
    key, Kard follows three rules: reuse a key the faulting thread
    already holds; otherwise take an unassigned key; otherwise recycle
    an assigned-but-unheld key (demoting its objects to the Read-only
    domain) or, as a last resort, share a held key — preferring keys
    whose holding sections touch disjoint object sets, since sharing
    is the one source of false negatives (Table 4).

    Rule 1 reads the keys the thread's open sections acquired: the
    caller scans them with {!reusable}, which checks each against the
    key-section map (the map keeps no per-thread index), and passes
    the lowest.  The other rules read each key's holding count and
    object count.  A choice is a constant {!rule} and the key
    {!chosen}, and decisions are counted in place, so choosing and
    noting allocate nothing.

    Keys are plain [int]s: physical data pkeys ([1..data_keys]) in
    identity mode, virtual keys ([1..vkeys]) under the vkey cache
    (DESIGN.md §11).  Virtual mode replaces the O(keys) fresh/recycle
    scans with cursors so a pool of thousands stays O(1) amortized per
    assignment; with so many keys, sharing only triggers once the
    entire pool is simultaneously held. *)

type rule =
  | Reuse
      (** The thread already holds the key; protect the object with it. *)
  | Fresh
      (** An unassigned key. *)
  | Recycle
      (** An unheld key; the objects it protects
          ({!Domain_state.objects_with_key}) must be demoted to the
          Read-only domain before reuse. *)
  | Share
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

val reusable : t -> ksmap:Key_section_map.t -> tid:int -> int -> bool
(** Rule 1's test of a key the thread's open sections acquired: the
    key is in key space and [tid] still holds it with read-write
    permission (a nested exit may have released it since). *)

val choose :
  t ->
  ksmap:Key_section_map.t ->
  domains:Domain_state.t ->
  somap:Section_object_map.t ->
  section:int ->
  reuse:int ->
  rule
(** Decide a key for a new Read-write domain object identified inside
    [section], and return the rule that picked it; {!chosen} is the
    key.  [reuse] is the lowest key the thread's open sections
    acquired that passes {!reusable}, or [-1]; rule 1 takes it. *)

val chosen : t -> int
(** The key of the latest {!choose}. *)

val note : t -> rule -> int -> unit
(** Record the decision applied, a rule and its key, in the statistics
    and advance the virtual-mode cursors (callers invoke this after
    actually applying the decision, which may differ from the choice:
    a key that cannot be made resident is shared instead). *)

val stats : t -> stats
