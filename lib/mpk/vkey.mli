(** The virtual-key cache: hundreds-to-thousands of software protection
    keys mapped onto the few physical data pkeys with clock
    (second-chance) eviction, libmpk-style.

    The table is pure deterministic bookkeeping — residency, reference
    bits, the clock hand, hit/miss/eviction/load counters.  The caller
    (the detector) drives every effect of a load or eviction: batched
    page retagging, PKRU edits and cycle charges all happen on its
    fault/lock paths, which is what keeps reports byte-identical at any
    [--jobs] (DESIGN.md §11).

    Pinning is a predicate, not a counter: {!ensure} asks [evictable]
    before displacing a resident key, and the detector answers from
    ground truth (no key-section-map holders {e and} no thread's PKRU
    grants the slot).  A slot refused by the predicate is simply
    skipped by the clock. *)

type t

type outcome =
  | Hit
      (** Already resident; {!phys_of} gives the physical key backing
          it. *)
  | Loaded
      (** Loaded into the physical key {!phys_of} now gives; {!evicted}
          names the virtual key displaced.  The caller must retag the
          evicted key's pages to the always-deny tag and the loaded
          key's pages to the new slot. *)
  | Full
      (** Every slot is pinned; the access must be emulated unprotected
          (counted in {!stats} as a stall — the documented
          vkey-eviction-blame miss window). *)

type stats = {
  st_pool : int;
  st_slots : int;
  st_hits : int;
  st_misses : int;
  st_evictions : int;
  st_loads : int;
  st_retag_pages : int;
  st_stalls : int;
}

val identity : t
(** The no-virtualization table: {!phys_of} and {!vkey_of_phys} are the
    identity, {!ensure} always hits, counters stay zero.  This is what
    [Config.vkeys = 0] runs on — byte-identical to the pre-vkey
    detector. *)

val create : pool:int -> phys:int array -> t
(** A table of virtual keys [1..pool] over the physical data keys
    [phys] (the residency slots).  [pool <= 0] returns {!identity}.
    Raises [Invalid_argument] if [pool] is positive but smaller than
    the slot count, or a slot key repeats. *)

val virtualized : t -> bool
val pool : t -> int
val slot_count : t -> int

val phys_of : t -> int -> int
(** Physical key currently backing the virtual key, or [-1] when
    evicted.  Identity mode: the key itself. *)

val resident : t -> int -> bool

val vkey_of_phys : t -> int -> int
(** The virtual key resident in a physical key, [-1] for a free slot or
    a non-slot key.  Identity mode: the key itself. *)

val resident_count : t -> int

val ensure : t -> int -> evictable:(slot:int -> vkey:int -> bool) -> outcome
(** Make a virtual key resident, evicting under the clock if needed.
    Counts a hit, or a miss plus (on success) a load and possibly an
    eviction.  The outcome is a constant, so an ensure allocates
    nothing as long as the predicate is built once by its caller. *)

val evicted : t -> int
(** The virtual key the latest {!Loaded} displaced, or [-1] if it took
    a free slot. *)

val note_retag_pages : t -> int -> unit
(** Account pages retagged by the caller's batched load/evict
    [pkey_mprotect]s (the table does not touch the page table itself). *)

val stats : t -> stats
