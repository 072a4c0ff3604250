(** The allocator interface the simulated machine programs against.

    Two implementations exist: {!Unique_page_alloc} (Kard's
    consolidated unique-page allocator) and {!Native_alloc} (a compact
    bump allocator standing in for glibc malloc, used by Baseline and
    TSan runs).  Every operation reports the cycles it consumed so the
    allocator's own cost shows up in the Alloc column of Table 3. *)

type stats = {
  allocations : int;
  frees : int;
  global_allocations : int;
  mmap_calls : int;
  ftruncate_calls : int;
  bytes_requested : int;
  bytes_reserved : int;   (** Including granule rounding. *)
}

val zero_stats : stats

type t = {
  name : string;
  alloc : site:int -> int -> Obj_meta.t * int;
  (** [alloc ~site size] returns the object and the cycles consumed. *)
  alloc_global : site:int -> resident:bool -> int -> Obj_meta.t * int;
  (** Register a global variable at startup.  Non-resident globals
      occupy (unique) address space and carry a protection key but are
      never touched, so they do not count toward RSS — Kard relocates
      every global to unique pages, but only accessed pages become
      resident. *)
  free : Obj_meta.t -> int;
  stats : unit -> stats;
}
