(** Kard's consolidated unique page allocator (section 5.3, figure 2).

    Every object gets its own virtual page(s) so it can be protected
    independently with MPK, but small objects are consolidated: their
    virtual pages are [MAP_SHARED]-mapped onto a common in-memory file
    so that up to 128 32-byte objects share one physical page.  Each
    allocation's page-internal base address is shifted to its slot in
    the physical page, so allocations never overlap.

    Globals are given unique page-aligned {e unconsolidated} pages,
    matching the paper's implementation note (section 6) that global
    variables are not consolidated.

    Sizes round up to the paper's fixed 32-byte consolidation granule.
    A free unmaps the object's virtual pages; they are never reused,
    as in the evaluated system. *)

type t

val create :
  ?trace:Kard_obs.Trace.t ->
  Kard_vm.Address_space.t ->
  meta:Meta_table.t ->
  cost:Kard_mpk.Cost_model.t ->
  unit ->
  t
(** [trace] receives fresh/global allocation and free events on the
    runtime track. *)

val iface : t -> Alloc_iface.t

val file_bytes : t -> int
(** Current size of the backing in-memory file. *)

val wasted_bytes : t -> int
(** Internal fragmentation: reserved minus requested over all live
    heap objects (e.g. 8 B for each 24 B object — the water_nsquared
    pathology of section 7.5). *)
