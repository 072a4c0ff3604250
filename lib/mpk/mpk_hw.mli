(** The MPK machine facade: page table, per-thread PKRU registers and
    per-core dTLBs, with cycle accounting.

    Every data access of the simulated machine flows through
    {!try_access}, which performs exactly the check the MMU performs:
    look up the page's protection key, consult the accessing thread's
    PKRU, and either charge the access cost (plus a possible dTLB miss
    penalty) or record a {!Fault.t}. *)

type t

type stats = {
  wrpkru_calls : int;
  rdpkru_calls : int;
  pkey_mprotect_calls : int;
  pages_retagged : int;
  faults : int;
  dtlb_accesses : int;
  dtlb_misses : int;
}

val create : ?cost:Cost_model.t -> ?trace:Kard_obs.Trace.t -> unit -> t
(** [trace] (default none) receives a cycle-stamped event for every
    WRPKRU/RDPKRU, [pkey_mprotect] and #GP, plus hardware counters and
    dTLB-miss-burst observations in its metrics registry.  Tracing
    never changes cycle accounting. *)

val cost : t -> Cost_model.t
val trace : t -> Kard_obs.Trace.sink
val page_table : t -> Page_table.t

(** {1 Thread registration} *)

val register_thread : t -> int -> unit
(** Give thread [tid] a fresh PKRU (all-access, like a fresh pthread)
    and a private dTLB. Registering twice resets both. *)

(** {1 Register instructions} *)

val wrpkru : t -> tid:int -> Pkru.t -> int
(** Returns the cycles consumed. *)

val rdpkru : t -> tid:int -> Pkru.t * int

val pkru_of : t -> tid:int -> Pkru.t
(** Free inspection for the runtime's bookkeeping (no cycle charge). *)

val set_pkru_in_context : t -> tid:int -> Pkru.t -> unit
(** Reactive key assignment: the fault handler rewrites the interrupted
    thread's saved PKRU context instead of executing WRPKRU
    (section 5.4); no instruction cost is charged here because the
    handler cost already covers it. *)

(** {1 Protection system call} *)

val pkey_mprotect : t -> base:Page.addr -> len:int -> Pkey.t -> int
(** Tag a range of pages with a key; returns cycles consumed. *)

val pkey_mprotect_vkey : t -> base:Page.addr -> len:int -> vkey:int -> Pkey.t -> int
(** {!pkey_mprotect} for the virtual-key cache: tag the range with the
    virtual key [vkey] ({!Page_table.set_vkey_range}), whose pages
    carry the pkey given until {!rebind_vkey} moves them.  Counted,
    traced and charged exactly as {!pkey_mprotect} with that pkey. *)

val retag_batch : t -> (Page.addr * int) list -> Pkey.t -> int * int
(** Batched retag: tag every [(base, len)] range with the key as
    {e one} counted syscall (libmpk batches the per-object ranges of
    an evicted/loaded key into a single kernel crossing), at the
    cheaper {!Cost_model.t.vkey_retag_page} per page.  Returns
    [(pages_retagged, cycles)]; an empty batch counts and costs
    nothing.  The trace event carries the first range's base. *)

val rebind_vkey : t -> vkey:int -> base:Page.addr -> pages:int -> Pkey.t -> int
(** Load or evict a virtual key: every page tagged with [vkey] now
    carries the pkey given ({!Page_table.bind}), in O(1).  [pages] is
    how many pages that is, so the call is counted, traced (with
    [base]) and charged as the {!retag_batch} that retags them one by
    one.  Returns the cycles. *)

val any_grant : t -> Pkey.t -> bool
(** Does any registered thread's PKRU grant the key (read or write)?
    The vkey layer's pinning ground truth — a physical slot some saved
    context still grants must not be evicted.  O(threads); cold fault
    path only. *)

(** {1 Access checking} *)

val try_access :
  t -> tid:int -> addr:Page.addr -> access:Fault.access -> ip:int -> time:int ->
  int
(** The machine's per-access hot call.  [>= 0]: access granted, the
    cycles consumed.  [-1]: the access faulted and {!last_fault} holds
    the details.  No exception and no allocation either way, so the
    scheduler routes the fault to the registered handler.

    The check costs a single dTLB lookup on the hit path: TLB entries
    cache the translated protection key alongside the translation
    (invalidated by page-table generation whenever [pkey_mprotect] or
    any other page-table write lands), so the per-process page table
    is only walked on a miss or after a protection change.  The
    translation — and its dTLB accounting — happens even for accesses
    that fault, since the MMU applies the key check after the walk. *)

val last_fault : t -> Fault.t
(** The fault behind the latest [-1] from {!try_access}.  The machine
    keeps one fault record and overwrites it on each fault, so it is
    valid until the next access; copy what must outlive that. *)

val note_tlb_hits : t -> tid:int -> int -> unit
(** Account [n] extra dTLB hits for streamed block accesses. *)

val note_tlb_misses : t -> tid:int -> int -> unit

val note_streamed_grants : t -> Page.vpage -> int -> unit
(** Account [n] streamed block accesses to [vpage] in
    {!default_grants} when the page carries [k_def]: the part of a
    block op the machine charges analytically instead of checking. *)

val stats : t -> stats
val wrpkru_count : t -> int
(** Running WRPKRU total, without building a {!stats} record — cheap
    enough to snapshot at every section entry. *)

val default_grants : t -> int
(** Granted accesses to pages tagged [k_def], which every PKRU grants:
    counted where the verdict is taken ({!try_access} and
    {!note_streamed_grants}), so no per-access hook is needed to
    observe them.  Under sampling these are exactly the accesses to
    unsampled objects. *)

val miss_rate : misses:int -> accesses:int -> float
(** [misses / accesses], 0 when [accesses] is 0 — the single guarded
    division behind {!dtlb_miss_rate} and the machine report's
    per-run rate. *)

val dtlb_miss_rate : t -> float
val reset_stats : t -> unit
