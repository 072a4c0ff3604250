(** The MPK machine facade: page table, per-thread PKRU registers and
    per-core dTLBs, with cycle accounting.

    Every data access of the simulated machine flows through
    {!check_access}, which performs exactly the check the MMU performs:
    look up the page's protection key, consult the accessing thread's
    PKRU, and either charge the access cost (plus a possible dTLB miss
    penalty) or produce a {!Fault.t}. *)

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

val retag_batch : t -> (Page.addr * int) list -> Pkey.t -> int * int
(** Batched retag for the virtual-key cache: tag every [(base, len)]
    range with the key as {e one} counted syscall (libmpk batches the
    per-object ranges of an evicted/loaded key into a single kernel
    crossing), at the cheaper {!Cost_model.t.vkey_retag_page} per page.
    Returns [(pages_retagged, cycles)]; an empty batch counts and
    costs nothing.  Equivalent to one {!retag_range} per range, in
    list order, then {!retag_commit} with the first range's base. *)

val retag_range : t -> base:Page.addr -> len:int -> Pkey.t -> int
(** One range of a batch: tag its pages and return how many, with no
    accounting — the batch's {!retag_commit} counts it.  Allocates
    nothing. *)

val retag_commit : t -> base:Page.addr -> pages:int -> Pkey.t -> int
(** Close a batch of [pages] pages already written by {!retag_range}:
    one counted call, the pages added to [pages_retagged], and one
    [Pkey_mprotect] trace event carrying [base]; nothing when [pages]
    is 0.  Returns the batch's cycles. *)

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
    the details.  Same semantics as {!check_access} without a [result]
    allocation per access. *)

val last_fault : t -> Fault.t
(** The fault behind the latest [-1] from {!try_access}. *)

val check_access :
  t -> tid:int -> addr:Page.addr -> access:Fault.access -> ip:int -> time:int ->
  (int, Fault.t) result
(** [Ok cycles] on success; [Error fault] raises no exception so the
    scheduler can route the fault to the registered handler.

    The check costs a single dTLB lookup on the hit path: TLB entries
    cache the translated protection key alongside the translation
    (invalidated by page-table generation whenever [pkey_mprotect] or
    any other page-table write lands), so the per-process page table
    is only walked on a miss or after a protection change.  The
    translation — and its dTLB accounting — happens even for accesses
    that fault, since the MMU applies the key check after the walk. *)

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
