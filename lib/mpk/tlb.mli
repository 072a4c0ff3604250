(** A set-associative data-TLB model with LRU replacement.

    Kard's unique-page allocator spreads objects over many virtual
    pages, which raises dTLB pressure — one of the three overhead
    factors named in the paper's section 7.2.  This model produces the
    dTLB miss-rate column of Table 3. *)

type t

val create : ?entries:int -> ?ways:int -> unit -> t
(** Defaults model a Skylake-class L1 dTLB: 64 entries, 4-way. *)

val translate : t -> Page.vpage -> gen:int -> pt:Page_table.t -> Pkey.t
(** Touch a page and resolve its protection key in the same lookup —
    the hardware reality that the pkey lives in the (cached) PTE.  On
    a hit whose cached key was filled at page-table generation [gen],
    no page-table work happens at all; on a miss, or on a hit whose
    generation is stale (the table was written since the fill), the
    key is read from [pt] and cached under [gen].  The hit/miss
    verdict is left in {!last_missed}, so the machine's per-access hot
    path allocates nothing.

    Hit/miss accounting tracks translation presence only: a hit with a
    stale key still counts as a hit (the translation was cached; only
    the key is re-read), so dTLB statistics are independent of pkey
    churn. *)

val last_missed : t -> bool
(** Whether the most recent {!translate} missed. *)

val access : t -> Page.vpage -> [ `Hit | `Miss ]
(** Touch a page: records the access and updates recency.  Fills no
    usable pkey cache (a subsequent {!translate} re-reads the key). *)

val note_hits : t -> int -> unit
(** Record [n] additional accesses that hit (block operations touch a
    page once through {!access} and stream the rest as hits). *)

val note_misses : t -> int -> unit
(** Record [n] additional accesses that missed (block sweeps over
    buffers far larger than the TLB reach miss on every new page). *)

val accesses : t -> int
val misses : t -> int

val miss_rate : t -> float
(** [misses / accesses]; 0 when nothing was accessed. *)

val reset_stats : t -> unit
