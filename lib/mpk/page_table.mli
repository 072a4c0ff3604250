(** The per-process mapping from virtual pages to protection keys.

    Mirrors the pkey field of page-table entries, i.e. the state that
    [pkey_mprotect(2)] manipulates.  Pages with no explicit entry carry
    {!Pkey.k_def}, matching how the kernel tags fresh mappings. *)

type t

val create : unit -> t

val set_pkey : t -> Page.vpage -> Pkey.t -> unit

val set_pkey_range : t -> base:Page.addr -> len:int -> Pkey.t -> int
(** Tag every page spanned by [\[base, base+len)]; returns the number
    of pages touched (the cost driver of a [pkey_mprotect] call). *)

val set_vkey_range : t -> base:Page.addr -> len:int -> vkey:int -> Pkey.t -> int
(** Tag every page spanned by the range with the virtual key [vkey]
    (any int [>= 0]) and bind [vkey] to the pkey given, as {!bind}
    does: from now on the pages carry whatever pkey [vkey] is bound
    to.  Returns the number of pages touched, like
    {!set_pkey_range}. *)

val bind : t -> vkey:int -> Pkey.t -> unit
(** Every page tagged with [vkey] now carries the pkey given: one
    write and one generation bump, however many pages that is. *)

val resolve_range : t -> base:Page.addr -> len:int -> unit
(** Replace each virtual tag in the range by the pkey it carries now,
    so later {!bind}s of its key leave these pages alone.  No page's
    pkey changes, so the generation does not move. *)

val pkey_of_vpage : t -> Page.vpage -> Pkey.t
(** The page's pkey, a virtual tag resolved through its key's
    binding. *)

val pkey_of_addr : t -> Page.addr -> Pkey.t

val clear_range : t -> base:Page.addr -> len:int -> unit
(** Drop entries back to the default key, as [munmap] would. *)

val generation : t -> int
(** Mutation counter: bumped by every {!set_pkey},
    {!set_pkey_range}, {!set_vkey_range} and {!clear_range} page
    update, and once by every {!bind}.  TLBs caching
    translated pkeys compare their fill-time generation against this
    to decide whether the cached key is still authoritative — so a
    page-table write (from [pkey_mprotect], [munmap], or anything
    else) implicitly invalidates every cached pkey, and a stale entry
    can never grant an access the current table would deny. *)

val entry_count : t -> int
(** Number of pages carrying a non-default key. *)
