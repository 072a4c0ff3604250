(** Page geometry helpers.

    Virtual addresses are plain [int]s; a page is 4 KiB, the MPK
    protection granule. *)

type addr = int
type vpage = int

val size : int
(** Bytes per page (4096). *)

val shift : int
(** log2 of {!size}. *)

val vpage_of_addr : addr -> vpage
val base_of_vpage : vpage -> addr
val offset_in_page : addr -> int

val pages_spanned : addr -> int -> int
(** [pages_spanned base len] is how many pages the byte range
    [\[base, base+len)] touches.  A zero-length range touches one. *)

val pp_addr : Format.formatter -> addr -> unit
