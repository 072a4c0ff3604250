(** Address-to-object resolution.

    Because every object lives on its own virtual pages, resolving a
    faulting address only needs a page-granular index; the object's
    base/size then confirm the hit and yield the byte offset. *)

type t

val create : unit -> t

val register : t -> Obj_meta.t -> unit
(** Index the object under every virtual page it spans. *)

val unregister : t -> Obj_meta.t -> unit

val find_addr : t -> Kard_mpk.Page.addr -> Obj_meta.t option
(** The live object containing this exact address, if any. *)

val find_vpage : t -> Kard_mpk.Page.vpage -> Obj_meta.t option
(** Any live object on this page (unique-page allocation guarantees at
    most one). *)

val find_id : t -> int -> Obj_meta.t option
val live_count : t -> int
