(** Address-to-object resolution.

    Because every object lives on its own virtual pages, resolving a
    faulting address only needs a page-granular index; the object's
    base/size then confirm the hit and yield the byte offset.  Both
    indexes are arrays over the sequentially issued vpages and object
    ids, so every lookup is a bounds-checked read that allocates
    nothing. *)

type t

val create : unit -> t

val register : t -> Obj_meta.t -> unit
(** Index the object under its id and every virtual page it spans.  A
    page already indexed (the native allocator packs several objects
    per page) now resolves to this object: the latest registration
    wins.
    @raise Invalid_argument on a negative object id. *)

val unregister : t -> Obj_meta.t -> unit
(** Drop the object's id, and each of its pages that still resolves to
    it (a shared page re-registered since keeps its newer object). *)

val find_addr : t -> Kard_mpk.Page.addr -> Obj_meta.t option
(** The live object containing this exact address, if any. *)

val find_vpage : t -> Kard_mpk.Page.vpage -> Obj_meta.t option
(** The live object this page resolves to (unique-page allocation
    guarantees at most one candidate).  [None] for negative or
    never-indexed pages. *)

val find_id : t -> int -> Obj_meta.t option
(** [None] for negative or unregistered ids. *)

val live_count : t -> int
(** Registered object ids. *)
