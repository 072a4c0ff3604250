(** Per-object protection domains (section 5.2).

    Every sharable object is in exactly one of the three domains:
    Not-accessed ([k_na]), Read-only ([k_ro]) or Read-write (a data
    key).  The Read-write key is a plain [int]: a physical data pkey
    in identity mode, or a virtual key under the vkey cache (the
    physical tag of the object's pages then follows the key's
    residency).  Migrations are what cost [pkey_mprotect] calls at
    run time. *)

type domain =
  | Not_accessed
  | Read_only
  | Read_write of int

type t

val create : unit -> t

val domain_of : t -> obj_id:int -> domain
(** Objects never seen are Not-accessed. *)

val rw_key_code : t -> obj_id:int -> int
(** The key when the object is Read-write under it, negative
    otherwise.  The allocation-free form of {!domain_of} for the
    per-object test on the section-entry hot path, where only the
    Read-write case carries information. *)

val set : t -> obj_id:int -> ?pages:int -> domain -> unit
(** Move the object to a domain.  [pages] (default 0) is its page
    count, added to {!key_pages} of its key while it is Read-write
    there; it is read only when the object joins a key. *)

val set_read_write : t -> obj_id:int -> pages:int -> int -> unit
(** [set t ~obj_id ~pages (Read_write key)] without the option and the
    constructor: the fault path's form. *)

val forget : t -> obj_id:int -> unit

val objects_with_key : t -> int -> int list
(** Objects currently in the Read-write domain under this key: the
    reverse of {!iter_objects_with_key}'s order. *)

val iter_objects_with_key : t -> int -> (int -> unit) -> unit
(** Apply a function to every object in the Read-write domain under
    this key, in the key's set order, without building a list.  The
    function must not change any object's domain. *)

val key_load : t -> int -> int
(** [List.length (objects_with_key t key)] in O(1) — the key
    assigner's free-key test. *)

val key_pages : t -> int -> int
(** The pages of every object in the Read-write domain under this
    key, summed in O(1): what retagging all of them would touch. *)

val migrations : t -> int
(** Domain changes performed so far (a performance counter). *)

val tracked : t -> int
