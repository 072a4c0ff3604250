(** Flat int-indexed structures for the allocation-free hot loop.

    Growable-by-doubling arrays replacing the [Hashtbl]s that used to
    sit on the machine's and detector's per-step paths: membership
    tests, counts and FIFO queue operations all run without
    allocating (the per-step allocation contract in DESIGN.md). *)

val grow_pow2 : int -> int -> int
(** [grow_pow2 have needed] is the smallest power-of-two-ish capacity
    [> needed], at least doubling [have]; shared sizing policy for the
    arrays in this module and the tables built on them. *)

(** A growable bitset with an O(1) cardinality, for "seen" sets keyed
    by small dense ids (call sites, object ids). *)
module Bitset : sig
  type t

  val create : ?capacity:int -> unit -> t
  val mem : t -> int -> bool

  val add : t -> int -> unit
  (** Idempotent. @raise Invalid_argument on a negative index. *)

  val count : t -> int
  (** Number of distinct members, maintained incrementally. *)

  val remove : t -> int -> unit
  (** Idempotent; clearing an absent (or negative) index is a no-op. *)

  val iter : (int -> unit) -> t -> unit
  (** [iter f t] calls [f] on every member in ascending order.  [f]
      must not add to or remove from [t]. *)
end

(** A FIFO ring buffer over ints: [Queue]'s push/pop without the
    per-node allocation, for lock waiter queues. *)
module Int_ring : sig
  type t

  val create : unit -> t
  val length : t -> int
  val push : t -> int -> unit

  val pop : t -> int
  (** @raise Invalid_argument when empty. *)
end
