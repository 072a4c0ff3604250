(** The scheduler's runnable-thread set: a dense integer set over
    thread ids with order-statistics queries.

    The members are kept in one array sorted ascending, beside a
    presence bitmap.  A pick is one array read: [kth_largest] and
    [kth_smallest] index the array, and [mem] reads the bitmap.
    [first_above] is a binary search.  [add] and [remove] shift the
    members above the id, so they cost at most the runnable count.
    They run only on status transitions (spawn, block, wake, finish),
    never per step.  Only a new, larger id (which grows the arrays)
    and the options of [first_above], [min_elt] and [max_elt]
    allocate.

    {!Schedule.pick} needs two order-sensitive queries:

    - [kth_largest], matching the historical pick order (the machine
      kept threads in reverse spawn order, so the random policy indexed
      a descending-tid list — preserving that mapping keeps every
      seeded schedule, and hence every simulated-cycle report,
      bit-identical across the refactor);
    - [first_above], the round-robin successor scan. *)

type t

val create : ?capacity:int -> unit -> t
(** An empty set over ids [0, capacity); grows automatically when a
    larger id is added. *)

val add : t -> int -> unit
(** Insert an id (no-op if present). @raise Invalid_argument on a
    negative id. *)

val remove : t -> int -> unit
(** Delete an id (no-op if absent). *)

val mem : t -> int -> bool
val cardinal : t -> int

val kth_largest : t -> int -> int
(** [kth_largest t k] is the [k]-th member in descending order,
    0-based: [kth_largest t 0] is the maximum.
    @raise Invalid_argument unless [0 <= k < cardinal t]. *)

val kth_smallest : t -> int -> int
(** Ascending-order counterpart of {!kth_largest}. *)

val first_above : t -> int -> int option
(** Smallest member strictly greater than the argument (which may be
    [-1] or beyond the capacity); [None] if there is none. *)

val min_elt : t -> int option
val max_elt : t -> int option

val to_list : t -> int list
(** Members in ascending order; for tests and debugging only, never on
    the hot path. *)
