(** Thread programs: a thunk-style builder API over compiled
    operation segments.

    Construction looks exactly as it did when a program {e was} a
    [unit -> Op.t option] thunk, and generators may still carry
    mutable state (an [Alloc] continuation executed now can influence
    the addresses of operations generated later).  What the builders
    produce, though, is a tree whose leaves are {e compiled segments}
    — flat int arrays, one tag and two int operands per operation —
    so the scheduler's per-step pull is an array load, not an
    allocation (the per-step allocation contract, DESIGN.md).
    Operations carrying heap payloads ([Alloc], [Free], blocks) live
    in a per-segment side table built once.

    A program is consumed through a {!cursor}, one per thread;
    [None]/{!tag_halt} means the thread finished. *)

type t

type thunk = unit -> Op.t option

(** {1 Builders} *)

val empty : t
val of_list : Op.t list -> t

val append : t -> t -> t
val concat : t list -> t

val repeat : int -> (int -> t) -> t
(** [repeat n body] runs [body 0], [body 1], ... [body (n-1)] in
    sequence; each body is built lazily, when its turn comes. *)

val unfold : ('s -> (Op.t * 's) option) -> 's -> t

val dynamic : (unit -> t option) -> t
(** [dynamic next] keeps asking [next] for program segments until it
    returns [None]; used for data-dependent control flow. *)

val delay : (unit -> t) -> t
(** Build the program only when first pulled — after earlier ops in
    the same stream (e.g. allocations) have executed. *)

val with_setup : (unit -> unit) -> t -> t
(** Run a side effect when the program is first pulled. *)

val of_thunk : thunk -> t
(** Wrap a legacy operation thunk; pulled one op per step, each op
    boxed — keep off hot paths. *)

val wait_until : (unit -> bool) -> t
(** Spin (yielding) until the condition holds.  The condition is
    evaluated once per scheduled step, exactly like a thunk that
    returns [Some Yield] while false — but allocation-free. *)

(** Append operations one at a time into a segment under
    construction; the allocation-free-loop counterpart of building an
    [Op.t list] and calling {!of_list} (no intermediate list, no
    variant per plain operation).  The hot workload generators keep
    one per worker as an arena ({!reset}, emit, {!current}). *)
module Builder : sig
  type program := t
  type t

  val create : ?hint:int -> unit -> t
  (** [hint] is the expected operation count: the buffers are made at
      that size on the first emit, not before, and double past it. *)

  val read : t -> int -> unit
  val write : t -> int -> unit
  val lock : t -> lock:int -> site:int -> unit
  val unlock : t -> lock:int -> unit
  val compute : t -> int -> unit
  val io : t -> int -> unit
  val yield : t -> unit

  val op : t -> Op.t -> unit
  (** Append any operation; [Alloc]/[Free]/blocks go to the boxed
      side table, plain operations are unpacked into the int arrays. *)

  val reset : t -> unit
  (** Start a new segment in the same buffers (arena reuse). *)

  val current : t -> program
  (** A program serving the operations emitted since the last
      {!reset}, {e aliasing} the builder's live buffers: it is valid
      only until the next [reset] and must be fully consumed by a
      single cursor before then.  Repeated calls return the same
      program value, so a generator body that does [reset]; emit;
      [current] allocates nothing per iteration.  A program that may
      outlive the builder's next cycle is built with {!of_list}. *)
end

(** {1 Cursors (consumption)} *)

(** Integer operation tags, the hot-dispatch alphabet.  {!fetch}
    returns one of these; operands are read with {!arg_a}/{!arg_b}
    ({!boxed_op} for [tag_boxed]). *)

val tag_read : int (* = 0; arg_a = addr *)
val tag_write : int (* = 1; arg_a = addr *)
val tag_lock : int (* = 2; arg_a = lock, arg_b = site *)
val tag_unlock : int (* = 3; arg_a = lock *)
val tag_compute : int (* = 4; arg_a = cycles *)
val tag_io : int (* = 5; arg_a = cycles *)
val tag_yield : int (* = 6 *)
val tag_boxed : int (* = 7; boxed_op has the payload *)
val tag_halt : int (* = -1; the program is finished *)

type cursor

val cursor : t -> cursor
(** Start consuming the program.  Programs hold mutable generator
    state, so a program should be consumed by exactly one cursor. *)

val fetch : cursor -> int
(** Serve the next operation as a tag (one array load on the hot
    path), advancing the cursor.  Returns {!tag_halt} forever once
    the program is exhausted. *)

val arg_a : cursor -> int
val arg_b : cursor -> int
(** Operands of the operation just fetched (see the tag table). *)

val boxed_op : cursor -> Op.t
(** The payload behind a {!tag_boxed} fetch. *)

val next_op : cursor -> Op.t option
(** The thunk interpreter: {!fetch} plus reconstruction of the
    [Op.t], option-boxed — the pre-compilation machine's consumption
    path, kept as the oracle against which compiled dispatch is
    tested. *)

val to_thunk : t -> thunk
(** [to_thunk p] is a fresh cursor behind {!next_op}. *)

val to_list : ?limit:int -> t -> Op.t list
(** Drain a program (for tests). @raise Failure past [limit] ops. *)
