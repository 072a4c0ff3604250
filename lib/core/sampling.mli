(** The sampling policy: seeded selection of which objects and
    critical sections get pkey protection (DESIGN.md §12).

    A pure decision procedure — every answer is a function of
    (seed, rate, epoch, id) only, so the sampled set is byte-identical
    at any [--jobs] count.  At rate 1.0 the policy is
    disabled and every query answers [true] without hashing: the
    detector is byte-identical to the pre-sampling build.

    Soundness contract: sampling only ever {e removes} protection.
    Unsampled objects keep the default key and never fault, so the
    sampled detector's reports are a subset of full Kard's — races may
    be delayed (caught in a later epoch) or missed, never invented. *)

type t

val create : rate:float -> epoch_cycles:int -> seed:int -> t
(** @raise Invalid_argument unless [rate] is in (0, 1] and
    [epoch_cycles >= 0]. *)

val of_config : Config.t -> t

val enabled : t -> bool
(** [false] at rate 1.0 — the identity fast path. *)

val rate : t -> float
val epoch_cycles : t -> int

val epoch_of : t -> now:int -> int
(** The epoch the virtual-clock instant [now] falls in; constantly 0
    when rotation is off ([epoch_cycles = 0]). *)

val sampled_obj : t -> epoch:int -> obj_id:int -> bool
(** Whether the object is under pkey protection this epoch.  The
    policy is a sliding window over a hashed ring: the protected
    fraction is [rate] in every epoch, membership churn per rotation
    is bounded by [2 * min(rate, 1/128)] of the population (an
    independent re-draw would churn [2*rate*(1-rate)] — ruinous,
    since every object entering the set pays a re-identification
    fault), and the window covers the whole ring — every id — after
    one revolution (at least 128 epochs). *)

val sampled_section : t -> epoch:int -> section:int -> bool
(** Whether the section runs the full entry protocol (proactive walk,
    PKRU switch) this epoch; decided by section identity, independent
    of [sampled_obj]. *)

val pp : Format.formatter -> t -> unit
