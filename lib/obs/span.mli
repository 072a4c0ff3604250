(** Per-request span tracking.

    A span is one logical unit of served work — a request — with an
    id, a lane (the worker thread that served it), and open/close
    timestamps in simulated cycles.  Spans are how request latency
    becomes visible in the Chrome/Perfetto export: each closed span
    renders as an async slice alongside the machine's lock/fault/pkey
    events.

    A span's [start] may predate its [open_] call site's clock: an
    open-loop request's latency clock starts at its {e arrival}, which
    can be long before a worker picks it up.  Callers pass the start
    timestamp explicitly for exactly that reason. *)

type span = {
  id : int;
  lane : int;
  name : string;
  start : int;
  stop : int;  (** Clamped to [>= start]. *)
}

type t

val create : unit -> t

val open_ : t -> id:int -> lane:int -> name:string -> ts:int -> unit
(** Begin span [id] at time [ts].  Re-opening an id that is already
    open replaces it. *)

val close : t -> id:int -> ts:int -> unit
(** Close span [id].  Closing an id that is not open increments
    {!dropped_closes} instead of raising. *)

val closed : t -> span list
(** Closed spans, in close order (deterministic per seeded run). *)

val closed_count : t -> int
val open_count : t -> int
val dropped_closes : t -> int
val duration : span -> int
