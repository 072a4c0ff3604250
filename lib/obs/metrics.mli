(** A registry of named counters and fixed-bucket histograms.

    Counters track event totals (WRPKRU writes, [pkey_mprotect] calls,
    allocation mix); histograms track cycle distributions (fault round
    trips, WRPKRU per critical-section entry, dTLB miss bursts,
    live-pkey occupancy) with percentile summaries estimated from the
    buckets.  Registration is find-or-create by name, so instrumented
    layers need no shared setup. *)

type t
type counter
type histogram

val create : unit -> t

(** {1 Counters} *)

val counter : t -> string -> counter
(** Find or create. Creating the same name twice returns the same
    counter. *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

(** {1 Histograms} *)

val histogram : t -> string -> histogram
(** Find or create.  The buckets' upper bounds are the powers of two
    from 1 to 2^30: one relative-error band per doubling, enough reach
    for cycle latencies. *)

val observe : histogram -> int -> unit
(** Record one sample (clamped to [0] from below). *)

type summary = {
  count : int;     (** Sample count (0 when empty). *)
  total : int;
  min : int;       (** Exact (0 when empty). *)
  max : int;       (** Exact (0 when empty). *)
  mean : float;    (** Exact (0 when empty). *)
  p50 : float;     (** Estimated by linear interpolation in-bucket. *)
  p95 : float;
  p99 : float;
  p999 : float;    (** The tail-SLO percentile, p99.9. *)
}

val summary : histogram -> summary
val percentile : histogram -> float -> float
(** [percentile h q] for [q] in [0, 1]; 0 when empty. *)

(** {1 Windowed histograms}

    Named {!Window.t}s registered alongside the counters and
    histograms, for distributions whose evolution over simulated time
    matters (request latency under load). *)

val default_window_width : int
(** [2^20] simulated cycles per window. *)

val window : t -> ?width:int -> string -> Window.t
(** Find or create; [width] only applies on creation. *)

(** {1 Inspection} *)

val counters : t -> (string * int) list
(** Sorted by name. *)

val histograms : t -> (string * summary) list
(** Sorted by name. *)

val windows : t -> (string * Window.t) list
(** Sorted by name. *)

val is_empty : t -> bool
val pp : Format.formatter -> t -> unit
