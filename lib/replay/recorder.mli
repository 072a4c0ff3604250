(** Record a run's nondeterminism by wrapping its detector hooks.

    The recorder observes through the two hooks the scheduler layer
    already funnels all nondeterminism through: {!Kard_sched.Hooks.t.on_pick}
    (every schedule choice) and [on_lock] (every critical-section
    grant, where it also drops a periodic pick/clock anchor).  Both
    wrappers add zero simulated cycles — [on_pick] cannot charge by
    construction and the [on_lock] wrapper passes the inner
    detector's charge through unchanged — so a recorded run's report
    is byte-identical to an unrecorded one.  The access hooks are
    inherited from the wrapped detector, so recording adds no
    per-access call.

    The streams go straight into a {!Log.writer} as wire bytes: the
    wrappers allocate nothing per step, and the recording's resident
    size is its encoded size. *)

type t

val default_anchor_interval : int
(** Grants between anchors: [64]. *)

val create : ?anchor_interval:int -> unit -> t

val wrap : t -> Kard_sched.Hooks.env -> Kard_sched.Hooks.t -> Kard_sched.Hooks.t
(** Feed as the [?wrap] argument of {!Kard_harness.Runner.run_build}
    (or apply inside a bare [make_detector]). *)

val log : t -> header:Log.header -> Log.t
(** Package the recorded streams under [header] (call after the run). *)
