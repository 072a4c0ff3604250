(** Re-execute a recorded run and verify fidelity as it happens.

    The replayer supplies two things: a {!Kard_sched.Schedule.Replay}
    built from the log's pick stream (feed it to the machine instead
    of a seed), and a hook wrapper that checks the re-execution
    against the log while it runs — every pick against the tape (a
    round-robin fallback in [Schedule.Replay] means the runnable sets
    diverged, and surfaces here as a pick mismatch), every
    critical-section grant against the recorded grant order, and
    every anchor's pick count and virtual clock.

    [Strict] mode (the default) verifies everything and holds for
    same-configuration replays.  [Schedule_only] skips the clock half
    of anchors: a replay under a {e different} detector charges
    different cycles, so only the schedule and grant order — which are
    detector-independent for closed programs — are required to
    match. *)

type mode =
  | Strict         (** Picks, grants, anchor picks and anchor clocks. *)
  | Schedule_only  (** Cross-detector: skip anchor clock comparison. *)

type violation = {
  at : string;        (** Stream position, e.g. ["pick 1042"]. *)
  expected : string;
  actual : string;
}

type t

val create : ?mode:mode -> Log.t -> t

val schedule : t -> Kard_sched.Schedule.t
(** Pass as [Machine.create ~schedule] (via [Runner]'s [?schedule]). *)

val wrap : t -> Kard_sched.Hooks.env -> Kard_sched.Hooks.t -> Kard_sched.Hooks.t
(** Feed as the [?wrap] argument of {!Kard_harness.Runner.run_build}. *)

val violations : t -> violation list
(** Mismatches so far, in occurrence order (capped at 16). *)

val check : t -> (unit, string) result
(** Call after the run: [Ok ()] iff no violation occurred {e and} the
    tape was fully consumed (an early-ending replay used fewer picks
    or grants than were recorded — also a divergence).  The [Error]
    payload is a printable violation list. *)

val pp_violation : Format.formatter -> violation -> unit
