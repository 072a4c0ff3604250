(** Record/replay orchestration: run targets under the
    {!Kard_replay} recorder, and re-execute logs with fidelity
    checking.

    Recording composes a {!Kard_replay.Recorder} wrapper around the
    detector of an ordinary {!Runner} run: the log captures the
    schedule picks, lock-grant order and periodic pick/clock anchors
    at zero simulated cost, plus a header with the full configuration
    fingerprint.  Replaying rebuilds the same workload from the
    header, drives the machine from the log's pick tape instead of a
    seeded schedule, and verifies grants and anchors as it runs —
    optionally under a {e different} detector (record under cheap
    sampling in production, replay under full kard or the TSan/lockset
    oracles at the desk; clock anchors are then skipped, since
    detector cycle charges differ). *)

val header :
  detector:Runner.detector ->
  target:string -> threads:int -> scale:float -> seed:int -> shards:int -> Kard_replay.Log.header
(** [shards] fills the header's wire field, which replay ignores.  It
    survives from the retired sharded machine so that callers pinning
    [~shards:1] (the benchmark under [bench/perf]) keep working: it
    must be 1, and any other value raises [Invalid_argument]. *)

val detector_of_header : Kard_replay.Log.header -> (Runner.detector, string) result
(** Reconstruct the recorded detector (a kard header carries its full
    config; others carry none). *)

val same_detector : Runner.detector -> Kard_replay.Log.header -> bool
(** Whether replaying with this detector reproduces the recorded
    configuration exactly (selects {!Kard_replay.Replayer.Strict}). *)

val record :
  ?trace:Kard_obs.Trace.t ->
  ?threads:int ->
  ?scale:float ->
  ?seed:int ->
  detector:Runner.detector ->
  Runner.target ->
  Runner.result * Kard_replay.Log.t
(** {!Runner.run} with recording on.  The returned result is
    byte-identical to an unrecorded run (the recorder charges no
    cycles); the log is ready to {!Kard_replay.Log.to_file}, and its
    header names the target as [spec:NAME] or [scenario:NAME]. *)

val record_build :
  ?trace:Kard_obs.Trace.t ->
  threads:int ->
  scale:float ->
  seed:int ->
  detector:Runner.detector ->
  target:string ->
  (Kard_sched.Machine.t -> unit) ->
  string ->
  Runner.result * Kard_replay.Log.t
(** Record an arbitrary machine-builder (fuzz programs and other
    targets without a registry entry); [target] goes in the header. *)

type fidelity = (unit, string) result
(** [Ok ()] iff the re-execution matched the log everywhere (picks,
    grants, anchors, full tape consumption). *)

val replay :
  ?trace:Kard_obs.Trace.t ->
  ?shards:int ->
  ?detector:Runner.detector ->
  Kard_replay.Log.t ->
  (Runner.result * fidelity, string) result
(** Re-execute a log whose target is a spec or scenario, resolving
    everything from the header (the target through
    {!Runner.find_target}).  [detector] overrides the recorded
    one (cross-detector replay; fidelity drops to schedule-only
    strength).  [Error] means the target could not be resolved or the
    detector could not be reconstructed.  [shards] is a compatibility
    parameter like {!header}'s: it must be 1 (the default). *)

val replay_build :
  ?trace:Kard_obs.Trace.t ->
  ?detector:Runner.detector ->
  Kard_replay.Log.t ->
  (Kard_sched.Machine.t -> unit) ->
  string ->
  (Runner.result * fidelity, string) result
(** Like {!replay} with the workload supplied by the caller — for
    fuzz targets, where the program is reconstructed from the header's
    [fuzz:SEED:INDEX] by the campaign layer. *)
