(** Run one fuzz program under every detector and classify.

    The program executes once on the simulated machine under the Kard
    runtime, with a {!Trace_log} wrapper recording the linearized
    event sequence; the three pure oracles then replay that exact
    sequence, and {!Classify} names every disagreement. *)

type outcome = {
  verdicts : Classify.obj_verdict list;
      (** Every object some detector flagged, sorted by id. *)
  divergent : Classify.obj_verdict list;
      (** The subset with a non-empty class list. *)
  classes : Kard_core.Divergence.cls list;
      (** Union over [divergent], sorted; additionally contains
          {!Kard_core.Divergence.Batch_divergence} when the batch
          gate (below) diverged, and
          {!Kard_core.Divergence.Replay_divergence} when the
          record/replay gate (below) did. *)
  unexpected : bool;
  stuck : string option;
      (** The machine raised [Stuck] — impossible for a {!Prog.check}ed
          program, so it counts as unexpected. *)
}

val run :
  ?kard_filter:(Kard_core.Race_record.t -> bool) ->
  ?provenance_filter:(Kard_core.Detector.provenance -> Kard_core.Detector.provenance) ->
  ?config:Kard_core.Config.t ->
  ?batch_gate:bool ->
  ?replay:bool ->
  ?replay_target:string ->
  seed:int ->
  Prog.t ->
  outcome
(** [kard_filter] drops Kard race records before comparison, and
    [provenance_filter] rewrites the per-object provenance the
    classifier sees — together the injected-bug levers for the
    shrinker tests: a detector that loses both its records and its
    evidence log turns every surviving divergence into
    {!Kard_core.Divergence.Unexpected} (defaults: keep
    everything).  [config] is the detector configuration (default
    {!Kard_core.Config.default}); [seed] drives the machine
    schedule.

    [batch_gate] (default false) additionally runs the {e batch gate}:
    the same program through {!Kard_harness.Runner.run_build} on two
    unwrapped Kard machines, neither with access hooks — the compiled
    interpreter and the [`Thunks] oracle interpreter — whose whole
    results (report, detector statistics, race records) must be
    structurally identical.  A mismatch adds the never-expected
    {!Kard_core.Divergence.Batch_divergence} class, so oracle
    equivalence gates the compiled interpreter on the unhooked access
    path every Kard run takes outside the fuzzer.

    [replay] (default false) additionally runs the {e replay gate}:
    the program recorded once more by
    {!Kard_harness.Record.record_build}, the log round-tripped through
    its wire encoding, and a strict
    {!Kard_harness.Record.replay_build} re-execution that must
    reproduce the whole result exactly with the tape fully consumed.  Any difference adds the
    never-expected {!Kard_core.Divergence.Replay_divergence} class —
    the campaign cross-checks log fidelity on generated programs the
    same way it gates the compiled interpreter.  [replay_target] names
    the log's header target (default ["fuzz"]). *)

val pp_outcome : Format.formatter -> outcome -> unit
