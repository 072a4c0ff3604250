(** Deterministic, resumable, parallel fuzz campaigns.

    A campaign of [count] programs derives every input from the
    campaign seed alone: program [i] is generated from
    [Random.State.make [| seed; i |]], the machine seed is drawn from
    the same state, and the detector configuration cycles through
    {!configs} by index.  Jobs are independent, executed on the
    {!Kard_harness.Pool} and merged in submission order — a campaign
    at [--jobs 1] and at [--jobs 8] produces byte-identical reports
    and corpus contents.

    With a corpus directory the campaign persists (no timestamps, no
    hostnames — files depend only on [seed] and [count]):

    - [state.txt] — the machine-readable cumulative record (seed,
      programs done, per-class counts); a rerun with the same seed
      resumes after the programs already done, extending the same
      corpus.
    - [summary.txt] — the human-readable mirror.
    - [exemplar-<class>.ml] — for each divergence class, the first
      program (lowest index) that exhibited it, as a runnable
      {!Prog.to_ocaml} value.
    - [unexpected-<index>.ml] — every program with an unexpected
      divergence, minimized by {!Shrink.minimize} (preserving
      unexpectedness), plus the original as
      [unexpected-<index>-full.ml]. *)

val configs :
  (string * Kard_core.Config.t * bool * [ `Default | `Vkey_rotation ] * bool) list
(** The (name, detector configuration, batch gate, generator
    pressure, replay gate) entries a campaign cycles through, in a
    fixed order (program [i] draws entry [i mod 15]): the default; a
    4-key detector (forcing grouping, recycling and sharing); a
    16-key virtual pool over 4 physical keys; lock-identity sections;
    two {e batch-gate} entries whose programs also run the
    dual-machine batch gate ({!Harness.run}), so batching determinism
    is fuzzed alongside oracle equivalence; three {e vkey rotation}
    entries — a 64-key virtual pool over the full and the 4-key
    physical budget, plus a batch-gate one.  The vkey entries (the
    16-key one is batch-gated too) are drawn with the
    [`Vkey_rotation] generator profile ({!Prog.generate}) so every
    program outruns the physical keys and the cache's
    load/evict/stall windows sit under the oracles; four
    {e sampling} entries; and two {e replay-oracle} entries whose
    programs also run the record/replay gate (record the
    nondeterminism log, round-trip the codec, strictly replay, demand
    identical results — any difference is the never-expected
    replay-divergence class), one on the default detector and one
    pairing replay with sampling and the batch gate. *)

type reconstructed = {
  rp_prog : Prog.t;
  rp_config_name : string;
  rp_config : Kard_core.Config.t;
  rp_batch_gate : bool;
  rp_replay : bool;
  rp_machine_seed : int;
}

val reconstruct : seed:int -> int -> reconstructed
(** Rebuild program [i] of campaign [seed]: the generator state, the
    {!configs} entry and the machine seed are all pure functions of
    the pair, so a log recorded from a campaign program — header
    target [fuzz:seed:i] — can be re-executed anywhere without
    shipping the program itself. *)

val target : seed:int -> int -> string
(** [fuzz:<seed>:<i>], the header target of a recorded campaign
    program. *)

val of_target : string -> (int * int) option
(** Parse {!target}'s form back to [(seed, i)]. *)

type result = {
  programs : int;       (** Programs run in this invocation. *)
  total : int;          (** Cumulative programs in the corpus (resume). *)
  divergent : int;      (** Cumulative programs with at least one divergence. *)
  class_counts : (Kard_core.Divergence.cls * int) list;
      (** Cumulative per-class divergent-object counts, taxonomy order. *)
  unexpected_indices : int list;  (** Cumulative, sorted. *)
}

val run :
  ?jobs:int ->
  ?corpus:string ->
  ?sampling:float ->
  ?replay:bool ->
  count:int ->
  seed:int ->
  unit ->
  result
(** Run programs [done..count-1] (where [done] is what the corpus
    already records, 0 without a corpus or on a fresh one).  [count]
    is the cumulative target.  [sampling] overrides
    every entry's sampling rate (with a 100k-cycle epoch, so
    rotations happen inside small programs) — under a rate below 1.0
    residual Kard misses classify as the expected
    [sampling-missed-race]; [replay] overrides every entry's replay
    flag (so [--replay] runs the record/replay gate on {e every}
    program, not just the replay-oracle entries).  Campaign results
    then depend on the overrides, so resumable corpora should keep
    them fixed.
    @raise Failure if the corpus directory belongs to a different
    campaign seed. *)

val report : Format.formatter -> result -> unit
(** The summary block (also what [summary.txt] contains). *)
