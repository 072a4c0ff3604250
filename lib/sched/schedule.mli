(** Scheduling policies for the simulated machine.

    A policy picks which runnable thread executes the next operation.
    [Random] reproduces a run exactly under a fixed seed; [Replay]
    re-executes a previously recorded pick sequence — the classic
    race-debugging loop: sweep seeds until a schedule manifests the
    bug, then replay that schedule while investigating.

    Picking reads the machine's {!Runnable_set} directly (no per-step
    list materialization) and appends one byte to a doubling pick log
    (five for a thread id past 254), so a random pick costs one RNG
    draw, one array read and O(1) recording, whatever the thread
    count. *)

type t =
  | Random of int        (** Uniform over runnable threads, seeded. *)
  | Round_robin          (** Deterministic rotation. *)
  | Replay of int array  (** Recorded thread ids; falls back to
                             round-robin when the recorded pick is no
                             longer runnable or the tape runs out. *)

type state

val start : t -> state

val pick : state -> runnable:Runnable_set.t -> int
(** Choose a member of [runnable] (non-empty) and record the choice.
    The random policy indexes the set in descending-tid order, which
    preserves the pick sequence of every historical seed. *)

val recorded : state -> int array
(** Every pick made so far, in order — feed to {!Replay}.  Decodes the
    pick log into a fresh array on each call. *)

val pp : Format.formatter -> t -> unit
