(** Random fuzz programs: generation, validation, compilation to
    machine thread programs, and pretty-printing as a runnable repro.

    A fuzz program is a tree small enough to delta-debug: [workers]
    worker threads run [phases] in lockstep (a coordinator thread
    allocates the object slots, refreshes some of them between phases,
    and drives the barrier), and each worker's per-phase work is a
    list of structured ops over slot indices.  Deadlock and
    lock-held-exit are impossible {e by construction}: [Locked]
    subtrees are balanced, and nested acquisition only ever takes a
    lock with a strictly larger index than the innermost held one
    (ordered locking), which {!check} enforces.

    Object identity is allocator identity: slots are reallocated
    fresh (unique pages, no recycling), so a refreshed slot is a brand
    new object to the detector and to every oracle — the generator
    covers alloc/free and reuse without ever expressing a
    use-after-free. *)

type op =
  | Read of { slot : int; off : int }
  | Write of { slot : int; off : int }
  | Rmw of { slot : int; off : int }
      (** A lock-free read-modify-write (CAS / fetch-add style):
          compiles to an adjacent read and write of the same cell. *)
  | Compute of int
  | Yield
  | Locked of { lock : int; site : int; body : op list }
      (** A critical section: lock index [lock], synchronization call
          site [site].  Sites and locks vary independently, so the
          generator expresses consistent, inconsistent and absent
          locking. *)
  | Repeat of { times : int; body : op list }
      (** Compiled through {!Kard_sched.Program.repeat}: a dynamic
          program segment built lazily, one iteration at a time. *)

type phase = {
  refresh : int list;     (** Slots freed and reallocated before this
                              phase (must be [[]] for phase 0). *)
  work : op list array;   (** One op list per worker. *)
}

type t = {
  workers : int;
  slots : int;
  locks : int;
  slot_size : int;
  phases : phase list;
}

val check : t -> (unit, string) result
(** Structural validity: positive counts, indices in range, ordered
    lock nesting, [Repeat] times >= 1, every phase with one op list
    per worker, no refresh in phase 0. *)

val generate : ?pressure:[ `Default | `Vkey_rotation ] -> rand:Random.State.t -> unit -> t
(** A random valid program.  Slot counts are bimodal: half the
    programs use a handful of objects, half use more than the 13
    physical data keys so key assignment is forced into grouping,
    recycling or sharing.  [`Vkey_rotation] shifts
    both modes above the physical budget (14..20 and 24..64 slots):
    the campaign pairs it with virtual-pool configs so the vkey
    cache's load/evict/stall paths — not just key assignment — sit
    under the oracles.  The default profile's stream is unchanged by
    the parameter (corpus seeds stay stable). *)

val op_count : t -> int
(** Total structured ops over all workers and phases (leaves plus
    [Locked]/[Repeat] nodes), the shrinker's size measure. *)

val to_ocaml : t -> string
(** The program as a runnable OCaml value of this very type, suitable
    for pasting into a test and feeding back through
    {!Harness.run} (which compiles it through the
    {!Kard_sched.Program} builders). *)

(** {1 Compilation} *)

val build : ?on_event:(Trace_log.ev -> unit) -> t -> Kard_sched.Machine.t -> unit
(** Compile and spawn the coordinator (tid 0) and the workers (tids
    1..[workers]) on the machine: the program's one build function,
    for {!Kard_harness.Runner.run_build} and the record/replay layer
    as for a trace-logged machine.  [on_event] (default: drop them)
    receives the barrier events ([Pass]/[Arrive]/[Release]) the
    compiled programs emit so they interleave with the hook-recorded
    trace in program order. *)
