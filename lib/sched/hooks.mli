(** The detector interface: what a dynamic race detector may observe.

    Each hook returns the cycles the detector consumed, so detection
    overhead is accounted exactly where it occurs.  Kard never uses
    the per-access hooks (that is its whole point — it is fault
    driven); TSan uses them for every access. *)

type env = {
  hw : Kard_mpk.Mpk_hw.t;
  meta : Kard_alloc.Meta_table.t;
  cost : Kard_mpk.Cost_model.t;
  now : unit -> int;  (** Read the virtual clock. *)
  trace : Kard_obs.Trace.sink;
      (** The run's observability sink ([None] when tracing is off);
          detectors emit key/race events and metrics into it. *)
}
(** What the machine exposes to a detector at construction time. *)

type fault_action =
  | Retry    (** The handler resolved the fault; re-execute the access. *)
  | Emulate  (** Let this one access through without re-protecting. *)

type fault_outcome = private int
(** What a fault handler returns: the cycles it consumed and its
    {!fault_action}, packed into one immediate int so that returning
    it allocates nothing.  Build it with {!retry} or {!emulate}; read
    it with {!fault_cycles} and {!fault_action}. *)

val retry : int -> fault_outcome
(** The handler consumed the cycles given and resolved the fault. *)

val emulate : int -> fault_outcome
(** The handler consumed the cycles given and lets the access through. *)

val fault_cycles : fault_outcome -> int
val fault_action : fault_outcome -> fault_action

type access_hooks = {
  on_read : tid:int -> addr:Op.addr -> int;
      (** Pre-access instrumentation (TSan-style detectors only). *)
  on_write : tid:int -> addr:Op.addr -> int;
  on_read_block : tid:int -> block:Op.block -> int;
      (** Instrumentation for a whole block operation: the detector
          must charge for [block.count] accesses. *)
  on_write_block : tid:int -> block:Op.block -> int;
}
(** The per-access hooks, called before every data access. *)

type t = {
  name : string;
  on_pick : tid:int -> unit;
      (** Called right after the scheduler picks [tid], before the
          step executes.  Returns no cycles: observing the schedule is
          free by construction, which is what lets the record/replay
          layer log every pick at zero simulated cost.  The virtual
          clock is committed at pick time: every earlier op has been
          charged (see {!Machine.run}). *)
  on_spawn : tid:int -> int;
  on_global : Kard_alloc.Obj_meta.t -> int;
  on_alloc : tid:int -> Kard_alloc.Obj_meta.t -> int;
  on_free : tid:int -> Kard_alloc.Obj_meta.t -> int;
  on_lock : tid:int -> lock:int -> site:int -> int;
      (** Called once the lock is held (critical-section entry). *)
  on_unlock : tid:int -> lock:int -> int;
      (** Called just before the lock is released (section exit). *)
  access : access_hooks option;
      (** [None]: the detector observes no individual access, as Kard
          and the baseline do (fault-driven detection needs no
          per-access instrumentation).  [Some]: every access goes
          through the hooks — TSan, Eraser, the fuzz trace log.  A
          wrapper that intercepts an access must install [Some], so it
          can never inherit "no observer" by accident. *)
  on_fault : Kard_mpk.Fault.t -> fault_outcome;
      (** The fault is the machine's one fault record
          ({!Kard_mpk.Mpk_hw.last_fault}), which the next access
          overwrites: a handler reads it during the call and copies
          whatever it keeps. *)
  on_thread_exit : tid:int -> int;
  on_finish : unit -> unit;
  metadata_bytes : unit -> int;
      (** Detector-internal memory, added to the modeled RSS. *)
}

val access_of : t -> access_hooks
(** [t.access], or hooks that observe nothing and cost nothing when it
    is [None]: what a wrapper that intercepts accesses calls through
    to. *)

val null : name:string -> t
(** A detector that observes nothing and costs nothing (Baseline). *)
