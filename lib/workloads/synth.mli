(** The parameterized workload engine.

    Every benchmark model is an instance of one profile: a main thread
    allocates the sharable heap objects, then [threads] workers run
    iterations mixing private block accesses, per-object sweeps,
    compute, I/O, allocation churn and one critical section per
    iteration.  The profile's counts are taken from the paper's
    Table 3 row for the application, so the three overhead factors the
    paper names — protected sharable objects, critical-section
    entries, and dTLB pressure — are reproduced structurally.

    Sections own fixed slices of the shared objects: section [i] locks
    [i mod locks], and lock [c] guards the objects [j] with
    [j mod locks = c] (the PARSEC/SPLASH pattern), so every profile is
    race free. *)

type profile = {
  heap_objects : int;        (** Allocated by the main thread at start. *)
  heap_size : int;           (** Bytes per heap object. *)
  globals : int;
  global_size : int;
  churn_per_entry : float;   (** Worker alloc+free pairs per iteration. *)
  churn_size : int;
  sites : int;               (** Distinct synchronization call sites. *)
  locks : int;
  entries : int;             (** Critical-section entries, all threads. *)
  shared_rw : int;           (** Objects written inside sections. *)
  shared_ro : int;           (** Objects only read inside sections. *)
  rw_writes_per_entry : int;
  ro_reads_per_entry : int;
  block_accesses : int;      (** Private streaming accesses per iteration. *)
  block_span : int;          (** Private buffer size per thread. *)
  compute : int;             (** Extra compute cycles per iteration. *)
  cs_compute : int;          (** Compute cycles spent inside the
                                 critical section (drives section
                                 occupancy, hence contention and
                                 reactive faults). *)
  io : int;                  (** I/O cycles per iteration. *)
  sweep_objects : int;       (** Distinct heap objects touched
                                 individually per iteration (dTLB
                                 pressure under unique-page layout). *)
  min_entries : int;         (** Scaling floor (see {!Builder.scale_factor}). *)
}

val default : profile
(** A small, neutral profile; override fields as needed. *)

val build : profile -> threads:int -> scale:float -> seed:int -> Kard_sched.Machine.t -> unit

val effective_entries : profile -> scale:float -> int
(** How many entries a run at this scale will execute. *)
