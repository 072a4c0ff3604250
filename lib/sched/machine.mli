(** The simulated multi-threaded machine.

    Assembles virtual memory, the MPK model, an allocator, a lock
    table, a seeded scheduler and a detector, then executes thread
    programs one operation at a time.  Interleaving is uniformly
    random over runnable threads under the given seed, so a run is
    exactly reproducible and schedules can be swept.

    Usage: [create], then [add_global]s, then [spawn] threads, then
    [run]. *)

type t

type allocator_kind =
  | Unique_page  (** Kard's allocator (section 5.3). *)
  | Native  (** Compact bump allocator (Baseline / TSan). *)

type interp =
  [ `Compiled
    (** Int-tag dispatch straight off compiled segments — the
        allocation-free production path (default). *)
  | `Thunks
    (** Pull every operation as an option-boxed [Op.t] through
        {!Program.to_thunk} — the pre-compilation consumption path,
        kept as the oracle: a run under [`Thunks] must produce a
        bit-identical report to the same run under [`Compiled]. *) ]

val create :
  ?seed:int ->
  ?schedule:Schedule.t ->
  ?cost:Kard_mpk.Cost_model.t ->
  ?trace:Kard_obs.Trace.t ->
  ?max_steps:int ->
  ?interp:interp ->
  allocator:allocator_kind ->
  make_detector:(Hooks.env -> Hooks.t) ->
  unit ->
  t
(** [schedule] overrides [seed] (which is shorthand for
    [Schedule.Random seed]).

    [trace] (default: none) turns on observability: the sink is
    clocked to this machine's virtual cycle counter, handed to the MPK
    model and the unique-page allocator, exposed to the detector via
    {!Hooks.env}, and fed lock/fault/step events by the machine
    itself.  Tracing never charges simulated cycles, so a traced run
    reports exactly the cycles of an untraced run. *)

(** {1 Setup} *)

val add_global : ?resident:bool -> t -> site:int -> size:int -> Kard_alloc.Obj_meta.t
(** Register a global variable before any thread runs; the cycles go
    to the startup account, as the paper's init-time calls do.
    [resident] (default false) marks globals the program actually
    touches; only those count toward RSS. *)

val spawn : t -> Program.t -> int
(** Returns the new thread id (0, 1, 2, ...). *)

(** {1 Introspection (for detectors, tests and workloads)} *)

val env : t -> Hooks.env
val aspace : t -> Kard_vm.Address_space.t
val alloc_iface : t -> Kard_alloc.Alloc_iface.t
val now : t -> int
val trace : t -> Kard_obs.Trace.sink

(** {1 Execution} *)

exception Stuck of string
(** Deadlock, runaway program, or an access that keeps faulting. *)

type report = {
  detector_name : string;
  cycles : int;          (** Total CPU cycles across all threads. *)
  io_cycles : int;       (** Portion of [cycles] spent in [Io] ops. *)
  wall_cycles : int;     (** Max per-thread cycles: idealized wall clock. *)
  steps : int;
  reads : int;
  writes : int;
  computes : int;
  cs_entries : int;      (** Lock acquisitions (Table 3 "Entry"). *)
  contended_entries : int;
  unique_sections : int; (** Distinct synchronization call sites seen. *)
  max_concurrent_sections : int;  (** Table 5 "maximum concurrent CS". *)
  faults : int;
  rss_bytes : int;       (** Modeled peak RSS (see below). *)
  data_rss_bytes : int;  (** Peak resident data pages, counted once per
                             mapping as /proc RSS does — which is why
                             unique-page allocation inflates RSS even
                             under physical consolidation. *)
  page_table_bytes : int;
  detector_metadata_bytes : int;
  dtlb_accesses : int;
  dtlb_misses : int;
  dtlb_miss_rate : float;
  alloc_stats : Kard_alloc.Alloc_iface.stats;
  hw_stats : Kard_mpk.Mpk_hw.stats;
  per_thread_cycles : int array;
  schedule_trace : int array;
      (** The scheduler's pick sequence; feed to {!Schedule.Replay} to
          re-execute this exact interleaving. *)
}
(** [rss_bytes] models peak RSS as physical data frames + last-level
    page-table pages for all live mappings + allocator metadata +
    detector metadata, the components section 7.5 identifies. *)

val run : t -> report
(** Execute until every thread finished. @raise Stuck on deadlock or
    when [max_steps] is exceeded.

    Every operation is charged as it runs, so the virtual clock that
    any hook reads — [on_pick] included — is the committed total of
    all work done so far. *)

val pp_report : Format.formatter -> report -> unit
