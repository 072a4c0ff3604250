(** A deterministic Domain-based worker pool, and the run plans it
    executes.

    Workers pull items from a shared queue and execute them {e out of
    order}, but results are merged back in {e submission order}, and a
    seeded simulator run is a pure function of its {!Job.t} inputs —
    so a plan executed at [~jobs:1] and at [~jobs:64] produces
    bit-identical merged output: every table cell, JSON report, race
    list and exported trace.  That determinism contract is the
    refactor's correctness oracle (the parallel-vs-serial tests in
    [test/test_pool.ml] assert it byte-for-byte) and is documented in
    DESIGN.md §7.

    [~jobs] defaults to {!Defaults.jobs} ([$KARD_JOBS] or
    [Domain.recommended_domain_count ()]).  [~jobs:1] (or a singleton
    input) never spawns a domain: it degenerates to the plain serial
    path. *)

exception Job_failed of { index : int; label : string; message : string }
(** A worker crash surfaces as a job error naming the submission
    index and the job: the pool always attempts {e every} item, then
    re-raises the failure with the {e smallest} index — so which error
    is reported does not depend on scheduling.  [message] is the
    original exception (with backtrace when available). *)

val resolve_jobs : int option -> int
(** [resolve_jobs None] is {!Defaults.jobs}[ ()]; [Some n] is
    [max 1 n]. *)

val map : ?jobs:int -> ?label:(int -> 'a -> string) -> ('a -> 'b) -> 'a list -> 'b list
(** [map f items]: apply [f] to every item on the pool; the result
    list is in submission order regardless of completion order.
    [label] names items in {!Job_failed} errors (default: the
    index). *)

val run_jobs : ?jobs:int -> Job.t list -> Runner.result list
(** {!map} specialised to jobs, labelled with {!Job.describe}. *)

(** {1 Plans}

    A plan is a list of jobs plus a merge function over their results
    (in submission order).  Experiment drivers are plan-{e builders}:
    they describe the runs as data, and the pool decides how to
    execute them. *)

type 'a plan = {
  jobs : Job.t list;
  merge : Runner.result list -> 'a;
}

val plan : Job.t list -> merge:(Runner.result list -> 'a) -> 'a plan

val execute : ?jobs:int -> 'a plan -> 'a
(** Run the plan's jobs on the pool and merge in submission order. *)

val concat : 'a plan list -> 'a list plan
(** One plan running every given plan's jobs, so they share the pool;
    its merge hands each plan the results of its own jobs and lists
    the merged values in the given order. *)

val chunks : int -> 'b list -> 'b list list
(** [chunks k l] splits [l] into consecutive groups of [k] (the last
    group may be shorter).  Merge helper for plan-builders that submit
    a fixed number of jobs per row.  @raise Invalid_argument if
    [k <= 0]. *)
