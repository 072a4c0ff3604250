(** A deterministic Domain-based worker pool, and the composable run
    plans it executes.

    Workers pull items from a shared queue and execute them {e out of
    order}, but results come back in {e submission order}, each plan
    reads exactly its own jobs' results, and a seeded simulator run is
    a pure function of its {!Job.t} inputs — so a plan executed at
    [~jobs:1] and at [~jobs:64] produces bit-identical output: every
    table cell, JSON report, race list and exported trace.  That
    determinism contract is the pool's correctness oracle (the
    parallel-vs-serial tests in [test/test_pool.ml] assert it
    byte-for-byte) and is documented in DESIGN.md §7.

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

    A plan describes runs as data and says what to make of their
    results.  Experiment drivers are plan-{e builders}: {!job} is one
    run, [let+] maps a plan's value, [and+] pairs two plans and {!all}
    lists plans, so a row is written once, next to the runs it reads.
    Nothing runs until {!execute}, which runs every leaf job on the
    pool and hands each sub-plan the results of its own jobs: no
    builder ever sees a result list, or cuts one back into rows. *)

type 'a plan

val job : Job.t -> Runner.result plan
(** One run; its value is the run's result. *)

val ( let+ ) : 'a plan -> ('a -> 'b) -> 'b plan
(** [let+ x = p in f x]: the same jobs, the value mapped by [f]. *)

val ( and+ ) : 'a plan -> 'b plan -> ('a * 'b) plan
(** Both plans' jobs, the left plan's first; the value pairs theirs. *)

val all : 'a plan list -> 'a list plan
(** Every plan's jobs, in list order; the value lists theirs.
    [all []] runs nothing. *)

val jobs : 'a plan -> Job.t list
(** The leaf jobs, left to right: the order {!execute} submits them
    in, so a {!Job_failed} index is a position in this list. *)

val execute : ?jobs:int -> 'a plan -> 'a
(** Run the plan's jobs on the pool ({!run_jobs}) and build its value
    from their results. *)
