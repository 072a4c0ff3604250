(** A ThreadSanitizer-style happens-before race detector.

    The comparison baseline of the paper's Table 3: compiler
    instrumentation of {e every} memory access updating FastTrack-ish
    shadow cells, plus vector-clock release/acquire on every lock
    operation.  Costs are charged per access, which is why this
    detector is orders of magnitude slower than Kard on the same
    workloads — and why it also catches non-ILU races. *)

type race = {
  addr : Kard_mpk.Page.addr;
  thread : int;
  access : [ `Read | `Write ];
  prior_thread : int;
  prior_access : [ `Read | `Write ];
  prior_locked : bool;  (** Did the prior side hold any lock? *)
  locked : bool;
}

type t

val create : ?max_threads:int -> Kard_sched.Hooks.env -> t
val hooks : t -> Kard_sched.Hooks.t
val races : t -> race list

val ilu_races : t -> race list
(** Races where at least one side held a lock (for Table 6's
    ILU/non-ILU split). *)

val make :
  ?max_threads:int -> cell:t option ref -> Kard_sched.Hooks.env -> Kard_sched.Hooks.t
