(** A deliberately lock-convoyed workload.

    Not a paper application: this model maximizes lock contention —
    all threads hammer one lock, and nearly every executed operation
    is an in-section access — so that the cost of charging waiter
    dilation dominates the run.  It is the [convoy-64t] workload of
    the benchmark under [bench/perf] and a stress test for the stall
    charged to lock waiters. *)

val convoy : Spec.t
val all : Spec.t list
