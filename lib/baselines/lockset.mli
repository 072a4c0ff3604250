(** An Eraser-style lockset detector (Savage et al., TOCS 1997).

    The classic schedule-insensitive algorithm Kard's ILU scope is
    compared against in section 3.1: each location's candidate lockset
    is intersected with the locks held at every access; an empty
    lockset in the Shared-modified state is reported.  Because it
    ignores whether conflicting accesses can actually be concurrent,
    it reports a superset of ILU — including false alarms that Kard's
    concurrency-aware scope avoids (the test suite demonstrates this
    on a fork-join workload). *)

type state =
  | Virgin
  | Exclusive of int
  | Shared
  | Shared_modified

type warning = {
  addr : Kard_mpk.Page.addr;
  thread : int;
  access : [ `Read | `Write ];
}

type t

val create : Kard_sched.Hooks.env -> t
val hooks : t -> Kard_sched.Hooks.t
val warnings : t -> warning list
val state_of : t -> Kard_mpk.Page.addr -> state

val make : cell:t option ref -> Kard_sched.Hooks.env -> Kard_sched.Hooks.t
