(** Mutex state for the simulated machine.

    Non-reentrant POSIX-style mutexes with FIFO wakeup.  Lock ids are
    plain (small, dense) non-negative ints chosen by the workload;
    lock state is held in id-indexed arrays and waiter queues in ring
    buffers, so the lock/unlock path neither hashes nor allocates.

    Each lock also carries a stall counter for the machine's
    critical-path accounting (DESIGN.md §4, §5): the cycles charged to
    its owners while it had waiters.  Per thread the table keeps the
    number of threads waiting on the locks it holds and the cycles
    charged to it, updated at a contended {!acquire} and at
    {!release}, so {!charge_held} and {!dilation} are O(1) — no lock
    or waiter is visited.  A waiter's stall is the growth of its
    lock's counter between blocking and hand-off. *)

type t

val create : unit -> t

type acquire_result =
  | Acquired                (** The lock was free; caller now owns it. *)
  | Must_wait               (** Caller was queued; it must block. *)

val acquire : t -> lock:int -> tid:int -> acquire_result
(** @raise Invalid_argument if [tid] already owns [lock] (the
    simulated program deadlocked on itself). *)

val release : t -> lock:int -> tid:int -> int
(** Returns the woken waiter, to whom ownership transfers directly
    (with the lock's other waiters, in the per-thread counts), or [-1]
    when nobody waits and the lock is now free.
    @raise Invalid_argument if [tid] does not own [lock]. *)

val charge_held : t -> tid:int -> int -> int
(** [charge_held t ~tid cycles] charges [cycles] to the stall counter
    of every lock [tid] holds that has waiters, and returns the number
    of threads waiting on those locks; 0 for a thread never seen.
    O(1).  The machine calls it for cycles charged inside a section. *)

val dilation : t -> lock:int -> int
(** The stall counter of [lock]: 0 for a lock never used.  A blocking
    thread records it; at hand-off the difference is its stall. *)

val contended_acquires : t -> int
val total_acquires : t -> int
