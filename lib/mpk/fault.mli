(** Protection faults (#GP) raised by MPK permission checks.

    These carry exactly the information the paper's custom signal
    handler extracts: faulting address, protection key, access type,
    faulting thread and its context, and a timestamp (section 5.5).

    The machine raises every fault into one record of its own
    ({!Mpk_hw.last_fault}), overwritten by the next fault, so a fault
    is valid until the next access of the machine.  A handler that
    keeps anything of it past its return copies the fields, as a race
    record does. *)

type access = [ `Read | `Write ]

type t = private {
  mutable addr : Page.addr;   (** Faulting virtual address. *)
  mutable vpage : Page.vpage;
  mutable pkey : Pkey.t;      (** Key tagging the faulting page. *)
  mutable access : access;
  mutable thread : int;       (** Faulting thread id. *)
  mutable ip : int;           (** Instruction pointer (op index). *)
  mutable time : int;         (** Cycle timestamp when the fault fired. *)
}

val make :
  addr:Page.addr -> pkey:Pkey.t -> access:access -> thread:int -> ip:int ->
  time:int -> t

val overwrite :
  t -> addr:Page.addr -> pkey:Pkey.t -> access:access -> thread:int -> ip:int ->
  time:int -> unit
(** Rewrite every field in place, as {!make} would fill a new record. *)

val pp : Format.formatter -> t -> unit
val pp_access : Format.formatter -> access -> unit
