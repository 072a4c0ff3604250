(** Typed, cycle-stamped trace events.

    This module sits below every other Kard library (the MPK model,
    the allocator, the scheduler and the detector all emit into it),
    so it speaks plain integers: protection keys, addresses and lock
    ids are [int]s here, not the richer types of the layers above. *)

type access = [ `Read | `Write ]

type alloc_kind =
  | Fresh   (** A new unique-page mapping was created. *)
  | Global  (** Load-time global registration. *)

type assign_kind =
  | Assign_fresh    (** An unheld key was assigned (rule 1). *)
  | Assign_reuse    (** The section already held a suitable key (rule 2). *)
  | Assign_recycle  (** An idle key was recycled from its objects (rule 3a). *)
  | Assign_share    (** A held key was shared — the FN source (rule 3b). *)

type kind =
  | Lock_acquire of { lock : int; site : int; contended : bool }
  | Lock_release of { lock : int }
  | Fault_raised of { addr : int; pkey : int; access : access }
  | Fault_resolved of { addr : int; pkey : int; latency : int }
      (** [latency] is the full round trip: hardware trap plus the
          handler cycles the detector charged. *)
  | Wrpkru
  | Rdpkru
  | Pkey_mprotect of { base : int; pages : int; pkey : int }
  | Key_assign of { key : int; obj_id : int; assign : assign_kind }
  | Key_demote of { obj_id : int; to_ro : bool }
      (** Domain demotion: to Read-only when [to_ro], else Not-accessed. *)
  | Key_migrate of { obj_id : int; from_key : int; to_key : int }
  | Vkey_load of { vkey : int; slot : int; evicted : int; pages : int }
      (** The virtual-key cache loaded [vkey] into physical slot
          [slot], evicting resident key [evicted] ([-1] if the slot
          was free) and retagging [pages] pages in one batch. *)
  | Pkey_occupancy of { live : int }
      (** Data keys currently held, sampled on every change. *)
  | Alloc of { obj_id : int; size : int; alloc : alloc_kind }
  | Free of { obj_id : int }
  | Race of { obj_id : int; offset : int }
  | Step of { op : [ `Read | `Write | `Compute ]; addr : int }
      (** Per-operation events; only emitted when the trace was created
          with [~steps:true] (they dominate the buffer otherwise). *)

type t = {
  ts : int;   (** Virtual cycle timestamp. *)
  tid : int;  (** Simulated thread, or [-1] for runtime/allocator work. *)
  kind : kind;
}

val category : kind -> string
(** Grouping used by exporters and filters: ["lock"], ["fault"],
    ["pkey"], ["key"], ["alloc"], ["race"] or ["step"]. *)

val name : kind -> string
(** Short event name, e.g. ["wrpkru"] or ["key-migrate"]. *)

type arg =
  | Int of int
  | Str of string

val args : kind -> (string * arg) list
(** Structured payload for exporters. *)

val pp : Format.formatter -> t -> unit
