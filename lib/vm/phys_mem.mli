(** The physical page pool, with resident-set accounting.

    Consolidated unique page allocation (paper section 5.3, figure 2)
    saves memory by aliasing many virtual pages onto few physical
    pages; this module is the ground truth for how much physical
    memory a run actually consumed — the RSS column of Table 3. *)

type t

type frame = private int
(** A physical frame number. *)

val create : unit -> t

val alloc_frame : t -> frame
(** Allocate a frame and count it resident.  Frames hold no bytes: no
    simulated operation carries data, so aliasing shows as two virtual
    pages backed by one frame ({!Address_space.backing_of_vpage}). *)

val free_frame : t -> frame -> unit
(** @raise Invalid_argument on double free. *)

val resident_frames : t -> int
val peak_resident_bytes : t -> int
val total_allocated_frames : t -> int

val frame_to_int : frame -> int
val frame_of_int : int -> frame
