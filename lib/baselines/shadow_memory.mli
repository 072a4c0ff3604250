(** Shadow cells for the happens-before detector.

    One cell per 8-byte granule, FastTrack-style: the last write epoch
    and either a single read epoch or a full read vector. *)

type epoch = { tid : int; clock : int }

type cell = {
  mutable write : epoch option;
  mutable reads : (int * int) list; (* (tid, clock), small-n assoc *)
}

type t

val create : unit -> t
val cell_of : t -> Kard_mpk.Page.addr -> cell
(** The cell covering the address's 8-byte granule (created lazily). *)

val clear : t -> Kard_mpk.Page.addr -> unit
(** Drop the cell covering the address's granule, if it exists
    (no-op, and no allocation, otherwise). *)

val bytes : t -> int
(** Modeled shadow-memory footprint (TSan uses multiple shadow words
    per granule; we charge 32 B per touched granule). *)
