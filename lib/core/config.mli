(** Kard runtime configuration.

    The defaults mirror the evaluated system; the ablation benches
    flip individual switches. *)

(** How critical sections are named (section 8's "program binary
    extension"): with compiler support, by the synchronization call
    site; on unmodified binaries (LD_PRELOAD interposition without
    return-address tracking), only the lock identity is available,
    giving coarser sections. *)
type section_identity =
  | By_call_site
  | By_lock

type t = {
  data_keys : int;
      (** Read-write domain keys available ([k1]..[k13] on Intel MPK;
          the "advanced hardware" discussion of section 8 motivates
          larger values, which the ablation bench exercises). *)
  proactive_acquisition : bool;
      (** Acquire known keys at section entry (section 5.4).  When
          off, every first access in a section faults (reactive only). *)
  protection_interleaving : bool;
      (** The false-positive filter of section 5.5. *)
  timestamp_pruning : bool;
      (** Treat keys released less than a fault-delay ago as held. *)
  redundancy_pruning : bool;
      (** Drop repeated records of the same object/section pair. *)
  metadata_pruning : bool;
      (** Prune non-racy violations via the section-object map
          (section 5.5): a fault on a key held by a section that never
          touches the faulted object is key multiplexing, not a
          conflict. *)
  prefer_recycle : bool;
      (** Rule 3 of effective key assignment: recycle before sharing. *)
  share_disjoint_sections : bool;
      (** When sharing is forced, prefer keys whose sections touch
          disjoint object sets (the Table 4 mitigation). *)
  software_fallback : bool;
      (** Section 8: instead of ever sharing a hardware key, move the
          object into a software-protected pool with one virtual key
          per object.  Eliminates the sharing false negative at a
          fault-per-access cost to pooled objects.  When enabled, one
          hardware key is reserved for the pool (at most 12 data
          keys remain). *)
  exit_delay_cycles : int;
      (** Delay injection (section 5.5): hold keys this many extra
          cycles at section exit while a protection interleaving the
          thread participates in is pending, widening the window in
          which a conflicting access still observes a live holder.
          0 disables (the default). *)
  section_identity : section_identity;
      (** Default [By_call_site] (the LLVM-pass deployment). *)
  vkeys : int;
      (** Virtual-key pool size (libmpk-style, DESIGN.md §11).  [0]
          (the default) disables virtualization: key identity is the
          physical data key, byte-identical to the pre-vkey detector.
          A positive value gives the detector that many virtual keys,
          cached over the physical data keys by a clock-eviction table;
          one physical key ([k13]) is repurposed as the always-deny
          tag of evicted keys, so at most 12 data keys remain resident
          (11 under [software_fallback], whose pool key moves to
          [k12]).  Sharing becomes a last resort {e after} eviction,
          shrinking the Table 4 false-negative window. *)
  sampling : float;
      (** Fraction of objects under pkey protection (HardRace-style
          selective monitoring, DESIGN.md §12).  [1.0] (the default)
          is full Kard, byte-identical to the pre-sampling detector.
          Below 1.0 a seeded per-object policy decides at first
          allocation whether an object is {e sampled}; unsampled
          objects keep the default key ([k_def]) and never fault,
          retag, or occupy ksmap/vkey state — their accesses are the
          near-zero fast path.  Reports under sampling are always a
          subset of full Kard's: races can be delayed or missed,
          never invented. *)
  sampling_epoch : int;
      (** Virtual-clock cycles per sampling epoch.  At each epoch
          boundary the sampled set rotates deterministically (the
          hash is salted with the epoch number) so long runs
          eventually cover every object.  The boundary is observed at
          section entry against the machine's virtual clock, which is
          identical at any [--jobs] count — rotation never
          breaks determinism.  [0] disables rotation (a fixed sampled
          set for the whole run). *)
  sampling_seed : int;
      (** Salt of the sampling hash; reports are a pure function of
          (seed, rate, epoch schedule). *)
}

val default : t
val pp : Format.formatter -> t -> unit
