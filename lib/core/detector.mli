(** The Kard runtime: key-enforced race detection over the MPK model.

    Implements the full pipeline of sections 5.2-5.5 as a set of
    {!Kard_sched.Hooks.t} hooks: protection domains, on-demand shared
    object identification, proactive and reactive key acquisition,
    effective key assignment, the custom fault handler with timestamp
    checks, protection interleaving, and automated pruning. *)

type t

type stats = {
  na_faults : int;          (** Identification faults ([k_na]). *)
  ro_faults : int;          (** Write faults on the Read-only domain. *)
  data_faults : int;        (** Faults on Read-write domain keys. *)
  anomalies : int;          (** Faults the handler could not attribute. *)
  identifications_read : int;
  identifications_write : int;
  proactive_acquisitions : int;
  reactive_acquisitions : int;
  demotions : int;          (** Objects bounced back to Not-accessed. *)
  timestamp_rescues : int;  (** Races attributed via the release-time window. *)
  reuse_events : int;
  fresh_events : int;
  recycling_events : int;
  sharing_events : int;
  migrations : int;
  interleavings_started : int;
  records_logged : int;
  records_redundant : int;
  records_pruned_spurious : int;
  vkey_pool : int;        (** Virtual-key pool size (0 = identity mode). *)
  vkey_resident : int;    (** Virtual keys resident at run end. *)
  vkey_hits : int;        (** {!Kard_mpk.Vkey.ensure} residency hits. *)
  vkey_misses : int;
  vkey_evictions : int;
  vkey_loads : int;
  vkey_retag_pages : int; (** Pages batch-retagged by loads/evictions. *)
  vkey_stalls : int;      (** Misses with every slot pinned (emulated
                              unprotected — the vkey miss window). *)
  sampling_rate : float;  (** [Config.sampling]; 1.0 = full Kard. *)
  sampled_sections : int; (** Section entries that ran the full entry
                              protocol while sampling was active. *)
  skipped_sections : int; (** Section entries on the fast path: no
                              k_na retraction, walk, or PKRU switch. *)
  sampled_objects : int;  (** Protection decisions in favour: an
                              allocation the epoch samples, or a
                              rotation re-arming a live unsampled
                              object.  A freed object is never
                              re-armed. *)
  skipped_objects : int;  (** Fast-path decisions: an allocation the
                              epoch leaves out, or a rotation
                              draining a live sampled object. *)
  skipped_accesses : int; (** Accesses that landed on unsampled
                              objects (charged zero cycles), as the
                              MMU granted them on [k_def]
                              ({!Kard_mpk.Mpk_hw.default_grants}). *)
  sampling_rotations : int; (** Epoch boundaries observed. *)
  sampling_rearm_pages : int; (** Pages batch-retagged back to [k_na]
                                  by rotation re-arms. *)
  first_race_cs : int;    (** Critical-section entries at the first
                              fresh race record, [-1] if none — the
                              detection-latency measure of the
                              sampling sweep. *)
}

val create : ?config:Config.t -> Kard_sched.Hooks.env -> t
(** @raise Invalid_argument when {!Config.validate} rejects [config],
    naming the broken rule; no field is clamped. *)

val hooks : t -> Kard_sched.Hooks.t
(** [access] is [None] at every sampling rate: the detector observes
    no individual access. *)

val races : t -> Race_record.t list
(** Surviving potential data-race records. *)

val ilu_races : t -> Race_record.t list

val stats : t -> stats

val domains : t -> Domain_state.t
val key_section_map : t -> Key_section_map.t
val config : t -> Config.t

val unique_ro_objects : t -> int
(** Distinct objects ever identified into the Read-only domain
    (Table 3 "Shared objects / RO"). *)

val unique_rw_objects : t -> int
(** Distinct objects ever identified into the Read-write domain. *)

(** Per-object provenance: which documented precision-losing
    mechanisms fired on this object during the run.  The differential
    classifier ([lib/fuzz]) uses these bits as the {e evidence} a
    {!Divergence} class demands before explaining a disagreement with
    the reference oracles. *)
type provenance = {
  rescued : bool;     (** Blamed via the release-timestamp window. *)
  grouped : bool;     (** Shared a physical key with another object. *)
  key_shared : bool;  (** Under a key force-shared across sections (rule 3b). *)
  recycled : bool;    (** Demoted to Read-only by a key recycling. *)
  pruned : bool;      (** Had a record removed as interleave-spurious. *)
  demoted : bool;     (** Bounced to Not-accessed (keyless access or
                          interleaving wind-down). *)
  ro_identified : bool;  (** Ever identified into the Read-only domain
                             (later readers are invisible there). *)
  ro_blamed : bool;  (** Has a race record from the Read-only write-fault
                         path (fault-time section-object-map blame). *)
  proactive_blamed : bool;  (** Has a race record blaming a hold formed
                                by the proactive section-entry walk —
                                a hold Algorithm 1 may never grant
                                (contested keys are skipped at entry;
                                nested exits can drop an outer hold). *)
  vkey_blamed : bool;  (** Touched by a vkey-cache miss window: an
                           access emulated unprotected because every
                           slot was pinned, or a proactive acquisition
                           skipped because the object's key was
                           evicted at section entry (DESIGN.md §11). *)
  sampling_skipped : bool;  (** Ever on the sampling fast path: left
                                unprotected at allocation, or drained
                                to the default key by an epoch
                                rotation (DESIGN.md §12) — faults the
                                full detector would have seen never
                                fired while the bit's condition
                                held. *)
}

val provenance : t -> obj_id:int -> provenance

val cs_entries : t -> int
(** Total critical-section entries observed (sampled or not) — the
    denominator of the detection-latency metric. *)

val first_race_cs : t -> int
(** [cs_entries] at the moment the first fresh race record was
    logged, or [-1] if the run logged none: the detection-latency
    measure of the sampling sweep (CS entries until first catch). *)

val vkey_stats : t -> Kard_mpk.Vkey.stats
(** Virtual-key cache counters (all zero in identity mode). *)

val assignable_keys : t -> int list
(** The keys effective assignment may hand out: physical data keys in
    identity mode, the virtual pool otherwise. *)

val expected_page_key : t -> key:int -> Kard_mpk.Pkey.t
(** The physical tag pages protected by [key] must carry right now
    (the key itself, its residency slot, or the evict tag) — the
    validator's page-table oracle. *)

val make :
  ?config:Config.t -> cell:t option ref -> Kard_sched.Hooks.env -> Kard_sched.Hooks.t
(** Convenience for {!Kard_sched.Machine.create}: builds the detector,
    stores it in [cell] for post-run inspection, returns its hooks. *)
