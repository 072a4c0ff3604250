(** The expected-divergence taxonomy: every way the four race oracles
    (the Kard runtime, pure Algorithm 1, a happens-before replay and
    an Eraser lockset replay) are {e allowed} to disagree on one
    object of one execution.

    The differential fuzzing subsystem ([lib/fuzz]) runs random
    programs under the MPK-driven runtime, replays the recorded event
    trace through the three reference oracles, and classifies every
    per-object disagreement against this list.  A disagreement that
    matches no class is an {!Unexpected} divergence — a real bug in
    one of the four implementations — and fails the campaign.

    The classes are not heuristics: each names a mechanism the paper
    itself documents (key grouping in section 5.4, the release window
    and protection interleaving in section 5.5, key sharing in Table
    4, the ILU scope boundary in section 3), and the runtime exports
    per-object provenance ({!Detector.provenance}) so the classifier
    demands evidence that the mechanism actually fired on that object
    in that run before accepting the explanation. *)

type cls =
  | Grouping_over_report
      (** Kard flags an object Algorithm 1 does not: 13 physical keys
          multiplex many objects (rules 1-3 of effective key
          assignment), so a fault against a group key can blame a
          holder that, per-object, held nothing.  Metadata pruning
          (section 5.5) removes most of these; the survivors — a
          holder whose section genuinely touches the faulted object —
          are the documented over-approximation.  Evidence: the
          object shared its key with another object. *)
  | Grouping_under_report
      (** Algorithm 1 flags an object Kard misses: an access to an
          object whose group key the thread already held (for a
          different object) raises no fault, so the acquisition that
          Algorithm 1 records per-object is invisible to the runtime
          — and metadata pruning then filters the holder at the next
          conflict.  Evidence: the object shared its key with another
          object. *)
  | Timestamp_window
      (** Kard flags an object Algorithm 1 does not: the conflicting
          key was released between the #GP firing and the handler
          running, and the release-window check of section 5.5
          attributed the race to the recent releaser.  In the
          linearized event trace the release precedes the access, so
          the idealized algorithm sees no overlap.  Evidence: the
          object is in the detector's timestamp-rescue log. *)
  | Key_sharing_miss
      (** Algorithm 1 flags an object Kard misses: key assignment ran
          out of keys and shared a held key (rule 3b), so the
          conflicting access did not fault — the Table 4 false
          negative.  Evidence: the object was involved in a sharing
          decision. *)
  | Recycling_miss
      (** Algorithm 1 flags an object Kard misses: the object's key
          was recycled for another object and the object demoted to
          the Read-only domain mid-conflict, dropping the holder
          state a later fault would have tested.  Evidence: the
          object was demoted by a recycling decision. *)
  | Interleave_prune
      (** Algorithm 1 flags an object Kard misses: protection
          interleaving (section 5.5, figure 4) judged the record
          spurious — by design when the two sides touch different
          offsets, and unavoidably when the interleaving window
          closed before the second side re-accessed.  Evidence: a
          record for the object was removed as spurious. *)
  | Demotion_miss
      (** Algorithm 1 flags an object Kard misses: the object was
          bounced back to the Not-accessed domain mid-conflict — by a
          keyless (out-of-section) access or an interleaving
          wind-down — so the per-object key state a later fault would
          have tested was gone and the conflicting access
          re-identified the object instead of racing.  Evidence: the
          object was demoted to Not-accessed during the run. *)
  | Ro_shadow_miss
      (** Algorithm 1 flags an object Kard misses: reads on the
          Read-only domain never fault ([k_ro] is universal), so any
          reader section after the identifying one is invisible to
          the section-object map and a conflicting write cannot find
          it among the active readers.  Evidence: the object was
          identified into the Read-only domain. *)
  | Ro_fault_blame
      (** Kard flags an object Algorithm 1 does not: the Read-only
          domain has no per-thread keys, so a write fault on it finds
          conflicts through the {e fault-time} section-object map —
          every thread currently executing a section recorded as a
          reader of the object is blamed, including activations that
          entered before the object joined the section's read set.
          Algorithm 1 acquires read keys only at enter/access time
          and cannot name these holders.  The blamed reader is often
          a stand-in for a real reader whose own access was invisible
          on [k_ro] (the flip side of {!Ro_shadow_miss}).  Evidence:
          the object has a race record from the Read-only fault
          path. *)
  | Proactive_hold_blame
      (** Kard flags an object Algorithm 1 does not: the race record
          blames a hold formed by the proactive section-entry walk
          that the algorithm never grants.  Two sub-causes observed:
          (a) the walk wanted the object's {e write} key while
          another thread held read permission, so it downgraded to a
          read hold (keeping conflicting writes observable) — the
          algorithm's proactive acquisition (line 4) takes only the
          {e acquirable} subset, skipping a contested write key
          outright; (b) a nested section upgraded and then, on inner
          exit, released the runtime's whole hold, so a re-entering
          thread proactively reclaimed a key the algorithm still
          shows held by the first thread (its saved-set exit keeps
          the outer read hold), making the reclaim contested and
          skipped there.  Either way the report is a true ILU pair:
          the blamed section accessed the object in an earlier
          activation under a different lock than the faulter.
          Evidence: a race record on the object blames a holder whose
          key came from proactive entry-time acquisition (never
          re-acquired by an access of that activation). *)
  | Hb_extra_ilu
      (** The happens-before replay flags a race between
          lock-protected accesses that Kard and Algorithm 1 miss:
          the conflicting critical sections never overlapped in this
          schedule (and no release window applied), so no key was
          held at access time.  Key-enforced detection is
          schedule-sensitive by design (section 3.1 discusses the
          "multiple runs" mitigation); HB is not, over one trace. *)
  | Hb_extra_unlocked
      (** The happens-before replay flags a race with no lock held on
          either side: outside Kard's ILU scope (Table 1, row
          none/none) and outside Algorithm 1, whose keys exist only
          inside critical sections. *)
  | Ilu_not_hb
      (** Kard and/or Algorithm 1 flag an object the happens-before
          replay does not: an ILU {e potential} race whose two sides
          happen to be ordered in this schedule (e.g. through another
          lock's release/acquire edge).  This is the paper's central
          semantic choice: a key held by an overlapping section
          flags the object even when this particular interleaving
          ordered the accesses. *)
  | Lockset_over_report
      (** The lockset replay warns about an object no other oracle
          flags: Eraser ignores whether conflicting accesses can
          actually be concurrent (fork-join phases, publication), the
          superset behaviour of section 3.1 / Table 2. *)
  | Lockset_shared_read_miss
      (** Another oracle flags an object the lockset replay does not:
          Eraser's state machine only warns in Shared-modified, so a
          single writer followed by concurrent readers (state Shared,
          or still Exclusive) races without an empty-lockset
          warning. *)
  | Lockset_init_miss
      (** Another oracle flags an object the lockset replay does not:
          Eraser's initialization heuristic exempts accesses made
          while the object is Virgin/Exclusive from lockset
          refinement, so a race against the first owner's unlocked
          accesses is missed.  Evidence: a strict replay that refines
          from the very first access does warn. *)
  | Vkey_eviction_blame
      (** Kard diverges from Algorithm 1 inside a {e vkey-cache miss
          window} (DESIGN.md §11).  Two sub-causes: (a) a miss found
          every physical residency slot pinned by running threads, so
          the access was emulated unprotected — a fault Algorithm 1
          (which has no cache) would have seen never fired; (b) the
          proactive section-entry walk skipped an object whose virtual
          key was not resident, so a hold the algorithm grants at
          entry formed late (at first access) or not at all.  Either
          direction is bounded by the cache's stall/eviction counters
          and disappears when the pool fits in the physical slots.
          Evidence: the object carries the [vkey_blamed] provenance
          bit. *)
  | Sampling_missed_race
      (** Algorithm 1 flags an object the sampled Kard misses: the
          sampling policy (DESIGN.md §12) left the object — or every
          section that would have blamed it — unprotected during the
          conflict, so no fault fired.  This is the HardRace trade
          made explicit: at rate < 1.0 the detector only ever
          {e removes} protection (unsampled pages keep the default
          key), so misses in this class are the designed cost of the
          near-zero fast path, and the sampled report set must remain
          a subset of full Kard's.  Only admissible while sampling is
          active; over-reports are {e never} explained by sampling. *)
  | Batch_divergence
      (** The batch gate diverged: the same program, seed and
          configuration on the compiled interpreter and on the
          [`Thunks] oracle interpreter, both without access hooks,
          produced different machine reports or race-record lists.
          The two interpreters must be observationally identical, so
          this class is never expected — it gates the compiled
          interpreter behind the fuzz campaign's oracle equivalence. *)
  | Replay_divergence
      (** Record/replay broke: re-executing a run from its recorded
          nondeterminism log (DESIGN.md §13) produced a different
          machine report or race-record list, the log failed its
          encode/decode round trip, or the replay tape itself did not
          match (a pick, grant or anchor diverged, or the tape was not
          fully consumed).  The log captures {e all} nondeterminism —
          schedule picks and lock-grant order — so replay admits no
          difference whatsoever; this class is never expected.  It
          gates the record/replay layer behind the fuzz campaign's
          oracle equivalence, exactly as {!Batch_divergence} gates the
          compiled interpreter. *)
  | Unexpected
      (** No documented mechanism explains the disagreement: a real
          bug in the runtime, an oracle, or the classifier. *)

val all : cls list
(** Every class, {!Unexpected} last. *)

val name : cls -> string
(** Stable kebab-case identifier (corpus file names, reports). *)

val of_name : string -> cls option

val describe : cls -> string
(** One-line human description. *)

val expected : cls -> bool
(** [true] for every class except {!Batch_divergence},
    {!Replay_divergence} and {!Unexpected}. *)

val compare : cls -> cls -> int
val equal : cls -> cls -> bool
val pp : Format.formatter -> cls -> unit
