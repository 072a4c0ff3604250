type cls =
  | Grouping_over_report
  | Grouping_under_report
  | Timestamp_window
  | Key_sharing_miss
  | Recycling_miss
  | Interleave_prune
  | Demotion_miss
  | Ro_shadow_miss
  | Ro_fault_blame
  | Proactive_hold_blame
  | Hb_extra_ilu
  | Hb_extra_unlocked
  | Ilu_not_hb
  | Lockset_over_report
  | Lockset_shared_read_miss
  | Lockset_init_miss
  | Vkey_eviction_blame
  | Sampling_missed_race
  | Batch_divergence
  | Replay_divergence
  | Unexpected

let all =
  [
    Grouping_over_report;
    Grouping_under_report;
    Timestamp_window;
    Key_sharing_miss;
    Recycling_miss;
    Interleave_prune;
    Demotion_miss;
    Ro_shadow_miss;
    Ro_fault_blame;
    Proactive_hold_blame;
    Hb_extra_ilu;
    Hb_extra_unlocked;
    Ilu_not_hb;
    Lockset_over_report;
    Lockset_shared_read_miss;
    Lockset_init_miss;
    Vkey_eviction_blame;
    Sampling_missed_race;
    Batch_divergence;
    Replay_divergence;
    Unexpected;
  ]

let name = function
  | Grouping_over_report -> "grouping-over-report"
  | Grouping_under_report -> "grouping-under-report"
  | Timestamp_window -> "timestamp-window"
  | Key_sharing_miss -> "key-sharing-miss"
  | Recycling_miss -> "recycling-miss"
  | Interleave_prune -> "interleave-prune"
  | Demotion_miss -> "demotion-miss"
  | Ro_shadow_miss -> "ro-reader-shadow"
  | Ro_fault_blame -> "ro-fault-time-blame"
  | Proactive_hold_blame -> "proactive-hold-blame"
  | Hb_extra_ilu -> "hb-extra-ilu"
  | Hb_extra_unlocked -> "hb-extra-unlocked"
  | Ilu_not_hb -> "ilu-not-hb"
  | Lockset_over_report -> "lockset-over-report"
  | Lockset_shared_read_miss -> "lockset-shared-read-miss"
  | Lockset_init_miss -> "lockset-init-miss"
  | Vkey_eviction_blame -> "vkey-eviction-blame"
  | Sampling_missed_race -> "sampling-missed-race"
  | Batch_divergence -> "batch-divergence"
  | Replay_divergence -> "replay-divergence"
  | Unexpected -> "unexpected"

let of_name s = List.find_opt (fun c -> String.equal (name c) s) all

let describe = function
  | Grouping_over_report ->
      "Kard over-reports: the object shared a physical key with others, so a \
       group-key fault blamed a holder that held nothing for this object"
  | Grouping_under_report ->
      "Kard under-reports: the thread already held the object's group key for \
       another object, so the per-object acquisition never faulted"
  | Timestamp_window ->
      "Kard over-reports: the conflicting key was released inside the \
       fault-to-handler window and the release-timestamp check rescued the \
       record"
  | Key_sharing_miss ->
      "Kard under-reports: key exhaustion shared a held key, so the \
       conflicting access did not fault (Table 4 false negative)"
  | Recycling_miss ->
      "Kard under-reports: the object's key was recycled mid-conflict and the \
       object demoted to the read-only domain, dropping holder state"
  | Interleave_prune ->
      "Kard under-reports: protection interleaving judged the race record \
       spurious and removed it"
  | Demotion_miss ->
      "Kard under-reports: the object was demoted to Not-accessed \
       mid-conflict (keyless access or interleaving wind-down), dropping its \
       key state"
  | Ro_shadow_miss ->
      "Kard under-reports: reads on the Read-only domain never fault, so \
       later reader sections are invisible to the section-object map"
  | Ro_fault_blame ->
      "Kard extra report: a write fault on the key-less Read-only domain \
       blames active reader sections via the fault-time section-object map, \
       beyond Algorithm 1's acquisition-time key semantics"
  | Proactive_hold_blame ->
      "Kard extra report: the record blames a hold formed by the proactive \
       section-entry walk that Algorithm 1 never grants — either a contested \
       write-need downgraded to a read hold (the algorithm skips unacquirable \
       keys outright), or a re-entry reclaimed a key the algorithm still \
       shows held because a nested exit dropped the runtime's outer hold"
  | Hb_extra_ilu ->
      "HB-only race between lock-protected accesses: the critical sections \
       never overlapped in this schedule, so no key was held at access time"
  | Hb_extra_unlocked ->
      "HB-only race with no lock held on either side: outside Kard's ILU scope"
  | Ilu_not_hb ->
      "ILU potential race whose two sides happen to be happens-before ordered \
       in this schedule"
  | Lockset_over_report ->
      "Lockset-only warning: Eraser ignores whether the conflicting accesses \
       can actually be concurrent"
  | Lockset_shared_read_miss ->
      "Lockset miss: Eraser's state machine only warns in Shared-modified, so \
       writer-then-concurrent-readers races stay silent"
  | Lockset_init_miss ->
      "Lockset miss: the initialization heuristic exempts Virgin/Exclusive \
       accesses from refinement, hiding races against the first owner"
  | Vkey_eviction_blame ->
      "Kard diverges inside a vkey-cache miss window: every residency slot \
       was pinned so an access was emulated unprotected (missed fault), or a \
       proactive acquisition was skipped because the object's virtual key was \
       evicted at section entry — Algorithm 1 has no cache and no such window"
  | Sampling_missed_race ->
      "Kard under-reports by design: the sampling policy left the object (or \
       the racing section) unprotected this epoch, so the conflicting access \
       never faulted — the HardRace trade: detection latency, never soundness"
  | Batch_divergence ->
      "the batch gate diverged: the compiled and the Thunks interpreters \
       produced different reports or race-record lists for the same program, \
       seed and configuration, though they must be observationally identical: \
       real bug"
  | Replay_divergence ->
      "record/replay broke: re-executing the run from its nondeterminism log \
       produced a different report or race-record list, the log failed its \
       encode/decode round trip, or the replay tape did not match — breaching \
       the replay layer's determinism contract (DESIGN.md section 13): real bug"
  | Unexpected -> "no documented mechanism explains the disagreement: real bug"

let expected = function
  | Batch_divergence | Replay_divergence | Unexpected -> false
  | _ -> true

let index c =
  let rec go i = function
    | [] -> assert false
    | x :: tl -> if x == c then i else go (i + 1) tl
  in
  go 0 all

let compare a b = Int.compare (index a) (index b)
let equal a b = compare a b = 0
let pp fmt c = Format.pp_print_string fmt (name c)
