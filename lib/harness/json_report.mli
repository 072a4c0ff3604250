(** Machine-readable run reports.

    A minimal hand-rolled JSON emitter (the project takes no
    dependencies beyond the test/bench stack) for integrating the
    detector into scripts and CI: race records with both sides, the
    run's cost counters, and the detector's event statistics. *)

val escape : string -> string
(** JSON string-escape (quotes, backslashes, control characters). *)

val of_race : Kard_core.Race_record.t -> string

val of_metrics : Kard_obs.Metrics.t -> string
(** Counters plus histogram summaries (count, total, min, max, mean
    and the p50/p95/p99/p99.9 percentiles), keyed by metric name. *)

val of_snapshot : Kard_obs.Snapshot.t -> string
(** A pure-data metrics snapshot: counters, histogram summaries and
    windowed histograms (per-window percentile rows plus the overall
    row), keyed by metric name. *)

val of_result : Runner.result -> string
(** The full run: workload, detector, cycle/RSS/dTLB counters, races,
    (for Kard runs) the detector statistics, and (for traced runs) the
    trace summary and metrics registry. *)

val of_serve_sweep :
  threads:int -> scale:float -> seed:int -> Experiments.serve_sweep -> string
(** The tracked serve sweep (see BENCH_pr6.json): per (detector,
    offered rate) the latency percentiles (p50/p95/p99/p99.9/max in
    simulated cycles), achieved throughput and full metrics snapshot,
    plus the computed goodput-under-SLO per detector.  Built from
    pure-data snapshots, so the emitted bytes are identical at any
    [--jobs] value. *)

val of_keys_bench : Experiments.keys_bench -> string
(** The tracked key-pressure precision sweep (see BENCH_pr8.json):
    per (point, detector config) the planted / detected counts and
    their ratio, the overhead against the point's baseline, and the
    key-management counters (sharing, recycling, vkey cache traffic).
    Simulation outputs only, so the bytes do not depend on the dune
    profile or [--jobs]. *)

val of_sampling_bench :
  threads:int ->
  scale:float ->
  seed:int ->
  Experiments.sampling_bench ->
  string
(** The tracked sampling sweep (see BENCH_pr9.json): per (subject,
    rate) the detection probability, the detection-latency
    distribution in critical-section entries, the subset check against
    the same-seed rate-1.0 runs and the fast-path counters; plus the
    embedded ["serve"] sweep with sampled-kard detectors — the
    goodput-under-SLO recovery claim.  [threads]/[scale]/[seed]
    describe the serve section.  Like {!of_keys_bench}, independent of
    the dune profile. *)

val pretty : string -> string
(** Re-indent a JSON string (objects and arrays, 2 spaces). *)
