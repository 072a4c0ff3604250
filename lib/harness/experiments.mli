(** Drivers that regenerate every table and figure of the paper's
    evaluation (section 7).

    Every experiment is a {e plan-builder}: [<name>_plan] describes the
    runs as a {!Pool.plan} — a list of pure-data {!Job.t}s plus a merge
    that reassembles rows in submission order — and the [<name> ?jobs]
    executor runs it on the Domain pool.  Because each job is a pure
    function of its inputs and rows are merged in submission order,
    [~jobs:1] and [~jobs:N] produce identical tables (DESIGN.md §7);
    the test suite asserts this.  Each experiment returns structured
    data (so tests can assert on shapes) and has a printer that renders
    a paper-style table. *)

(** {1 Table 3: performance, memory and dTLB overheads} *)

type t3_row = {
  spec : Spec_alias.t;
  base : Runner.result;
  alloc : Runner.result;
  kard : Runner.result;
  tsan : Runner.result;
}

val table3_plan :
  ?threads:int -> ?scale:float -> ?specs:Spec_alias.t list -> unit -> t3_row list Pool.plan

val table3 :
  ?jobs:int -> ?threads:int -> ?scale:float -> ?specs:Spec_alias.t list -> unit -> t3_row list

val print_table3 : t3_row list -> unit

val t3_kard_pct : t3_row -> float
val t3_alloc_pct : t3_row -> float
val t3_tsan_pct : t3_row -> float
val t3_rss_pct : t3_row -> float

(** {1 Table 1 + Figure 1: ILU scope} *)

type scenario_row = {
  scenario : Kard_workloads.Race_suite.t;
  kard_ilu : int;
  tsan : int;
  lockset : int;
  kard_ok : bool;
  tsan_ok : bool;
  lockset_ok : bool;
}

val scenarios_plan : ?names:string list -> ?seed:int -> unit -> scenario_row list Pool.plan
val scenarios : ?jobs:int -> ?names:string list -> ?seed:int -> unit -> scenario_row list
val print_scenarios : scenario_row list -> unit

(** {1 Table 5: memcached key recycling and sharing vs threads} *)

type t5_row = {
  t5_threads : int;
  total_cs : int;
  unique_cs : int;
  max_concurrent : int;
  recycling : int;
  sharing : int;
}

val table5_plan :
  ?data_keys:int -> ?threads_list:int list -> ?scale:float -> unit -> t5_row list Pool.plan

val table5 :
  ?jobs:int -> ?data_keys:int -> ?threads_list:int list -> ?scale:float -> unit -> t5_row list
(** [data_keys] defaults to the full 13.  A scaled run holds a
    proportionally smaller live key working set than the full 162k
    request run, so the key-pressure dynamics of the paper's Table 5
    are reproduced by scaling the key budget alongside (see
    EXPERIMENTS.md); the printer emits both views. *)

val print_table5 : t5_row list -> unit

(** {1 Table 6: real-world data races} *)

type t6_row = {
  app : string;
  kard_races : int;      (** Surviving Kard records (ILU scope). *)
  tsan_ilu : int;
  tsan_non_ilu : int;
  paper_kard : int;
  paper_tsan_ilu : int;
  paper_tsan_non_ilu : int;
}

val table6_plan : ?scale:float -> unit -> t6_row list Pool.plan
val table6 : ?jobs:int -> ?scale:float -> unit -> t6_row list
val print_table6 : t6_row list -> unit

(** {1 Figure 5: scalability} *)

type f5_row = {
  f5_name : string;
  by_threads : (int * float) list; (** thread count, Kard overhead %. *)
}

val figure5_plan :
  ?threads_list:int list -> ?scale:float -> ?specs:Spec_alias.t list -> unit ->
  f5_row list Pool.plan

val figure5 :
  ?jobs:int -> ?threads_list:int list -> ?scale:float -> ?specs:Spec_alias.t list -> unit ->
  f5_row list

val print_figure5 : f5_row list -> unit

(** {1 NGINX file-size sweep (section 7.2)} *)

type nginx_row = { file_kb : int; kard_pct : float }

val nginx_sweep_plan : ?sizes:int list -> ?scale:float -> unit -> nginx_row list Pool.plan
val nginx_sweep : ?jobs:int -> ?sizes:int list -> ?scale:float -> unit -> nginx_row list
val print_nginx_sweep : nginx_row list -> unit

(** {1 Figure 2: consolidated unique page allocation} *)

type f2_stats = {
  objects : int;
  object_bytes : int;
  virtual_pages : int;
  physical_pages : int;
  file_bytes : int;
}

val figure2 : ?objects:int -> ?object_bytes:int -> unit -> f2_stats
val print_figure2 : f2_stats -> unit

(** {1 Memory consumption breakdown (section 7.5)} *)

type mem_row = {
  mem_name : string;
  base_rss : int;
  kard_rss : int;
  kard_data : int;        (** Resident data pages (per-mapping). *)
  kard_page_tables : int;
  kard_metadata : int;    (** Detector + allocator metadata. *)
  wasted : int;           (** Granule-rounding waste (32 B slots). *)
}

val memory_plan :
  ?threads:int -> ?scale:float -> ?specs:Spec_alias.t list -> unit -> mem_row list Pool.plan

val memory :
  ?jobs:int -> ?threads:int -> ?scale:float -> ?specs:Spec_alias.t list -> unit -> mem_row list

val print_memory : mem_row list -> unit

(** {1 Ablation: the design choices DESIGN.md calls out} *)

type ablation_row = {
  ab_label : string;       (** Config variant (e.g. "no proactive acquisition"). *)
  ab_pct : float;          (** Overhead vs the shared baseline run. *)
  ab_records : int;        (** Surviving race records. *)
  ab_recycling : int;
  ab_sharing : int;
}

val ablation_variants : (string * Kard_core.Config.t) list
(** The labelled configuration variants the ablation sweeps, default
    first. *)

val ablation_plan : ?scale:float -> unit -> ablation_row list Pool.plan
val ablation : ?jobs:int -> ?scale:float -> unit -> ablation_row list
(** memcached under every {!ablation_variants} configuration, one row
    per variant, all against a single shared baseline run. *)

val print_ablation : ablation_row list -> unit

(** {1 Simulator throughput (tracked in BENCH_pr4.json)} *)

type tp_row = {
  tp_threads : int;
  tp_detector : string;
  tp_steps : int;          (** Simulated operations executed. *)
  tp_sim_cycles : int;     (** Simulated cycles (schedule-determined). *)
  tp_host_seconds : float; (** Wall-clock time of the host process. *)
  tp_ops_per_sec : float;  (** [tp_steps / tp_host_seconds]. *)
  tp_minor_words : float;    (** [Gc.quick_stat] minor_words delta of the run. *)
  tp_promoted_words : float; (** promoted_words delta of the run. *)
  tp_minor_words_per_step : float;
      (** [tp_minor_words / tp_steps]: the allocation-rate tracker
          behind the per-step allocation contract (DESIGN.md §8). *)
}

val throughput :
  ?spec:Spec_alias.t ->
  ?threads_list:int list ->
  ?scale:float ->
  ?seed:int ->
  unit ->
  tp_row list
(** Host throughput of the simulator itself: steps per wall-clock
    second for a Baseline and a Kard run of [spec] (default memcached,
    {!Defaults.throughput_scale}, threads 1–64).  This is the hot-loop
    regression tracker — simulated cycle outputs are
    schedule-determined and must not move, but ops/s measures the
    scheduler + MPK fast paths.  One warm-up run precedes the sweep.
    Deliberately {e not} a plan: each cell is wall-clock timed, so
    cells must not compete for host cores. *)

val print_throughput : tp_row list -> unit

(** {1 Parallel executor benchmark (tracked in BENCH_pr3.json)} *)

type parallel_bench = {
  pb_jobs : int;              (** Worker count of the parallel pass. *)
  pb_host_cores : int;        (** [Domain.recommended_domain_count ()]. *)
  pb_job_count : int;
  pb_serial_seconds : float;  (** Wall-clock of the [~jobs:1] pass. *)
  pb_parallel_seconds : float;
  pb_speedup : float;         (** serial / parallel. *)
  pb_sim_cycles : int;        (** Summed simulated cycles (must not move). *)
  pb_identical : bool;        (** Structural equality of both result lists. *)
  pb_minor_words : float;     (** minor_words delta of the serial pass. *)
  pb_promoted_words : float;  (** promoted_words delta of the serial pass. *)
  pb_minor_words_per_step : float;
      (** Serial-pass minor words per simulated step (per-domain GC
          counters make the parallel pass unmeasurable from here). *)
}

val parallel_bench : ?jobs:int -> ?scale:float -> unit -> parallel_bench
(** Execute the Table 3 job list twice — serially and on [jobs]
    workers — and compare wall-clock and outputs.  [pb_identical] is
    the pool's determinism contract measured end-to-end; [pb_speedup]
    only materialises on multi-core hosts ([pb_host_cores] makes the
    recorded number self-describing). *)

val print_parallel_bench : parallel_bench -> unit

(** {1 Open-loop serve sweep (tracked in BENCH_pr6.json)} *)

type serve_row = {
  sv_detector : string;     (** Detector label ("none", "kard", "tsan"). *)
  sv_rate : float;          (** Offered load, requests per Mcycle. *)
  sv_requests : int;        (** Requests served (all arrivals drain). *)
  sv_cycles : int;          (** Aggregate simulated cycles of the run. *)
  sv_achieved : float;      (** Served requests per Mcycle of the run. *)
  sv_latency : Kard_obs.Window.row;
      (** Whole-run latency percentiles (arrival to completion). *)
  sv_snapshot : Kard_obs.Snapshot.t;
      (** The run's full metrics snapshot, windowed histograms
          included — pure data, safe to compare across [--jobs]. *)
}

type serve_sweep = {
  ss_server : string;
  ss_model : string;
  ss_slo : int;             (** p99 latency budget, simulated cycles. *)
  ss_threads : int;
  ss_rows : serve_row list; (** Detector-major, offered-rate-minor. *)
  ss_goodput : (string * float) list;
      (** Per detector: the highest swept rate whose p99 meets the
          SLO; [0.] when every rate misses. *)
}

val serve_detectors : (string * Runner.detector) list
(** The production question's contestants: no detection ("none"),
    Kard, and TSan as the instrumentation-based reference. *)

val default_serve_rates : float list

val serve_goodput : slo:int -> serve_row list -> (string * float) list

val serve_plan :
  ?server:Kard_workloads.Openloop.server ->
  ?model:Kard_workloads.Openloop.arrival ->
  ?detectors:(string * Runner.detector) list ->
  ?rates:float list ->
  ?threads:int ->
  ?scale:float ->
  ?seed:int ->
  ?slo:int ->
  unit ->
  serve_sweep Pool.plan
(** One traced job per (detector, offered rate); the merge computes
    latency percentiles from each run's [serve.latency_cycles]
    windowed histogram and goodput-under-SLO per detector.  Every
    sweep point replays the identical arrival timetable (a pure
    function of [(seed, rate)]), so detectors are compared under the
    same offered load. *)

val serve :
  ?jobs:int ->
  ?server:Kard_workloads.Openloop.server ->
  ?model:Kard_workloads.Openloop.arrival ->
  ?detectors:(string * Runner.detector) list ->
  ?rates:float list ->
  ?threads:int ->
  ?scale:float ->
  ?seed:int ->
  ?slo:int ->
  unit ->
  serve_sweep

val print_serve : serve_sweep -> unit

(** {1 Key-pressure precision sweep (tracked in BENCH_pr8.json)} *)

type keys_row = {
  kp_point : string;       (** Sweep point label ("10k", "100k"). *)
  kp_mode : string;        (** Detector config label ("phys-13", "vkeys-13", ...). *)
  kp_objects : int;        (** Effective (scaled) object population. *)
  kp_sections : int;       (** Distinct critical sections of the point. *)
  kp_data_keys : int;      (** Physical data-key budget of the row. *)
  kp_vkeys : int;          (** Virtual pool size; 0 = identity mode. *)
  kp_planted : int;        (** Wrong-lock writes planted by the workload. *)
  kp_detected : int;       (** Surviving Kard race records. *)
  kp_detected_objects : int; (** Distinct objects among the records. *)
  kp_cycles : int;         (** Simulated cycles of the Kard run. *)
  kp_overhead_pct : float; (** vs the point's shared baseline run. *)
  kp_sharing : int;
  kp_recycling : int;
  kp_vkey_evictions : int;
  kp_vkey_loads : int;
  kp_vkey_retag_pages : int;
  kp_vkey_stalls : int;
}

type keys_bench = {
  kp_threads : int;
  kp_scale : float;
  kp_seed : int;
  kp_rows : keys_row list; (** Point-major, config-minor. *)
}

val default_keys_points : (string * Kard_workloads.Keypressure.profile) list
(** The 10k- and 100k-object points of the {!Kard_workloads.Keypressure}
    family (the 1M point is reachable via [?points] but too slow for the
    tracked bench). *)

val default_keys_data_keys : int list
(** Physical-key ablation budgets: [[4; 8; 13]]. *)

val default_keys_pool : int -> int
(** Default virtual pool for a point: twice its section count, i.e.
    comfortably past the active set so precision isolates association
    lifetime rather than pool sizing. *)

val keys_plan :
  ?points:(string * Kard_workloads.Keypressure.profile) list ->
  ?data_keys:int list ->
  ?pool:int ->
  ?threads:int ->
  ?scale:float ->
  ?seed:int ->
  unit ->
  keys_bench Pool.plan
(** Per point: one baseline job (the overhead denominator) plus, for
    each physical budget in [data_keys], a physical-detector row and a
    virtualized row ([vkeys] = pool).  Precision is [kp_detected] over
    [kp_planted]: the physical rows lose plants to association churn
    (key recycling demotes the victim object before the wrong-lock
    write lands), the vkey rows keep every lock association alive for
    the whole run (DESIGN.md §11). *)

val keys :
  ?jobs:int ->
  ?points:(string * Kard_workloads.Keypressure.profile) list ->
  ?data_keys:int list ->
  ?pool:int ->
  ?threads:int ->
  ?scale:float ->
  ?seed:int ->
  unit ->
  keys_bench

val print_keys_bench : keys_bench -> unit

(** {1 Sampling sweep (tracked in BENCH_pr9.json)} *)

type sampling_row = {
  sp_subject : string;      (** Race scenario or key-pressure point. *)
  sp_rate : float;          (** [Config.sampling] of the row's runs. *)
  sp_runs : int;            (** Seeds swept. *)
  sp_detected : int;        (** Runs with >= 1 surviving race record. *)
  sp_detection_pct : float;
  sp_subset_ok : bool;
      (** Every run's race-object set was a subset of the same seed's
          rate-1.0 set: sampling delayed or missed, never invented.
          Asserted on the pinned-schedule scenario subjects only —
          open-schedule subjects (keypressure) reschedule under
          sampling's different charges, so cross-run containment is
          undefined and the flag is vacuously [true] there (the fuzz
          taxonomy covers those via same-execution oracles). *)
  sp_latency_min : int;     (** Detection latency — critical-section
                                entries until the first fresh race
                                record — over the detecting runs;
                                [-1] when none detected. *)
  sp_latency_p50 : int;
  sp_latency_max : int;
  sp_mean_cs_entries : float;  (** Mean CS entries per run (the
                                   latency denominator's scale). *)
  sp_sampled_sections : int;   (** Aggregate over the row's runs. *)
  sp_skipped_sections : int;
  sp_skipped_accesses : int;
  sp_mean_cycles : float;
}

type sampling_bench = {
  sp_epoch : int;           (** [Config.sampling_epoch] of the sweep. *)
  sp_seeds : int list;
  sp_rates : float list;
  sp_rows : sampling_row list;  (** Subject-major, rate-minor. *)
  sp_serve : serve_sweep;
      (** The open-loop nginx sweep rerun with sampled-kard detectors
          ("kard-s10"/"kard-s25"/"kard-s50") next to "none" and the
          full "kard" — the goodput-under-SLO recovery claim. *)
}

val default_sampling_rates : float list
(** [[0.1; 0.25; 0.5; 1.0]] — 1.0 is the full-Kard reference the
    subset check compares against. *)

val default_sampling_scenarios : string list
(** Race-suite subjects with reliable full-rate detection across the
    seed sweep, so the rate column is what moves probability. *)

val default_serve_sampling_rates : float list
(** [[0.1; 0.25; 0.5]] — the sampled-kard serve contestants. *)

val default_sampling_epoch : int
(** [100_000] simulated cycles per sampling epoch. *)

val serve_sampling_detectors : float list -> (string * Runner.detector) list
(** ["none"], full ["kard"], then one ["kard-sNN"] per rate. *)

val sampling_plan :
  ?scenarios:string list ->
  ?rates:float list ->
  ?epoch:int ->
  ?seeds:int list ->
  ?serve_rates:float list ->
  ?scale:float ->
  ?slo:int ->
  unit ->
  sampling_bench Pool.plan
(** One Kard run per (subject, rate, seed), plus the serve sweep's
    jobs; the merge aggregates detection probability, the
    detection-latency distribution and the subset check per row.
    [scale] (default 0.1) applies to the key-pressure subject only —
    scenarios always run at full scale. *)

val sampling :
  ?jobs:int ->
  ?scenarios:string list ->
  ?rates:float list ->
  ?epoch:int ->
  ?seeds:int list ->
  ?serve_rates:float list ->
  ?scale:float ->
  ?slo:int ->
  unit ->
  sampling_bench

val print_sampling : sampling_bench -> unit

(** {1 Record/replay overhead (BENCH_pr10.json)} *)

type record_row = {
  rc_subject : string;          (** Target name as resolved by {!Record.find_subject}. *)
  rc_detector : string;
  rc_steps : int;               (** Machine steps of the recorded run. *)
  rc_sim_cycles : int;
  rc_sim_overhead_cycles : int;
      (** Recorded-run cycles minus plain-run cycles.  The recorder
          charges nothing, so the contract — and what the tracked file
          proves — is that this is exactly [0]. *)
  rc_plain_seconds : float;     (** Host wall-clock of the unrecorded run. *)
  rc_recorded_seconds : float;  (** Host wall-clock with the recorder wrapped in. *)
  rc_host_overhead_pct : float; (** Recording's host-time cost in percent. *)
  rc_log_bytes : int;           (** Size of the encoded log. *)
  rc_bytes_per_step : float;
      (** [rc_log_bytes / rc_steps] — against the DESIGN.md §13 budget
          of ~1 byte per step plus ~3 per lock grant. *)
  rc_picks : int;
  rc_grants : int;
  rc_replay_identical : bool;
      (** Strict replay of the log reproduced the recorded result
          (report, races, warnings) and passed the tape-fidelity
          check. *)
}

type record_bench = {
  rc_scale : float;
  rc_seed : int;
  rc_rows : record_row list;
}

val default_record_subjects : unit -> (string * Runner.detector) list
(** memcached under baseline and kard, aget, the keys-10k key-pressure
    workload, and the ilu-lock-lock scenario — a function because the
    kard config reads [$KARD_VKEYS]/[$KARD_SAMPLING]. *)

val record_bench :
  ?subjects:(string * Runner.detector) list ->
  ?scale:float -> ?seed:int -> unit -> record_bench
(** Deliberately serial (wall-clock timed cells), like {!throughput}. *)

val print_record : record_bench -> unit

(** {1 MPK microbenchmarks (section 2.2)} *)

val print_micro : unit -> unit
