(** The single home of the run defaults that every layer above the
    runner shares.

    Before this module existed, scale 0.01 / seed 42 / seeds 1..20
    were re-stated independently by [Runner], [Explorer], the bench
    driver and the CLI, and could silently drift apart.  Plan-builders
    ({!Experiments}, {!Explorer}), the executables and the docs all
    read the values from here. *)

val scale : float
(** Default workload scale factor: [0.01] (1/100 of the paper's
    iteration and mass-object counts; see DESIGN.md on scaling). *)

val seed : int
(** Default scheduler seed: [42]. *)

val table_threads : int
(** Default thread count for Table 3-style experiments: [4]. *)

val explorer_scale : float
(** Default scale for full-workload seed sweeps: [0.005]. *)

val explorer_seeds : int list
(** The canonical schedule-exploration sweep: seeds [1..20]. *)

val throughput_scale : float
(** Default scale of the tracked throughput benchmark: [0.05]. *)

val serve_scale : float
(** Default scale of the serve sweep: [0.05] (1000 requests per
    sweep point at the full-size request count of 20000). *)

val serve_slo : int
(** Default latency SLO for goodput: p99 <= [200_000] simulated
    cycles, roughly 3x the unloaded median nginx service latency. *)

val throughput_out : string
(** Tracked output of [kard bench -e throughput]: ["BENCH_pr4.json"]. *)

val parallel_out : string
(** Tracked output of [kard bench -e parallel]: ["BENCH_pr3.json"]. *)

val serve_out : string
(** Tracked output of [kard bench -e serve] and [kard serve-sweep]:
    ["BENCH_pr6.json"]. *)

val keys_out : string
(** Tracked output of [kard bench -e keys] (the key-pressure sweep):
    ["BENCH_pr8.json"]. *)

val sampling_out : string
(** Tracked output of [kard bench -e sampling] (the sampling sweep:
    detection probability / latency vs rate, plus sampled-kard serve
    goodput): ["BENCH_pr9.json"]. *)

val record_out : string
(** Tracked output of [kard bench --only record] (recording overhead
    and log bytes/step of the record/replay layer):
    ["BENCH_pr10.json"].  CLI help strings must render this value —
    not a hardcoded filename — so the tracked name can move without
    leaving stale references. *)

val jobs_env : string
(** Name of the environment variable overriding the worker count:
    ["KARD_JOBS"]. *)

val jobs : unit -> int
(** Worker-domain count for plan execution: [$KARD_JOBS] when set,
    otherwise [Domain.recommended_domain_count ()].  Like every
    override here, a variable that is unset or blank means "no
    override", and anything else must parse.
    @raise Failure naming the variable and its value when the override
    is not a positive integer. *)

val vkeys_env : string
(** Name of the environment variable overriding the virtual-key pool
    size: ["KARD_VKEYS"]. *)

val vkeys : unit -> int
(** Virtual-key pool for default-config Kard runs: [$KARD_VKEYS] when
    set, otherwise [0] (identity mode — byte-identical to the pre-vkey
    detector).
    @raise Failure naming the variable and its value when the override
    is not a non-negative integer. *)

val sampling_env : string
(** Name of the environment variable overriding the sampling rate:
    ["KARD_SAMPLING"]. *)

val sampling : unit -> float
(** Sampling rate for default-config Kard runs: [$KARD_SAMPLING] when
    set, otherwise [1.0] (full Kard — byte-identical to the unsampled
    detector).
    @raise Failure naming the variable and its value when the override
    is not a float in (0, 1]; it is never clamped. *)

val kard_config : unit -> Kard_core.Config.t
(** [Config.default] with {!vkeys} and {!sampling} applied — what
    every "default kard" surface (CLI, bench driver, test harness)
    should construct, so the whole suite can be swept under virtual
    keys or a sampling rate from the environment. *)
