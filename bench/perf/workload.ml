(* The five pinned workloads and the closed loop that times them.

   Every run passes an explicit [Config.t] and [~shards:1], so no
   $KARD_* variable can change what is measured.  A trial runs each of
   a workload's jobs once, in order, each starting after the previous
   one returned. *)

module Runner = Kard_harness.Runner
module Record = Kard_harness.Record
module Config = Kard_core.Config
module Machine = Kard_sched.Machine
module Race_suite = Kard_workloads.Race_suite
module Keypressure = Kard_workloads.Keypressure
module Log = Kard_replay.Log
module Recorder = Kard_replay.Recorder

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Full size is what the benchmark measures; the tests pass a tiny
   size through the same code. *)
type size = { scale : float; race_seeds : int }

let full = { scale = 1.0; race_seeds = 300 }

type job = {
  label : string;
  threads : int;
  scale : float;
  seed : int;
  config : Config.t;
  build : Machine.t -> unit;
  expect : Race_suite.expectation option;
}

type t = {
  name : string;
  jobs : job array;
  replay_under : Config.t option;
      (** Record every job, then encode, decode and replay the log under
          this detector. *)
  planted : int option;  (** Planted races, the precision denominator. *)
}

let spec_job ~threads ~scale ~seed ~config (spec : Kard_workloads.Spec.t) =
  { label = spec.Kard_workloads.Spec.name;
    threads;
    scale;
    seed;
    config;
    build = spec.Kard_workloads.Spec.build ~threads ~scale ~seed;
    expect = None }

let all ~seed (size : size) =
  let scale = size.scale in
  let memcached = Kard_workloads.Registry.find "memcached" in
  let one ?replay_under ?planted name job = { name; jobs = [| job |]; replay_under; planted } in
  let scenarios = Array.of_list Race_suite.all in
  let per_seed = Array.length scenarios in
  [ one Spec.memcached (spec_job ~threads:64 ~scale ~seed ~config:Config.default memcached);
    one Spec.convoy
      (spec_job ~threads:64 ~scale ~seed ~config:Config.default Kard_workloads.Contended.convoy);
    (* Two virtual keys per section, as in the key-pressure sweep. *)
    one Spec.keys
      ~planted:(Keypressure.planted Keypressure.default ~scale)
      (spec_job ~threads:8 ~scale ~seed
         ~config:{ Config.default with Config.vkeys = 192 }
         Keypressure.keys_10k);
    one Spec.record ~replay_under:Config.default
      (spec_job ~threads:64 ~scale ~seed
         ~config:{ Config.default with Config.sampling = 0.1 }
         memcached);
    { name = Spec.race_suite;
      jobs =
        Array.init (size.race_seeds * per_seed) (fun i ->
            let sc = scenarios.(i mod per_seed) in
            { label = sc.Race_suite.name;
              threads = sc.Race_suite.threads;
              scale = 1.0;
              seed = seed + (i / per_seed);
              config = sc.Race_suite.config;
              build = sc.Race_suite.build;
              expect = Some sc.Race_suite.expect_kard_ilu });
      replay_under = None;
      planted = None } ]

let find ~seed size name = List.find_opt (fun w -> w.name = name) (all ~seed size)

(* Each distinct configuration the workload runs, for provenance. *)
let configs w =
  Array.fold_left
    (fun acc j -> if List.mem_assoc j.label acc then acc else acc @ [ (j.label, j) ])
    [] w.jobs

(* {1 One run} *)

type replay = {
  log_bytes : int;
  encode_ns : int;  (** Taking the log off the recorder and encoding it. *)
  decode_ns : int;
  replay_ns : int;
  replayed : Runner.result;
  fidelity : (unit, string) result;
}

type run = {
  result : Runner.result;
  setup_ns : int;  (** [Machine.create] plus the workload's build. *)
  run_ns : int;  (** The whole simulated run, set-up included. *)
  replay : replay option;
}

let simulate ?wrap ~detector job =
  let t0 = now_ns () in
  let built = ref t0 in
  let build m =
    job.build m;
    built := now_ns ()
  in
  let result =
    Runner.run_build ?wrap ~shards:1 ~threads:job.threads ~scale:job.scale ~seed:job.seed ~detector
      build job.label
  in
  (result, !built - t0, now_ns () - t0)

exception Built of int

(* The set-up half of {!simulate} alone: the build closure stops the run
   before its first step. *)
let setup_only job =
  let t0 = now_ns () in
  match
    Runner.run_build ~shards:1 ~threads:job.threads ~scale:job.scale ~seed:job.seed
      ~detector:(Runner.Kard job.config)
      (fun m ->
        job.build m;
        raise (Built (now_ns () - t0)))
      job.label
  with
  | (_ : Runner.result) -> invalid_arg "setup_only: the build did not stop the run"
  | exception Built ns -> ns

(* A single-job trial sets up once, in a fraction of a millisecond, so
   it sets the job up this many times in all and counts the median. *)
let setup_samples = 16

(* [wrap] (the tracer) sits directly on the detector; the recorder, when
   there is one, wraps outside it, as [Record.record_build] places it. *)
let run ?wrap w job =
  let detector = Runner.Kard job.config in
  match w.replay_under with
  | None ->
    let result, setup_ns, run_ns = simulate ?wrap ~detector job in
    { result; setup_ns; run_ns; replay = None }
  | Some replay_config ->
    let recorder = Recorder.create () in
    let wrap env hooks =
      Recorder.wrap recorder env (match wrap with Some f -> f env hooks | None -> hooks)
    in
    let result, setup_ns, run_ns = simulate ~wrap ~detector job in
    let t0 = now_ns () in
    let header =
      Record.header ~detector ~target:("spec:" ^ job.label) ~threads:job.threads
        ~scale:job.scale ~seed:job.seed ~shards:1
    in
    let bytes = Log.encode (Recorder.log recorder ~header) in
    let t1 = now_ns () in
    let log = Log.decode bytes in
    let t2 = now_ns () in
    (match Record.replay ~shards:1 ~detector:(Runner.Kard replay_config) log with
     | Error e -> failwith e
     | Ok (replayed, fidelity) ->
       let t3 = now_ns () in
       { result;
         setup_ns;
         run_ns;
         replay =
           Some
             { log_bytes = String.length bytes;
               encode_ns = t1 - t0;
               decode_ns = t2 - t1;
               replay_ns = t3 - t2;
               replayed;
               fidelity } })

(* {1 Fingerprints and simulated counters} *)

(* Everything a run reports: the report (its pick sequence folded to
   one integer) and both race lists. *)
let fingerprint (r : Runner.result) =
  let h = ref 0 in
  Array.iter (fun tid -> h := (!h * 31) + tid) r.Runner.report.Machine.schedule_trace;
  Digest.string
    (Marshal.to_string
       ( { r.Runner.report with Machine.schedule_trace = [||] },
         !h,
         r.Runner.kard_races,
         r.Runner.kard_ilu_races )
       [ Marshal.No_sharing ])

let run_fingerprint run =
  match run.replay with
  | None -> fingerprint run.result
  | Some rp -> fingerprint run.result ^ fingerprint rp.replayed

(* Raw simulated counts, summed over a trial's runs; every exact metric
   derives from these. *)
let counter_names =
  [| "cycles"; "steps"; "rss_bytes"; "races"; "faults"; "wrpkru"; "dtlb_accesses";
     "dtlb_misses"; "cs_entries"; "contended_entries"; "vkey_hits"; "vkey_misses";
     "vkey_evictions"; "vkey_retag_pages"; "recycling"; "sharing"; "sampled_sections";
     "skipped_sections"; "skipped_accesses"; "records_logged"; "records_pruned" |]

let counter name =
  let rec find i = if counter_names.(i) = name then i else find (i + 1) in
  find 0

let counts (r : Runner.result) =
  let rep = r.Runner.report in
  let hw = rep.Machine.hw_stats in
  let d f = match r.Runner.kard_stats with Some s -> f s | None -> 0 in
  let open Kard_core.Detector in
  [| rep.Machine.cycles; rep.Machine.steps; rep.Machine.rss_bytes;
     List.length r.Runner.kard_races; hw.Kard_mpk.Mpk_hw.faults; hw.Kard_mpk.Mpk_hw.wrpkru_calls;
     rep.Machine.dtlb_accesses; rep.Machine.dtlb_misses; rep.Machine.cs_entries;
     rep.Machine.contended_entries; d (fun s -> s.vkey_hits); d (fun s -> s.vkey_misses);
     d (fun s -> s.vkey_evictions); d (fun s -> s.vkey_retag_pages);
     d (fun s -> s.recycling_events); d (fun s -> s.sharing_events);
     d (fun s -> s.sampled_sections); d (fun s -> s.skipped_sections);
     d (fun s -> s.skipped_accesses); d (fun s -> s.records_logged);
     d (fun s -> s.records_redundant + s.records_pruned_spurious) |]

let add_counts acc c = Array.iteri (fun i x -> acc.(i) <- acc.(i) + x) c

(* {1 Trials} *)

type trial = {
  runs : int;
  raised : string list;  (** One line per run that raised. *)
  unfaithful : string list;  (** One line per replay whose fidelity check failed. *)
  ok : bool array;  (** Per run: returned, and replayed faithfully. *)
  step_ns : int;  (** The runs without their set-up. *)
  setup_ns : int;  (** Set-up, with a single job's the median of {!setup_samples}. *)
  run_us : float list;  (** Per-run host latency, set-up included. *)
  minor_words : float;  (** Allocated by the runs themselves. *)
  peak_heap_words : int;
  digests : string array;  (** Per run; [""] when it raised. *)
  totals : int array;  (** Summed {!counts}. *)
  expect_met : int;
  log_bytes : int;
  encode_ns : int;
  decode_ns : int;
  replay_ns : int;
}

let steps t = t.totals.(counter "steps")

let host_ns_per_step t = float_of_int t.step_ns /. float_of_int (max 1 (steps t))

let trial ?wrap w =
  (* Two collections: under OCaml 5.1 one can leave the previous
     trial's garbage unswept, and it would count as this trial's heap. *)
  Gc.full_major ();
  Gc.compact ();
  let n = Array.length w.jobs in
  let digests = Array.make n "" in
  let ok = Array.make n false in
  let totals = Array.make (Array.length counter_names) 0 in
  let raised = ref [] and unfaithful = ref [] in
  let step_ns = ref 0 and setup_ns = ref 0 and run_us = ref [] and minor = ref 0. in
  let expect_met = ref 0 in
  let log_bytes = ref 0 and encode_ns = ref 0 and decode_ns = ref 0 and replay_ns = ref 0 in
  (* The major heap as each run returns, before its data is dropped,
     stands for the run's high-water mark.  (GC alarms would sample more
     often, but under OCaml 5.1 they fire cycles late, with sizes from
     before the compaction.) *)
  let peak = ref 0 in
  (* The extra set-ups come first, straight after the collections, as
     the run's own set-up does. *)
  let extra_setups =
    if n = 1 then List.init (setup_samples - 1) (fun _ -> setup_only w.jobs.(0)) else []
  in
  let record i job (r : run) =
    peak := max !peak (Gc.quick_stat ()).Gc.heap_words;
    step_ns := !step_ns + r.run_ns - r.setup_ns;
    setup_ns :=
      !setup_ns
      + (match extra_setups with
         | [] -> r.setup_ns
         | extra -> int_of_float (Quantile.median (List.map float_of_int (r.setup_ns :: extra))));
    run_us := (float_of_int r.run_ns /. 1e3) :: !run_us;
    add_counts totals (counts r.result);
    digests.(i) <- run_fingerprint r;
    ok.(i) <- true;
    (match job.expect with
     | Some e when Race_suite.check e (List.length r.result.Runner.kard_ilu_races) -> incr expect_met
     | Some _ | None -> ());
    Option.iter
      (fun (rp : replay) ->
        log_bytes := !log_bytes + rp.log_bytes;
        encode_ns := !encode_ns + rp.encode_ns;
        decode_ns := !decode_ns + rp.decode_ns;
        replay_ns := !replay_ns + rp.replay_ns;
        match rp.fidelity with
        | Ok () -> ()
        | Error e ->
          ok.(i) <- false;
          unfaithful := Printf.sprintf "%s: %s" job.label e :: !unfaithful)
      r.replay
  in
  Array.iteri
    (fun i job ->
      let m0 = Gc.minor_words () in
      match run ?wrap w job with
      | exception e -> raised := Printf.sprintf "%s: %s" job.label (Printexc.to_string e) :: !raised
      | r ->
        minor := !minor +. (Gc.minor_words () -. m0);
        record i job r)
    w.jobs;
  { runs = n;
    raised = List.rev !raised;
    unfaithful = List.rev !unfaithful;
    ok;
    step_ns = !step_ns;
    setup_ns = !setup_ns;
    run_us = !run_us;
    minor_words = !minor;
    peak_heap_words = !peak;
    digests;
    totals;
    expect_met = !expect_met;
    log_bytes = !log_bytes;
    encode_ns = !encode_ns;
    decode_ns = !decode_ns;
    replay_ns = !replay_ns }

(* {1 The untimed reference pass} *)

type reference = {
  base_cycles : int;  (** Summed over the jobs, under [Baseline]. *)
  base_rss : int;
  plain : string array;
      (** Fingerprints of the jobs run without the recorder; a recorded
          trial must match them. *)
}

let reference w =
  let base_cycles = ref 0 and base_rss = ref 0 in
  let plain =
    Array.map
      (fun job ->
        let base, _, _ = simulate ~detector:Runner.Baseline job in
        base_cycles := !base_cycles + base.Runner.report.Machine.cycles;
        base_rss := !base_rss + base.Runner.report.Machine.rss_bytes;
        match w.replay_under with
        | None -> ""
        | Some _ ->
          let r, _, _ = simulate ~detector:(Runner.Kard job.config) job in
          fingerprint r)
      w.jobs
  in
  { base_cycles = !base_cycles; base_rss = !base_rss; plain }
