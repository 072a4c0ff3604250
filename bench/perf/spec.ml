(* The benchmark's one source of workload names, metric names, units,
   directions and regression bounds.  BENCHMARK.json at the repository
   root is [benchmark_json ()] verbatim; a test fails when they drift. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float;
      (** Allowed worsening, as a share of the reference value.  0 for
          per-layer metrics, which carry none.  An exact metric must
          repeat exactly at one seed; its bound, if any, covers how it
          moves across the seeds the driver runs. *)
  floor : float;  (** Absolute slack, in [unit], added to the bound. *)
  exact : bool;  (** Simulated or counted: two runs must agree exactly. *)
  scope : string list;  (** Workloads that report it; [] = all five. *)
  driver : bool;
      (** Listed in BENCHMARK.json, which names only metrics every
          workload reports and whose spread across seeds fits the
          bound. *)
}

type workload = { w_name : string; why : string }

let memcached = "memcached-64t"
let convoy = "convoy-64t"
let keys = "keys-10k-vkeys"
let record = "memcached-s10-record"
let race_suite = "race-suite"

(* Why each one: the layer it loads and the layers it bypasses. *)
let workloads =
  [ { w_name = memcached;
      why =
        "North-star subject: 172k critical-section entries and 8k faults per run make section \
         entry/exit, WRPKRU and the access check the hot detector path" };
    { w_name = convoy;
      why =
        "Scheduler and lock table dominate (one fault per run): detector changes should not move \
         it, scheduler changes should" };
    { w_name = keys;
      why =
        "Fault handler, vkey cache and retags dominate (31k faults per run); precision against \
         planted races is known" };
    { w_name = record;
      why =
        "Production workflow: record under 10% sampling, encode, decode, replay under full Kard; \
         loads the sampling fast paths and the replay log" };
    { w_name = race_suite;
      why =
        "3,900 tiny scenario runs per trial, so machine creation and setup dominate, as in the \
         fuzz, explorer and hunt loops" } ]

let host ?(scope = []) ?(floor = 0.) ?(driver = true) name unit better bound =
  { name; unit; better; bound; floor; exact = false; scope; driver }

let exact ?(scope = []) ?(bound = 0.) name unit better =
  { name; unit; better; bound; floor = 0.; exact = true; scope; driver = bound > 0. }

let end_to_end =
  [ host "host_ns_per_step" "ns" Lower 0.25;
    (* Set-up is the easiest place to hide moved work: it gets the
       widest bound the driver allows, and a 1 ms floor. *)
    host "setup_s" "s" Lower 0.25 ~floor:0.001;
    host "run_us_p50" "us" Lower 0.25 ~scope:[ race_suite ] ~driver:false;
    host "run_us_p99" "us" Lower 0.25 ~scope:[ race_suite ] ~driver:false;
    host "replay_ns_per_step" "ns" Lower 0.25 ~scope:[ record ] ~driver:false;
    host "alloc_words_per_step" "words" Lower 0.10;
    host "peak_heap_mb" "MB" Lower 0.25;
    exact "sim_cycles" "cycles" Lower;
    exact "sim_overhead_pct" "%" Lower ~bound:0.10;
    exact "sim_rss_overhead_pct" "%" Lower;
    exact "races_reported" "count" Higher;
    exact "precision" "ratio" Higher ~scope:[ keys; race_suite ];
    exact "log_bytes_per_step" "B" Lower ~scope:[ record ];
    exact "failure_rate" "ratio" Lower ]

let layer ?(scope = []) ?(driver = true) name unit better =
  { name; unit; better; bound = 0.; floor = 0.; exact = false; scope; driver }

let counter ?(driver = true) name unit better =
  { name; unit; better; bound = 0.; floor = 0.; exact = true; scope = []; driver }

(* Bechamel microbenchmarks, each reported under the workload whose
   host time it should move. *)
let micro_names =
  [ ("mpk_hw.check_access_hit_ns", memcached);
    ("mpk_hw.check_access_fault_ns", keys);
    ("mpk_hw.wrpkru_ns", memcached);
    ("mpk_hw.retag_batch_ns_per_page", keys);
    ("tlb.access_ns", memcached);
    ("pkru.set_ns", memcached);
    ("vkey.ensure_hit_ns", keys);
    ("vkey.ensure_miss_ns", keys);
    ("sampling.sampled_obj_ns", record);
    ("schedule.pick_64_ns", convoy);
    ("lock_table.acquire_release_ns", convoy);
    ("unique_page_alloc.alloc_32b_ns", race_suite) ]

let per_layer =
  [ layer "machine.step_ns_p50" "ns" Lower;
    layer "machine.step_ns_p99" "ns" Lower;
    layer "machine.self_ns_per_step" "ns" Lower;
    layer "detector.hook_share" "ratio" Lower;
    layer "detector.on_lock_ns_p50" "ns" Lower;
    layer "detector.on_lock_ns_p99" "ns" Lower;
    layer "detector.on_lock_ns_count" "count" Lower;
    layer "detector.on_unlock_ns_p50" "ns" Lower;
    layer "detector.on_unlock_ns_p99" "ns" Lower;
    layer "detector.on_unlock_ns_count" "count" Lower;
    layer "detector.on_fault_ns_p50" "ns" Lower;
    (* Convoy takes about one fault per run: too few for a p99. *)
    layer "detector.on_fault_ns_p99" "ns" Lower ~driver:false;
    layer "detector.on_fault_ns_count" "count" Lower;
    layer "detector.on_alloc_ns_mean" "ns" Lower;
    (* Convoy never frees. *)
    layer "detector.on_free_ns_mean" "ns" Lower ~driver:false;
    layer "trace.overhead_pct" "%" Lower;
    counter "mpk_hw.faults" "count" Lower;
    counter "mpk_hw.wrpkru" "count" Lower;
    counter "tlb.miss_rate" "ratio" Lower;
    counter "lock_table.contended_ratio" "ratio" Lower;
    counter "vkey.hit_ratio" "ratio" Higher;
    counter "vkey.evictions" "count" Lower;
    counter "vkey.retag_pages" "count" Lower;
    counter "key_assign.recycling_events" "count" Lower;
    counter "key_assign.sharing_events" "count" Lower;
    counter "sampling.sampled_section_ratio" "ratio" Lower;
    counter "sampling.skipped_accesses" "count" Higher;
    counter "detector.records_logged" "count" Higher;
    counter "detector.records_pruned" "count" Lower;
    layer "log.encode_ns_per_step" "ns" Lower ~scope:[ record ] ~driver:false;
    layer "log.decode_ns_per_step" "ns" Lower ~scope:[ record ] ~driver:false ]
  @ List.map (fun (name, _) -> layer name "ns" Lower) micro_names

let all_metrics = end_to_end @ per_layer

let find name = List.find (fun m -> m.name = name) all_metrics

let applies m ~workload =
  match List.assoc_opt m.name micro_names with
  | Some home -> home = workload
  | None -> m.scope = [] || List.mem workload m.scope

(* {1 BENCHMARK.json} *)

let command = [ "bash"; "bench/perf/run.sh" ]
let paths = [ "bench/perf" ]
let run_seconds = 20

let better_name = function Lower -> "lower" | Higher -> "higher"

let benchmark_json () =
  let str s = "\"" ^ Kard_harness.Json_report.escape s ^ "\"" in
  let list items = "[" ^ String.concat ", " items ^ "]" in
  let block items = "[\n    " ^ String.concat ",\n    " items ^ "\n  ]" in
  let e2e m =
    Printf.sprintf "{\"name\": %s, \"unit\": %s, \"better\": %s, \"bound\": %g}" (str m.name)
      (str m.unit) (str (better_name m.better)) m.bound
  in
  let layer m =
    Printf.sprintf "{\"name\": %s, \"unit\": %s, \"better\": %s}" (str m.name) (str m.unit)
      (str (better_name m.better))
  in
  let driver ms = List.filter (fun m -> m.driver) ms in
  String.concat ""
    [ "{\n";
      Printf.sprintf "  \"command\": %s,\n" (list (List.map str command));
      Printf.sprintf "  \"paths\": %s,\n" (list (List.map str paths));
      Printf.sprintf "  \"run_seconds\": %d,\n" run_seconds;
      Printf.sprintf "  \"workloads\": %s,\n"
        (block
           (List.map
              (fun w -> Printf.sprintf "{\"name\": %s, \"why\": %s}" (str w.w_name) (str w.why))
              workloads));
      Printf.sprintf "  \"end_to_end\": %s,\n" (block (List.map e2e (driver end_to_end)));
      Printf.sprintf "  \"per_layer\": %s\n" (block (List.map layer (driver per_layer)));
      "}\n" ]
