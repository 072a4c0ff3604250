module Machine = Kard_sched.Machine
module Race_record = Kard_core.Race_record

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let str s = "\"" ^ escape s ^ "\""
let field name value = str name ^ ":" ^ value
let obj fields = "{" ^ String.concat "," fields ^ "}"
let arr items = "[" ^ String.concat "," items ^ "]"
let int_ = string_of_int
let float_ f = Printf.sprintf "%.6g" f
let bool_ b = if b then "true" else "false"

let of_side (s : Race_record.side) =
  obj
    [ field "thread" (int_ s.Race_record.thread);
      field "section"
        (match s.Race_record.section with
        | Some site -> int_ site
        | None -> "null");
      field "access" (str (match s.Race_record.access with `Read -> "read" | `Write -> "write"));
      field "ip" (int_ s.Race_record.ip) ]

let of_race (r : Race_record.t) =
  obj
    [ field "object" (int_ r.Race_record.obj_id);
      field "offset" (int_ r.Race_record.offset);
      field "ilu" (bool_ (Race_record.is_ilu r));
      field "faulting" (of_side r.Race_record.faulting);
      field "holding" (arr (List.map of_side r.Race_record.holding));
      field "time" (int_ r.Race_record.time) ]

let of_kard_stats (s : Kard_core.Detector.stats) =
  obj
    [ field "identifications_read" (int_ s.Kard_core.Detector.identifications_read);
      field "identifications_write" (int_ s.Kard_core.Detector.identifications_write);
      field "proactive_acquisitions" (int_ s.Kard_core.Detector.proactive_acquisitions);
      field "reactive_acquisitions" (int_ s.Kard_core.Detector.reactive_acquisitions);
      field "demotions" (int_ s.Kard_core.Detector.demotions);
      field "migrations" (int_ s.Kard_core.Detector.migrations);
      field "fresh" (int_ s.Kard_core.Detector.fresh_events);
      field "reuse" (int_ s.Kard_core.Detector.reuse_events);
      field "recycling" (int_ s.Kard_core.Detector.recycling_events);
      field "sharing" (int_ s.Kard_core.Detector.sharing_events);
      field "interleavings" (int_ s.Kard_core.Detector.interleavings_started);
      field "records_logged" (int_ s.Kard_core.Detector.records_logged);
      field "records_redundant" (int_ s.Kard_core.Detector.records_redundant);
      field "records_pruned_spurious" (int_ s.Kard_core.Detector.records_pruned_spurious);
      field "vkeys"
        (obj
           [ field "pool" (int_ s.Kard_core.Detector.vkey_pool);
             field "resident" (int_ s.Kard_core.Detector.vkey_resident);
             field "hits" (int_ s.Kard_core.Detector.vkey_hits);
             field "misses" (int_ s.Kard_core.Detector.vkey_misses);
             field "evictions" (int_ s.Kard_core.Detector.vkey_evictions);
             field "loads" (int_ s.Kard_core.Detector.vkey_loads);
             field "retag_pages" (int_ s.Kard_core.Detector.vkey_retag_pages);
             field "stalls" (int_ s.Kard_core.Detector.vkey_stalls) ]);
      field "sampling"
        (obj
           [ field "rate" (float_ s.Kard_core.Detector.sampling_rate);
             field "sampled_sections" (int_ s.Kard_core.Detector.sampled_sections);
             field "skipped_sections" (int_ s.Kard_core.Detector.skipped_sections);
             field "sampled_objects" (int_ s.Kard_core.Detector.sampled_objects);
             field "skipped_objects" (int_ s.Kard_core.Detector.skipped_objects);
             field "skipped_accesses" (int_ s.Kard_core.Detector.skipped_accesses);
             field "rotations" (int_ s.Kard_core.Detector.sampling_rotations);
             field "rearm_pages" (int_ s.Kard_core.Detector.sampling_rearm_pages);
             field "first_race_cs" (int_ s.Kard_core.Detector.first_race_cs) ]) ]

let of_summary (s : Kard_obs.Metrics.summary) =
  obj
    [ field "count" (int_ s.Kard_obs.Metrics.count);
      field "total" (int_ s.Kard_obs.Metrics.total);
      field "min" (int_ s.Kard_obs.Metrics.min);
      field "max" (int_ s.Kard_obs.Metrics.max);
      field "mean" (float_ s.Kard_obs.Metrics.mean);
      field "p50" (float_ s.Kard_obs.Metrics.p50);
      field "p95" (float_ s.Kard_obs.Metrics.p95);
      field "p99" (float_ s.Kard_obs.Metrics.p99);
      field "p999" (float_ s.Kard_obs.Metrics.p999) ]

let of_metrics (m : Kard_obs.Metrics.t) =
  obj
    [ field "counters"
        (obj (List.map (fun (name, v) -> field name (int_ v)) (Kard_obs.Metrics.counters m)));
      field "histograms"
        (obj
           (List.map
              (fun (name, s) -> field name (of_summary s))
              (Kard_obs.Metrics.histograms m))) ]

let of_window_row (r : Kard_obs.Window.row) =
  obj
    [ field "start" (int_ r.Kard_obs.Window.w_start);
      field "count" (int_ r.Kard_obs.Window.count);
      field "mean" (float_ r.Kard_obs.Window.mean);
      field "p50" (int_ r.Kard_obs.Window.p50);
      field "p95" (int_ r.Kard_obs.Window.p95);
      field "p99" (int_ r.Kard_obs.Window.p99);
      field "p999" (int_ r.Kard_obs.Window.p999);
      field "max" (int_ r.Kard_obs.Window.max) ]

let of_window_view (w : Kard_obs.Snapshot.window_view) =
  obj
    [ field "width" (int_ w.Kard_obs.Snapshot.w_width);
      field "overall" (of_window_row w.Kard_obs.Snapshot.w_overall);
      field "windows" (arr (List.map of_window_row w.Kard_obs.Snapshot.w_rows)) ]

let of_snapshot (s : Kard_obs.Snapshot.t) =
  obj
    [ field "counters"
        (obj (List.map (fun (name, v) -> field name (int_ v)) s.Kard_obs.Snapshot.counters));
      field "histograms"
        (obj
           (List.map
              (fun (name, summary) -> field name (of_summary summary))
              s.Kard_obs.Snapshot.histograms));
      field "windowed"
        (obj
           (List.map
              (fun (w : Kard_obs.Snapshot.window_view) ->
                field w.Kard_obs.Snapshot.w_name (of_window_view w))
              s.Kard_obs.Snapshot.windows)) ]

let of_trace (tr : Kard_obs.Trace.t) =
  obj
    [ field "events" (int_ (Kard_obs.Trace.event_count tr));
      field "dropped" (int_ (Kard_obs.Trace.dropped tr));
      field "categories"
        (obj
           (List.map
              (fun (cat, n) -> field cat (int_ n))
              (Kard_obs.Trace.category_counts tr))) ]

let of_result (r : Runner.result) =
  let report = r.Runner.report in
  obj
    ([ field "workload" (str r.Runner.spec_name);
       field "detector" (str r.Runner.detector_name);
       field "threads" (int_ r.Runner.threads);
       field "scale" (float_ r.Runner.scale);
       field "seed" (int_ r.Runner.seed);
       field "cycles" (int_ report.Machine.cycles);
       field "io_cycles" (int_ report.Machine.io_cycles);
       field "cs_entries" (int_ report.Machine.cs_entries);
       field "unique_sections" (int_ report.Machine.unique_sections);
       field "faults" (int_ report.Machine.faults);
       field "rss_bytes" (int_ report.Machine.rss_bytes);
       field "dtlb_miss_rate" (float_ report.Machine.dtlb_miss_rate);
       field "races" (arr (List.map of_race r.Runner.kard_races));
       field "tsan_races" (int_ (List.length r.Runner.tsan_races));
       field "lockset_warnings" (int_ (List.length r.Runner.lockset_warnings)) ]
    @ (match r.Runner.kard_stats with
      | Some stats -> [ field "kard" (of_kard_stats stats) ]
      | None -> [])
    @
    match r.Runner.trace with
    | Some tr ->
      [ field "trace" (of_trace tr); field "metrics" (of_metrics (Kard_obs.Trace.metrics tr)) ]
    | None -> [])

let of_serve_row (row : Experiments.serve_row) =
  let l = row.Experiments.sv_latency in
  obj
    [ field "detector" (str row.Experiments.sv_detector);
      field "offered_rate_per_mcycle" (float_ row.Experiments.sv_rate);
      field "requests" (int_ row.Experiments.sv_requests);
      field "cycles" (int_ row.Experiments.sv_cycles);
      field "achieved_rate_per_mcycle" (float_ row.Experiments.sv_achieved);
      field "latency_cycles"
        (obj
           [ field "p50" (int_ l.Kard_obs.Window.p50);
             field "p95" (int_ l.Kard_obs.Window.p95);
             field "p99" (int_ l.Kard_obs.Window.p99);
             field "p999" (int_ l.Kard_obs.Window.p999);
             field "max" (int_ l.Kard_obs.Window.max);
             field "mean" (float_ l.Kard_obs.Window.mean) ]);
      field "metrics" (of_snapshot row.Experiments.sv_snapshot) ]

let of_serve_sweep ~threads ~scale ~seed (s : Experiments.serve_sweep) =
  obj
    [ field "benchmark" (str "serve");
      field "server" (str s.Experiments.ss_server);
      field "arrivals" (str s.Experiments.ss_model);
      field "slo_p99_cycles" (int_ s.Experiments.ss_slo);
      field "threads" (int_ threads);
      field "scale" (float_ scale);
      field "seed" (int_ seed);
      field "rows" (arr (List.map of_serve_row s.Experiments.ss_rows));
      field "goodput_under_slo_per_mcycle"
        (obj
           (List.map
              (fun (name, rate) -> field name (float_ rate))
              s.Experiments.ss_goodput)) ]

let of_keys_row (row : Experiments.keys_row) =
  obj
    [ field "point" (str row.Experiments.kp_point);
      field "mode" (str row.Experiments.kp_mode);
      field "objects" (int_ row.Experiments.kp_objects);
      field "sections" (int_ row.Experiments.kp_sections);
      field "data_keys" (int_ row.Experiments.kp_data_keys);
      field "vkeys" (int_ row.Experiments.kp_vkeys);
      field "planted" (int_ row.Experiments.kp_planted);
      field "detected" (int_ row.Experiments.kp_detected);
      field "detected_objects" (int_ row.Experiments.kp_detected_objects);
      field "detection_rate"
        (float_
           (if row.Experiments.kp_planted > 0 then
              float_of_int row.Experiments.kp_detected
              /. float_of_int row.Experiments.kp_planted
            else 0.));
      field "sim_cycles" (int_ row.Experiments.kp_cycles);
      field "overhead_pct" (float_ row.Experiments.kp_overhead_pct);
      field "sharing" (int_ row.Experiments.kp_sharing);
      field "recycling" (int_ row.Experiments.kp_recycling);
      field "vkey_evictions" (int_ row.Experiments.kp_vkey_evictions);
      field "vkey_loads" (int_ row.Experiments.kp_vkey_loads);
      field "vkey_retag_pages" (int_ row.Experiments.kp_vkey_retag_pages);
      field "vkey_stalls" (int_ row.Experiments.kp_vkey_stalls) ]

let of_keys_bench (b : Experiments.keys_bench) =
  obj
    [ field "benchmark" (str "keys");
      field "threads" (int_ b.Experiments.kp_threads);
      field "scale" (float_ b.Experiments.kp_scale);
      field "seed" (int_ b.Experiments.kp_seed);
      field "rows" (arr (List.map of_keys_row b.Experiments.kp_rows)) ]

let of_sampling_row (row : Experiments.sampling_row) =
  obj
    [ field "subject" (str row.Experiments.sp_subject);
      field "rate" (float_ row.Experiments.sp_rate);
      field "runs" (int_ row.Experiments.sp_runs);
      field "detected_runs" (int_ row.Experiments.sp_detected);
      field "detection_pct" (float_ row.Experiments.sp_detection_pct);
      field "subset_ok" (bool_ row.Experiments.sp_subset_ok);
      field "latency_cs_entries"
        (obj
           [ field "min" (int_ row.Experiments.sp_latency_min);
             field "p50" (int_ row.Experiments.sp_latency_p50);
             field "max" (int_ row.Experiments.sp_latency_max) ]);
      field "mean_cs_entries" (float_ row.Experiments.sp_mean_cs_entries);
      field "sampled_sections" (int_ row.Experiments.sp_sampled_sections);
      field "skipped_sections" (int_ row.Experiments.sp_skipped_sections);
      field "skipped_accesses" (int_ row.Experiments.sp_skipped_accesses);
      field "mean_sim_cycles" (float_ row.Experiments.sp_mean_cycles) ]

let of_sampling_bench ~threads ~scale ~seed (b : Experiments.sampling_bench) =
  obj
    [ field "benchmark" (str "sampling");
      field "epoch_cycles" (int_ b.Experiments.sp_epoch);
      field "seeds" (arr (List.map int_ b.Experiments.sp_seeds));
      field "rates" (arr (List.map float_ b.Experiments.sp_rates));
      field "rows" (arr (List.map of_sampling_row b.Experiments.sp_rows));
      field "serve" (of_serve_sweep ~threads ~scale ~seed b.Experiments.sp_serve) ]

let pretty json =
  let buf = Buffer.create (String.length json * 2) in
  let indent = ref 0 in
  let in_string = ref false in
  let escaped = ref false in
  let newline () =
    Buffer.add_char buf '\n';
    for _ = 1 to !indent * 2 do
      Buffer.add_char buf ' '
    done
  in
  String.iter
    (fun c ->
      if !in_string then begin
        Buffer.add_char buf c;
        if !escaped then escaped := false
        else if c = '\\' then escaped := true
        else if c = '"' then in_string := false
      end
      else
        match c with
        | '"' ->
          in_string := true;
          Buffer.add_char buf c
        | '{' | '[' ->
          Buffer.add_char buf c;
          incr indent;
          newline ()
        | '}' | ']' ->
          decr indent;
          newline ();
          Buffer.add_char buf c
        | ',' ->
          Buffer.add_char buf c;
          newline ()
        | ':' -> Buffer.add_string buf ": "
        | c -> Buffer.add_char buf c)
    json;
  Buffer.contents buf
