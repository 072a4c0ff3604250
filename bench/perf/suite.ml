(* Run the workloads, derive every metric, and check the results. *)

module W = Workload

(* Timed trials per workload in the full run, after one discarded
   warm-up trial; then the traced pass. *)
let trials = 10
let traced_trials = 3

type measured = {
  w : W.t;
  reference : W.reference;
  first : W.trial;  (** The warm-up: not timed, but every later trial must match it. *)
  timed : W.trial list;
  traced : W.trial list;
  tracer : Tracer.t;
}

let start w =
  let reference = W.reference w in
  let first = W.trial w in
  { w; reference; first; timed = []; traced = []; tracer = Tracer.create () }

let timed_trial m = { m with timed = m.timed @ [ W.trial m.w ] }

let traced_trial m = { m with traced = m.traced @ [ W.trial ~wrap:(Tracer.wrap m.tracer) m.w ] }

(* {1 Checks} *)

let same_as_first m (t : W.trial) i = t.W.ok.(i) && t.W.digests.(i) = m.first.W.digests.(i)

(* A recorded run's fingerprint leads with the recorded result, which
   must equal the same job run without the recorder. *)
let recorded_as_plain m i =
  m.w.W.replay_under = None
  || (not m.first.W.ok.(i))
  || String.sub m.first.W.digests.(i) 0 16 = m.reference.W.plain.(i)

let all_trials m = (m.first :: m.timed) @ m.traced

let attempted m = List.fold_left (fun n t -> n + t.W.runs) 0 (all_trials m)

let count n p = List.length (List.filter p (List.init n Fun.id))

(* Runs that raised or failed a check.  The first trial is the
   reference, so it fails only where it did not return. *)
let failed m =
  let runs = m.first.W.runs in
  count runs (fun i -> not m.first.W.ok.(i))
  + List.fold_left (fun n t -> n + count runs (fun i -> not (same_as_first m t i))) 0 (m.timed @ m.traced)
  + count runs (fun i -> not (recorded_as_plain m i))

let checks m =
  let first_error lines = match lines with [] -> Ok () | l :: _ -> Error l in
  let identical trials =
    let diverged =
      List.concat_map
        (fun t ->
          List.filter_map
            (fun i ->
              if t.W.ok.(i) && m.first.W.ok.(i) && t.W.digests.(i) <> m.first.W.digests.(i) then
                Some (Printf.sprintf "%s differs from the first trial" m.w.W.jobs.(i).W.label)
              else None)
            (List.init t.W.runs Fun.id))
        trials
    in
    first_error diverged
  in
  let recording =
    if m.w.W.replay_under = None then []
    else
      [ ( "recording-identity",
          first_error
            (List.filter_map
               (fun i ->
                 if recorded_as_plain m i then None
                 else Some (m.w.W.jobs.(i).W.label ^ " recorded differs from unrecorded"))
               (List.init m.first.W.runs Fun.id)) );
        ("replay-fidelity", first_error (List.concat_map (fun t -> t.W.unfaithful) (all_trials m))) ]
  in
  [ ("runs-return", first_error (List.concat_map (fun t -> t.W.raised) (all_trials m)));
    ("trial-identity", identical m.timed);
    ("traced-identity", identical m.traced) ]
  @ recording

let correct m = List.for_all (fun (_, r) -> Result.is_ok r) (checks m)

(* {1 Metrics} *)

type row = {
  workload : string;
  metric : Spec.metric;
  value : float option;
  spread : Quantile.spread option;  (** Over trials, for host metrics. *)
  note : string;
}

let unresolved row =
  match row.spread with
  | Some s -> row.metric.Spec.bound > 0. && Quantile.iqr_share s > row.metric.Spec.bound
  | None -> false

let memcached_paper_pct =
  (Kard_workloads.Registry.find "memcached").Kard_workloads.Spec.paper.Kard_workloads.Spec.p_kard_pct

let rows ?(micro = []) ~applies m =
  let name = m.w.W.name in
  let first = m.first in
  let total k = float_of_int first.W.totals.(W.counter k) in
  let steps t = float_of_int (max 1 (W.steps t)) in
  let ratio ?(empty = None) a b = if b = 0. then empty else Some (a /. b) in
  let pct a b = Option.map (fun r -> (r -. 1.) *. 100.) (ratio a b) in
  let over stat ts f =
    match List.map f ts with
    | [] -> (None, None)
    | vs -> (Some (stat vs), Some (Quantile.spread vs))
  in
  let host f = over Quantile.median m.timed f in
  (* Host times take the fastest trial: every trial does the same
     deterministic work (the identity check proves it), so the
     trial-to-trial spread is host interference, which only adds time. *)
  let min_of = List.fold_left min infinity in
  let fastest f = over min_of m.timed f in
  let exact v = (v, None) in
  let tracer = Tracer.metrics m.tracer in
  let value metric =
    match metric with
    | "host_ns_per_step" -> fastest W.host_ns_per_step
    | "setup_s" -> fastest (fun t -> float_of_int t.W.setup_ns /. 1e9)
    (* Per trial, like host time per step, since slow phases of the host
       would otherwise make the tail. *)
    | "run_us_p50" -> fastest (fun t -> Quantile.median t.W.run_us)
    | "run_us_p99" -> (
      match List.map (fun t -> Quantile.tail t.W.run_us 99.) m.timed with
      | tails when List.mem None tails -> (None, None)
      | tails -> over min_of (List.map Option.get tails) Fun.id)
    | "replay_ns_per_step" ->
      fastest (fun t -> float_of_int (t.W.decode_ns + t.W.replay_ns) /. steps t)
    | "alloc_words_per_step" -> host (fun t -> t.W.minor_words /. steps t)
    | "peak_heap_mb" -> host (fun t -> float_of_int t.W.peak_heap_words *. 8. /. 1e6)
    | "sim_cycles" -> exact (Some (total "cycles"))
    | "sim_overhead_pct" -> exact (pct (total "cycles") (float_of_int m.reference.W.base_cycles))
    | "sim_rss_overhead_pct" -> exact (pct (total "rss_bytes") (float_of_int m.reference.W.base_rss))
    | "races_reported" -> exact (Some (total "races"))
    | "precision" ->
      exact
        (match m.w.W.planted with
         | Some p -> ratio (total "races") (float_of_int p)
         | None -> ratio (float_of_int first.W.expect_met) (float_of_int first.W.runs))
    | "log_bytes_per_step" -> exact (ratio (float_of_int first.W.log_bytes) (total "steps"))
    | "failure_rate" -> exact (ratio (float_of_int (failed m)) (float_of_int (attempted m)))
    | "trace.overhead_pct" ->
      exact
        (match (fst (over min_of m.traced W.host_ns_per_step), fst (fastest W.host_ns_per_step)) with
         | Some traced, Some untraced -> pct traced untraced
         | _ -> None)
    | "mpk_hw.faults" -> exact (Some (total "faults"))
    | "mpk_hw.wrpkru" -> exact (Some (total "wrpkru"))
    | "tlb.miss_rate" -> exact (ratio (total "dtlb_misses") (total "dtlb_accesses"))
    | "lock_table.contended_ratio" -> exact (ratio (total "contended_entries") (total "cs_entries"))
    (* Identity mode keeps every key resident, and full Kard samples
       every section: both ratios read 1 there. *)
    | "vkey.hit_ratio" ->
      exact (ratio ~empty:(Some 1.) (total "vkey_hits") (total "vkey_hits" +. total "vkey_misses"))
    | "vkey.evictions" -> exact (Some (total "vkey_evictions"))
    | "vkey.retag_pages" -> exact (Some (total "vkey_retag_pages"))
    | "key_assign.recycling_events" -> exact (Some (total "recycling"))
    | "key_assign.sharing_events" -> exact (Some (total "sharing"))
    | "sampling.sampled_section_ratio" ->
      exact
        (ratio ~empty:(Some 1.) (total "sampled_sections")
           (total "sampled_sections" +. total "skipped_sections"))
    | "sampling.skipped_accesses" -> exact (Some (total "skipped_accesses"))
    | "detector.records_logged" -> exact (Some (total "records_logged"))
    | "detector.records_pruned" -> exact (Some (total "records_pruned"))
    | "log.encode_ns_per_step" -> fastest (fun t -> float_of_int t.W.encode_ns /. steps t)
    | "log.decode_ns_per_step" -> fastest (fun t -> float_of_int t.W.decode_ns /. steps t)
    | n -> (
      match List.assoc_opt n tracer with
      | Some v -> exact v
      | None -> exact (List.assoc_opt n micro))
  in
  let note metric v =
    match metric, v with
    | "detector.hook_share", _ ->
      Printf.sprintf "of %.1f ms traced step time" (float_of_int (Tracer.step_ns m.tracer) /. 1e6)
    | "run_us_p50", _ | "run_us_p99", _ -> Printf.sprintf "%d runs per trial" first.W.runs
    | "sim_overhead_pct", _ when String.starts_with ~prefix:"memcached" name ->
      Printf.sprintf "paper Table 3: %.1f%% (unvalidated model)" memcached_paper_pct
    | _, None -> "n/a"
    | _ -> ""
  in
  List.filter_map
    (fun metric ->
      if not (applies metric) then None
      else
        let value, spread = value metric.Spec.name in
        Some { workload = name; metric; value; spread; note = note metric.Spec.name value })
    Spec.all_metrics

(* {1 Output} *)

let fmt_value v =
  if Float.is_integer v && abs_float v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.6g" v

let print_row r =
  let m = r.metric in
  let value = match r.value with Some v -> fmt_value v | None -> "-" in
  let spread =
    match r.spread with
    | Some s ->
      Printf.sprintf "[p25 %s, p50 %s, p75 %s, n=%d]" (fmt_value s.Quantile.p25)
        (fmt_value s.Quantile.p50) (fmt_value s.Quantile.p75) s.Quantile.n
    | None -> ""
  in
  let flags =
    String.concat " "
      (List.filter (fun s -> s <> "")
         [ (if unresolved r then "UNRESOLVED" else ""); r.note ])
  in
  Printf.printf "  %-34s %14s %-6s %-50s %s\n" m.Spec.name value m.Spec.unit spread flags

let row_line r : Outfile.line =
  let open Outfile in
  let num = function Some v -> F v | None -> Null in
  [ ("kind", S "metric"); ("workload", S r.workload); ("name", S r.metric.Spec.name);
    ("unit", S r.metric.Spec.unit); ("value", num r.value) ]
  @ (match r.spread with
     | Some s ->
       [ ("p25", F s.Quantile.p25); ("p50", F s.Quantile.p50); ("p75", F s.Quantile.p75);
         ("n", I s.Quantile.n) ]
     | None -> [])
  @ [ ("unresolved", B (unresolved r)); ("note", S r.note) ]

let check_lines m : Outfile.line list =
  List.map
    (fun (name, r) ->
      Outfile.
        [ ("kind", S "check"); ("workload", S m.w.W.name); ("name", S name);
          ("ok", B (Result.is_ok r));
          ("detail", S (match r with Ok () -> "" | Error e -> e)) ])
    (checks m)

(* Every field of a [Config.t]: [Config.pp] leaves some out. *)
let config_fields (c : Kard_core.Config.t) : Outfile.line =
  let open Kard_core.Config in
  Outfile.
    [ ("data_keys", I c.data_keys); ("proactive_acquisition", B c.proactive_acquisition);
      ("protection_interleaving", B c.protection_interleaving);
      ("timestamp_pruning", B c.timestamp_pruning); ("redundancy_pruning", B c.redundancy_pruning);
      ("metadata_pruning", B c.metadata_pruning); ("prefer_recycle", B c.prefer_recycle);
      ("share_disjoint_sections", B c.share_disjoint_sections);
      ("software_fallback", B c.software_fallback); ("exit_delay_cycles", I c.exit_delay_cycles);
      ( "section_identity",
        S (match c.section_identity with By_call_site -> "by_call_site" | By_lock -> "by_lock") );
      ("vkeys", I c.vkeys); ("sampling", F c.sampling); ("sampling_epoch", I c.sampling_epoch);
      ("sampling_seed", I c.sampling_seed) ]

(* One line per distinct job configuration, and one for the replay
   detector. *)
let config_lines m : Outfile.line list =
  let open Outfile in
  let line job (j : W.job) config =
    [ ("kind", S "config"); ("workload", S m.w.W.name); ("job", S job); ("threads", I j.W.threads);
      ("scale", F j.W.scale); ("shards", I 1) ]
    @ config_fields config
  in
  List.concat_map
    (fun (label, (j : W.job)) ->
      line label j j.W.config
      :: (match m.w.W.replay_under with Some c -> [ line (label ^ " replay") j c ] | None -> []))
    (W.configs m.w)

let provenance ~seed : Outfile.line =
  Outfile.
    [ ("kind", S "meta"); ("seed", I seed); ("trials", I trials); ("traced_trials", I traced_trials);
      ("domains", I (Domain.recommended_domain_count ())); ("ocaml", S Sys.ocaml_version) ]

(* {1 The full run} *)

(* Trials go round-robin over the workloads, so a slow host phase
   spreads over all of them instead of sinking one median. *)
let run_all ~seed ~size ~micro_quota =
  let ms = List.map start (W.all ~seed size) in
  let ms = List.fold_left (fun ms _ -> List.map timed_trial ms) ms (List.init trials Fun.id) in
  let ms = List.fold_left (fun ms _ -> List.map traced_trial ms) ms (List.init traced_trials Fun.id) in
  (ms, Micro.run ~quota:micro_quota)

let report ~seed (ms, micro) =
  let meta = provenance ~seed in
  Printf.printf "kard perf: seed %d, %d trials + %d traced, %d host domains, OCaml %s\n" seed trials
    traced_trials (Domain.recommended_domain_count ()) Sys.ocaml_version;
  let lines =
    List.concat_map
      (fun m ->
        let rs = rows ~micro ~applies:(Spec.applies ~workload:m.w.W.name) m in
        Printf.printf "\n== %s (%d run%s per trial)\n" m.w.W.name m.first.W.runs
          (if m.first.W.runs = 1 then "" else "s");
        let configs = config_lines m in
        List.iter
          (fun l ->
            Printf.printf "  config %s: %s\n"
              (Option.value ~default:"" (Outfile.str l "job"))
              (String.concat " "
                 (List.filter_map
                    (fun (k, v) ->
                      if List.mem k [ "kind"; "workload"; "job" ] then None
                      else Some (k ^ "=" ^ Outfile.render_value v))
                    l)))
          configs;
        List.iter print_row rs;
        List.iter
          (fun (name, r) ->
            Printf.printf "  check %-28s %s\n" name
              (match r with Ok () -> "ok" | Error e -> "FAILED: " ^ e))
          (checks m);
        configs @ List.map row_line rs @ check_lines m)
      ms
  in
  (meta :: lines, List.for_all correct ms)

(* {1 Comparing two --out files} *)

type verdict = Equal | Changed | Within | Outside | Unresolved | Info | Missing

let verdict_name = function
  | Equal -> "equal"
  | Changed -> "CHANGED"
  | Within -> "within"
  | Outside -> "OUTSIDE"
  | Unresolved -> "unresolved"
  | Info -> "info"
  | Missing -> "MISSING"

let verdict (m : Spec.metric) ~a ~b ~unresolved =
  match (a, b) with
  | None, None -> if m.Spec.exact then Equal else Info
  | None, Some _ | Some _, None -> if m.Spec.exact then Changed else Info
  | Some a, Some b ->
    if m.Spec.exact then if a = b then Equal else Changed
    else if m.Spec.bound = 0. then Info
    else if unresolved then Unresolved
    else
      let worse = match m.Spec.better with Spec.Lower -> b -. a | Spec.Higher -> a -. b in
      if worse > (m.Spec.bound *. abs_float a) +. m.Spec.floor then Outside else Within

let failing = function Changed | Outside | Missing -> true | Equal | Within | Unresolved | Info -> false

type comparison = {
  c_workload : string;
  c_metric : string;
  c_a : float option;
  c_b : float option;
  c_verdict : verdict;
}

let compare_lines (a : Outfile.line list) (b : Outfile.line list) =
  let metrics ls = List.filter (fun l -> Outfile.str l "kind" = Some "metric") ls in
  let key l = (Outfile.str l "workload", Outfile.str l "name") in
  let va l = Outfile.num l "value" in
  let b_metrics = metrics b in
  List.filter_map
    (fun la ->
      match key la with
      | Some workload, Some name -> (
        let row c_b c_verdict = { c_workload = workload; c_metric = name; c_a = va la; c_b; c_verdict } in
        match
          ( List.find_opt (fun lb -> key lb = key la) b_metrics,
            List.find_opt (fun (m : Spec.metric) -> m.Spec.name = name) Spec.all_metrics )
        with
        | _, None -> None
        | None, Some _ -> Some (row None Missing)
        | Some lb, Some m ->
          let unresolved = Outfile.bool la "unresolved" || Outfile.bool lb "unresolved" in
          Some (row (va lb) (verdict m ~a:(va la) ~b:(va lb) ~unresolved)))
      | _ -> None)
    (metrics a)

let print_comparison cs =
  let show = function Some v -> fmt_value v | None -> "-" in
  Printf.printf "%-22s %-34s %16s %16s %12s  %s\n" "workload" "metric" "A" "B" "B-A" "verdict";
  List.iter
    (fun c ->
      let diff = match (c.c_a, c.c_b) with Some a, Some b -> fmt_value (b -. a) | _ -> "-" in
      Printf.printf "%-22s %-34s %16s %16s %12s  %s\n" c.c_workload c.c_metric (show c.c_a) (show c.c_b)
        diff (verdict_name c.c_verdict))
    cs

(* {1 One workload for a fixed time} *)

let min_trials = 3

(* Trials of one workload until [seconds] have passed; with [trace],
   untraced and traced trials alternate and the microbenchmarks take the
   last 30% of the time. *)
let run_for ~seconds ~trace w =
  let budget = float_of_int seconds *. if trace then 0.7 else 1.0 in
  let deadline = W.now_ns () + int_of_float (budget *. 1e9) in
  let rec loop m n =
    if n >= min_trials && W.now_ns () >= deadline then m
    else
      let m = timed_trial m in
      loop (if trace then traced_trial m else m) (n + 1)
  in
  let m = loop (start w) 0 in
  let micro =
    if trace then Micro.run ~quota:(float_of_int seconds *. 0.3 /. float_of_int (List.length Spec.micro_names))
    else []
  in
  (m, micro)

(* The driver's last line: every BENCHMARK.json metric of the chosen
   kind, by name with its unit. *)
let driver_json ~trace (m, micro) =
  let listed = if trace then Spec.per_layer else Spec.end_to_end in
  let applies (x : Spec.metric) = x.Spec.driver && List.memq x listed in
  let rs = rows ~micro ~applies m in
  let missing = List.filter (fun r -> r.value = None) rs in
  let str s = Outfile.render_value (Outfile.S s) in
  let metric r =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (str r.metric.Spec.name)
      (Outfile.render_value (match r.value with Some v -> Outfile.F v | None -> Outfile.Null))
      (str r.metric.Spec.unit)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct m && missing = []) (attempted m) (failed m)
    (String.concat ", " (List.map metric rs))
