let mib = 1024 * 1024

(* No published Table 3 row exists for these (the paper omitted them);
   the zero row documents the expectation: no overhead. *)
let no_paper_row =
  { Spec.p_heap = 0; p_global = 0; p_ro = 0; p_rw = 0; p_total_cs = 0; p_active_cs = 0;
    p_entries = 0; p_baseline_s = 0.; p_alloc_pct = 0.; p_kard_pct = 0.; p_tsan_pct = 0.;
    p_rss_kb = 0; p_rss_kard_pct = 0.; p_dtlb_base = 0.; p_dtlb_alloc_pct = 0.;
    p_dtlb_kard_pct = 0. }

let make ~name ~description ~profile =
  { Spec.name;
    category = Spec.Parsec;
    description;
    paper = no_paper_row;
    default_threads = 4;
    build = (fun ~threads ~scale ~seed machine -> Synth.build profile ~threads ~scale ~seed machine) }

let lock_free_profile ~heap ~heap_size ~iterations ~block ~span ~compute =
  { Synth.default with
    Synth.heap_objects = heap;
    heap_size;
    globals = 16;
    churn_per_entry = 0.;
    sites = 0;
    locks = 0;
    entries = iterations;
    shared_rw = 0;
    shared_ro = 0;
    rw_writes_per_entry = 0;
    ro_reads_per_entry = 0;
    block_accesses = block;
    block_span = span;
    compute;
    sweep_objects = 0;
    min_entries = 200 }

let blackscholes =
  make ~name:"blackscholes" ~description:"option pricing; embarrassingly parallel, no locks"
    ~profile:
      (lock_free_profile ~heap:64 ~heap_size:4096 ~iterations:40_000 ~block:8_000
         ~span:(8 * mib) ~compute:12_000)

let swaptions =
  make ~name:"swaptions" ~description:"Monte Carlo swaption pricing; no locks"
    ~profile:
      (lock_free_profile ~heap:128 ~heap_size:1024 ~iterations:20_000 ~block:15_000
         ~span:(4 * mib) ~compute:30_000)

let canneal =
  make ~name:"canneal"
    ~description:"simulated annealing with lock-free synchronization; no lock calls"
    ~profile:
      (lock_free_profile ~heap:4_000 ~heap_size:64 ~iterations:60_000 ~block:2_500
         ~span:(64 * mib) ~compute:4_000)

let all = [ blackscholes; swaptions; canneal ]
