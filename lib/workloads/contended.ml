let no_paper_row =
  { Spec.p_heap = 0; p_global = 0; p_ro = 0; p_rw = 0; p_total_cs = 0; p_active_cs = 0;
    p_entries = 0; p_baseline_s = 0.; p_alloc_pct = 0.; p_kard_pct = 0.; p_tsan_pct = 0.;
    p_rss_kb = 0; p_rss_kard_pct = 0.; p_dtlb_base = 0.; p_dtlb_alloc_pct = 0.;
    p_dtlb_kard_pct = 0. }

(* Every iteration is one critical section on the single global lock,
   with a long run of in-section accesses to the one shared cell.  In
   steady state one thread holds the lock and every other thread is
   queued on it, so every in-section charge stalls the whole queue:
   the lock's stall counter and the clock's cycles x waiters step run
   at their widest, and each hand-off credits one waiter (DESIGN.md
   §5, §10). *)
let convoy_profile =
  { Synth.default with
    Synth.heap_objects = 1;
    heap_size = 64;
    globals = 0;
    churn_per_entry = 0.;
    sites = 1;
    locks = 1;
    entries = 9_600;
    shared_rw = 1;
    shared_ro = 0;
    rw_writes_per_entry = 32;
    ro_reads_per_entry = 0;
    block_accesses = 0;
    block_span = 0;
    compute = 0;
    cs_compute = 0;
    io = 0;
    sweep_objects = 0;
    min_entries = 640 }

let convoy =
  { Spec.name = "convoy";
    category = Spec.Real_world;
    description = "64 threads convoying on one lock: worst-case waiter dilation";
    paper = no_paper_row;
    default_threads = 64;
    build =
      (fun ~threads ~scale ~seed machine ->
        Synth.build convoy_profile ~threads ~scale ~seed machine) }

let all = [ convoy ]
