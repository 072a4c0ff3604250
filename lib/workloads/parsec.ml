let mib = 1024 * 1024

let make ~name ~description ~paper ~profile =
  { Spec.name;
    category = Spec.Parsec;
    description;
    paper;
    default_threads = 4;
    build = (fun ~threads ~scale ~seed machine -> Synth.build profile ~threads ~scale ~seed machine) }

let streamcluster =
  let paper =
    { Spec.p_heap = 1_818; p_global = 20; p_ro = 0; p_rw = 1; p_total_cs = 6; p_active_cs = 3;
      p_entries = 115_760; p_baseline_s = 4.96; p_alloc_pct = 0.1; p_kard_pct = 0.3;
      p_tsan_pct = 2264.7; p_rss_kb = 12_592; p_rss_kard_pct = 6.1; p_dtlb_base = 0.00013;
      p_dtlb_alloc_pct = 5.1; p_dtlb_kard_pct = 9.2 }
  in
  make ~name:"streamcluster" ~paper
    ~description:"online clustering; barrier-heavy, one shared counter under locks"
    ~profile:
      { Synth.default with
        heap_objects = 192;
        heap_size = 64;
        churn_per_entry = 0.014; (* the other ~1,626 allocations churn *)
        churn_size = 64;
        globals = 20;
        sites = 6;
        locks = 6;
        entries = 115_760;
        shared_rw = 1;
        shared_ro = 0;
        rw_writes_per_entry = 1;
        ro_reads_per_entry = 0;
        block_accesses = 145_565;
        block_span = 3 * mib;
        compute = 17_191;
        sweep_objects = 0 }

let x264 =
  let paper =
    { Spec.p_heap = 15; p_global = 420; p_ro = 0; p_rw = 0; p_total_cs = 2; p_active_cs = 2;
      p_entries = 33_521; p_baseline_s = 1.749; p_alloc_pct = 0.4; p_kard_pct = 3.0;
      p_tsan_pct = 485.3; p_rss_kb = 29_732; p_rss_kard_pct = 2.0; p_dtlb_base = 0.0002;
      p_dtlb_alloc_pct = 0.6; p_dtlb_kard_pct = 2.6 }
  in
  make ~name:"x264" ~paper
    ~description:"video encoder; frame queue locks, no shared objects inside sections"
    ~profile:
      { Synth.default with
        heap_objects = 15;
        heap_size = 4096;
        globals = 420;
        global_size = 64;
        sites = 2;
        locks = 2;
        entries = 33_521;
        shared_rw = 0;
        shared_ro = 0;
        rw_writes_per_entry = 0;
        ro_reads_per_entry = 0;
        block_accesses = 37_983;
        block_span = 7 * mib;
        compute = 90_585 }

let vips =
  let paper =
    { Spec.p_heap = 102; p_global = 3_933; p_ro = 377; p_rw = 213; p_total_cs = 5; p_active_cs = 2;
      p_entries = 37; p_baseline_s = 2.145; p_alloc_pct = 0.6; p_kard_pct = 1.3;
      p_tsan_pct = 889.8; p_rss_kb = 24_360; p_rss_kard_pct = 3.3; p_dtlb_base = 0.00042;
      p_dtlb_alloc_pct = 0.7; p_dtlb_kard_pct = 3.8 }
  in
  make ~name:"vips" ~paper
    ~description:"image pipeline; very few section entries over many shared globals"
    ~profile:
      { Synth.default with
        heap_objects = 102;
        heap_size = 256;
        globals = 600; (* of the 3,933 globals, the shared ones matter *)
        global_size = 64;
        sites = 5;
        locks = 5;
        entries = 37;
        shared_rw = 213;
        shared_ro = 377;
        rw_writes_per_entry = 24;
        ro_reads_per_entry = 40;
        block_accesses = 77_390_000;
        block_span = 6 * mib;
        compute = 83_070_000;
        min_entries = 37 }

let bodytrack =
  let paper =
    { Spec.p_heap = 8_717; p_global = 125; p_ro = 7; p_rw = 48; p_total_cs = 8; p_active_cs = 1;
      p_entries = 56_196; p_baseline_s = 3.268; p_alloc_pct = 4.1; p_kard_pct = 10.4;
      p_tsan_pct = 655.6; p_rss_kb = 20_224; p_rss_kard_pct = 123.2; p_dtlb_base = 0.00003;
      p_dtlb_alloc_pct = 21.9; p_dtlb_kard_pct = 55.2 }
  in
  make ~name:"bodytrack" ~paper
    ~description:"particle-filter body tracking; thousands of small particle objects"
    ~profile:
      { Synth.default with
        heap_objects = 6_200;
        heap_size = 128;
        churn_per_entry = 0.045; (* ~2,500 further allocations churn *)
        churn_size = 128;
        globals = 125;
        sites = 8;
        locks = 8;
        entries = 56_196;
        shared_rw = 48;
        shared_ro = 7;
        rw_writes_per_entry = 2;
        ro_reads_per_entry = 1;
        block_accesses = 57_188;
        block_span = 4 * mib;
        compute = 93_530;
        sweep_objects = 48 }

let fluidanimate =
  let paper =
    { Spec.p_heap = 135_438; p_global = 25; p_ro = 24; p_rw = 5; p_total_cs = 8; p_active_cs = 4;
      p_entries = 4_402_000; p_baseline_s = 3.251; p_alloc_pct = 19.6; p_kard_pct = 61.9;
      p_tsan_pct = 1222.3; p_rss_kb = 374_760; p_rss_kard_pct = 142.6; p_dtlb_base = 0.00018;
      p_dtlb_alloc_pct = 32.3; p_dtlb_kard_pct = 72.0 }
  in
  make ~name:"fluidanimate" ~paper
    ~description:"fluid simulation; millions of tiny critical sections over cell locks"
    ~profile:
      { Synth.default with
        heap_objects = 135_438;
        heap_size = 32;
        globals = 25;
        sites = 8;
        locks = 8;
        entries = 4_402_000;
        shared_rw = 5;
        shared_ro = 24;
        rw_writes_per_entry = 1;
        ro_reads_per_entry = 1;
        block_accesses = 1_354;
        block_span = 48 * mib;
        compute = 874;
        sweep_objects = 12;
        min_entries = 2_000 }

let all = [ streamcluster; x264; vips; bodytrack; fluidanimate ]
