let mib = 1024 * 1024

let make ~name ~description ~paper ~profile =
  { Spec.name;
    category = Spec.Splash2x;
    description;
    paper;
    default_threads = 4;
    build = (fun ~threads ~scale ~seed machine -> Synth.build profile ~threads ~scale ~seed machine) }

let ocean_cp =
  let paper =
    { Spec.p_heap = 370; p_global = 30; p_ro = 2; p_rw = 2; p_total_cs = 24; p_active_cs = 2;
      p_entries = 6_664; p_baseline_s = 3.803; p_alloc_pct = -8.3; p_kard_pct = -5.9;
      p_tsan_pct = 911.4; p_rss_kb = 913_048; p_rss_kard_pct = 0.3; p_dtlb_base = 0.0003;
      p_dtlb_alloc_pct = 0.2; p_dtlb_kard_pct = 0.4 }
  in
  make ~name:"ocean_cp" ~paper
    ~description:"ocean current simulation (contiguous partitions); huge grids, few sections"
    ~profile:
      { Synth.default with
        heap_objects = 370;
        heap_size = 2048;
        globals = 30;
        sites = 24;
        locks = 8;
        entries = 6_664;
        shared_rw = 2;
        shared_ro = 2;
        rw_writes_per_entry = 1;
        ro_reads_per_entry = 1;
        block_accesses = 780_153;
        block_span = 220 * mib;
        compute = 808_322 }

let ocean_ncp =
  let paper =
    { Spec.p_heap = 16; p_global = 38; p_ro = 0; p_rw = 4; p_total_cs = 23; p_active_cs = 2;
      p_entries = 6_504; p_baseline_s = 5.631; p_alloc_pct = 0.0; p_kard_pct = 0.0;
      p_tsan_pct = 1036.2; p_rss_kb = 922_128; p_rss_kard_pct = 0.3; p_dtlb_base = 0.01149;
      p_dtlb_alloc_pct = 0.0; p_dtlb_kard_pct = 0.0 }
  in
  make ~name:"ocean_ncp" ~paper
    ~description:"ocean current simulation (non-contiguous partitions)"
    ~profile:
      { Synth.default with
        heap_objects = 16;
        heap_size = 4096;
        globals = 38;
        sites = 23;
        locks = 8;
        entries = 6_504;
        shared_rw = 4;
        shared_ro = 0;
        rw_writes_per_entry = 1;
        ro_reads_per_entry = 0;
        block_accesses = 1_345_600;
        block_span = 225 * mib;
        compute = 1_145_000 }

let raytrace =
  let paper =
    { Spec.p_heap = 6; p_global = 60; p_ro = 1; p_rw = 2; p_total_cs = 8; p_active_cs = 3;
      p_entries = 986_046; p_baseline_s = 4.355; p_alloc_pct = 1.3; p_kard_pct = 3.7;
      p_tsan_pct = 1368.6; p_rss_kb = 7_712; p_rss_kard_pct = 28.5; p_dtlb_base = 0.00002;
      p_dtlb_alloc_pct = 0.3; p_dtlb_kard_pct = 0.5 }
  in
  make ~name:"raytrace" ~paper
    ~description:"ray tracer; a million tiny work-queue critical sections"
    ~profile:
      { Synth.default with
        heap_objects = 6;
        heap_size = 4096;
        globals = 60;
        sites = 8;
        locks = 4;
        entries = 986_046;
        shared_rw = 2;
        shared_ro = 1;
        rw_writes_per_entry = 1;
        ro_reads_per_entry = 1;
        block_accesses = 9_066;
        block_span = mib + (mib / 2);
        compute = 4_741;
        min_entries = 1_500 }

let water_nsquared =
  let paper =
    { Spec.p_heap = 128_007; p_global = 87; p_ro = 96_000; p_rw = 2; p_total_cs = 17;
      p_active_cs = 4; p_entries = 96_148; p_baseline_s = 10.022; p_alloc_pct = 9.1;
      p_kard_pct = 18.0; p_tsan_pct = 698.0; p_rss_kb = 12_260; p_rss_kard_pct = 4145.9;
      p_dtlb_base = 0.00001; p_dtlb_alloc_pct = 587.3; p_dtlb_kard_pct = 890.2 }
  in
  make ~name:"water_nsquared" ~paper
    ~description:"molecular dynamics (O(n^2)); 96k tiny molecule objects read in sections"
    ~profile:
      { Synth.default with
        heap_objects = 128_007;
        heap_size = 24; (* the 32 B-granule pathology of section 7.5 *)
        globals = 87;
        sites = 17;
        locks = 8;
        entries = 96_148;
        shared_rw = 2;
        shared_ro = 96_000;
        rw_writes_per_entry = 1;
        ro_reads_per_entry = 4;
        block_accesses = 109_139;
        block_span = 2 * mib;
        compute = 164_334;
        sweep_objects = 24;
        min_entries = 1_200 }

let water_spatial =
  let paper =
    { Spec.p_heap = 37_148; p_global = 99; p_ro = 1; p_rw = 1; p_total_cs = 2; p_active_cs = 2;
      p_entries = 675; p_baseline_s = 3.259; p_alloc_pct = 2.9; p_kard_pct = 5.6;
      p_tsan_pct = 546.1; p_rss_kb = 25_324; p_rss_kard_pct = 516.9; p_dtlb_base = 0.00004;
      p_dtlb_alloc_pct = 147.1; p_dtlb_kard_pct = 172.6 }
  in
  make ~name:"water_spatial" ~paper
    ~description:"molecular dynamics (spatial decomposition); 37k molecule objects"
    ~profile:
      { Synth.default with
        heap_objects = 37_148;
        heap_size = 24;
        globals = 99;
        sites = 2;
        locks = 2;
        entries = 675;
        shared_rw = 1;
        shared_ro = 1;
        rw_writes_per_entry = 1;
        ro_reads_per_entry = 1;
        block_accesses = 3_955_000;
        block_span = 6 * mib;
        compute = 8_160_000;
        sweep_objects = 64;
        min_entries = 320 }

let radix =
  let paper =
    { Spec.p_heap = 17; p_global = 13; p_ro = 2; p_rw = 1; p_total_cs = 13; p_active_cs = 4;
      p_entries = 103; p_baseline_s = 5.173; p_alloc_pct = -1.4; p_kard_pct = -1.0;
      p_tsan_pct = 187.4; p_rss_kb = 1_051_536; p_rss_kard_pct = 0.2; p_dtlb_base = 0.00407;
      p_dtlb_alloc_pct = 0.1; p_dtlb_kard_pct = 0.1 }
  in
  make ~name:"radix" ~paper ~description:"radix sort; giant key arrays, a hundred sections"
    ~profile:
      { Synth.default with
        heap_objects = 17;
        heap_size = 8192;
        globals = 13;
        sites = 13;
        locks = 4;
        entries = 103;
        shared_rw = 1;
        shared_ro = 2;
        rw_writes_per_entry = 1;
        ro_reads_per_entry = 1;
        block_accesses = 14_120_000;
        block_span = 250 * mib;
        compute = 98_400_000;
        min_entries = 103 }

let lu_ncb =
  let paper =
    { Spec.p_heap = 12; p_global = 11; p_ro = 2; p_rw = 1; p_total_cs = 6; p_active_cs = 2;
      p_entries = 1_040; p_baseline_s = 3.917; p_alloc_pct = -5.7; p_kard_pct = -5.2;
      p_tsan_pct = 292.9; p_rss_kb = 34_952; p_rss_kard_pct = 5.9; p_dtlb_base = 0.00049;
      p_dtlb_alloc_pct = -3.7; p_dtlb_kard_pct = -3.4 }
  in
  make ~name:"lu_ncb" ~paper ~description:"LU factorization (non-contiguous blocks)"
    ~profile:
      { Synth.default with
        heap_objects = 12;
        heap_size = 16384;
        globals = 11;
        sites = 6;
        locks = 3;
        entries = 1_040;
        shared_rw = 1;
        shared_ro = 2;
        rw_writes_per_entry = 1;
        ro_reads_per_entry = 1;
        block_accesses = 1_654_600;
        block_span = 8 * mib;
        compute = 7_080_000;
        min_entries = 520 }

let lu_cb =
  let paper =
    { Spec.p_heap = 26; p_global = 10; p_ro = 0; p_rw = 3; p_total_cs = 6; p_active_cs = 2;
      p_entries = 2_080; p_baseline_s = 3.517; p_alloc_pct = -7.8; p_kard_pct = -4.7;
      p_tsan_pct = 259.0; p_rss_kb = 35_092; p_rss_kard_pct = 6.1; p_dtlb_base = 0.00003;
      p_dtlb_alloc_pct = 1.4; p_dtlb_kard_pct = 2.3 }
  in
  make ~name:"lu_cb" ~paper ~description:"LU factorization (contiguous blocks)"
    ~profile:
      { Synth.default with
        heap_objects = 26;
        heap_size = 16384;
        globals = 10;
        sites = 6;
        locks = 3;
        entries = 2_080;
        shared_rw = 3;
        shared_ro = 0;
        rw_writes_per_entry = 1;
        ro_reads_per_entry = 0;
        block_accesses = 656_935;
        block_span = 8 * mib;
        compute = 3_220_000;
        min_entries = 520 }

let barnes =
  let paper =
    { Spec.p_heap = 44; p_global = 54; p_ro = 11; p_rw = 13; p_total_cs = 5; p_active_cs = 5;
      p_entries = 1_784_848; p_baseline_s = 5.126; p_alloc_pct = 2.9; p_kard_pct = 34.1;
      p_tsan_pct = 1582.9; p_rss_kb = 68_000; p_rss_kard_pct = 3.3; p_dtlb_base = 0.00011;
      p_dtlb_alloc_pct = 3.0; p_dtlb_kard_pct = 37.1 }
  in
  make ~name:"barnes" ~paper
    ~description:"Barnes-Hut n-body; 1.8M entries over 13 contended cell objects"
    ~profile:
      { Synth.default with
        heap_objects = 44;
        heap_size = 512;
        globals = 54;
        sites = 5;
        locks = 5;
        entries = 1_784_848;
        shared_rw = 13;
        shared_ro = 11;
        rw_writes_per_entry = 2;
        ro_reads_per_entry = 2;
        block_accesses = 6_819;
        block_span = 16 * mib;
        compute = 1_600;
        cs_compute = 1_021;
        min_entries = 2_000 }

let fft =
  let paper =
    { Spec.p_heap = 11; p_global = 26; p_ro = 14; p_rw = 1; p_total_cs = 8; p_active_cs = 2;
      p_entries = 32; p_baseline_s = 2.874; p_alloc_pct = 0.7; p_kard_pct = 1.0;
      p_tsan_pct = 265.1; p_rss_kb = 789_588; p_rss_kard_pct = 0.3; p_dtlb_base = 0.00092;
      p_dtlb_alloc_pct = -0.2; p_dtlb_kard_pct = -0.2 }
  in
  make ~name:"fft" ~paper ~description:"fast Fourier transform; 32 entries over giant arrays"
    ~profile:
      { Synth.default with
        heap_objects = 11;
        heap_size = 32768;
        globals = 26;
        sites = 8;
        locks = 4;
        entries = 32;
        shared_rw = 1;
        shared_ro = 14;
        rw_writes_per_entry = 1;
        ro_reads_per_entry = 2;
        block_accesses = 35_710_000;
        block_span = 190 * mib;
        compute = 170_700_000;
        min_entries = 32 }

let all =
  [ ocean_cp; ocean_ncp; raytrace; water_nsquared; water_spatial; radix; lu_ncb; lu_cb; barnes; fft ]
