module Page = Kard_mpk.Page
module Cost_model = Kard_mpk.Cost_model
module Mpk_hw = Kard_mpk.Mpk_hw
module Fault = Kard_mpk.Fault
module Address_space = Kard_vm.Address_space
module Phys_mem = Kard_vm.Phys_mem
module Meta_table = Kard_alloc.Meta_table
module Alloc_iface = Kard_alloc.Alloc_iface

type allocator_kind =
  | Unique_page
  | Native

type interp =
  [ `Compiled (** int-tag dispatch over compiled segments (default) *)
  | `Thunks (** option-boxed [Op.t] pulls — the oracle interpreter *) ]

type thread_status =
  | Runnable
  | Blocked (* on [blocked_lock] at section site [blocked_site] *)
  | Finished

type thread = {
  tid : int;
  cursor : Program.cursor;
  mutable status : thread_status;
  mutable blocked_lock : int; (* valid while status = Blocked *)
  mutable blocked_site : int;
  mutable dilation_base : int; (* [blocked_lock]'s stall counter at blocking *)
  mutable cycles : int;
  mutable lock_depth : int;
  mutable op_index : int;
}

type t = {
  sched : Schedule.state;
  cost : Cost_model.t;
  trace : Kard_obs.Trace.sink;
  interp : interp;
  max_steps : int;
  phys : Phys_mem.t;
  aspace : Address_space.t;
  hw : Mpk_hw.t;
  meta : Meta_table.t;
  clock : Sim_clock.t;
  locks : Lock_table.t;
  alloc : Alloc_iface.t;
  hooks : Hooks.t;
  mutable threads : thread array; (* index = tid; live prefix [0, thread_count) *)
  mutable thread_count : int;
  runnable : Runnable_set.t; (* tids with status Runnable, maintained on transitions *)
  mutable finished_count : int;
  mutable steps : int;
  mutable reads : int;
  mutable writes : int;
  mutable computes : int;
  mutable io_cycles : int;
  mutable startup_cycles : int;
  mutable in_section : int; (* threads currently holding >= 1 lock *)
  mutable max_in_section : int;
  sites_seen : Dense.Bitset.t;
  mutable started : bool;
}

exception Stuck of string

(* The step cap exists to turn a livelock (a [wait_until] that never
   holds) into [Stuck], so it must sit far above every valid run.  The
   longest is fluidanimate at full scale, 80,879,879 steps, which a
   release build runs in about 4 s on one AMD EPYC core; 2^28 is 3.3
   times that, so a livelocked run still stops within seconds. *)
let create ?(seed = 42) ?schedule ?(cost = Cost_model.default) ?trace
    ?(max_steps = 1 lsl 28) ?(interp = `Compiled) ~allocator ~make_detector () =
  let schedule = Option.value ~default:(Schedule.Random seed) schedule in
  let phys = Phys_mem.create () in
  let aspace = Address_space.create phys in
  let clock = Sim_clock.create () in
  (* Stamp every event of this run with the virtual cycle clock. *)
  Option.iter (fun tr -> Kard_obs.Trace.set_clock tr (fun () -> Sim_clock.now clock)) trace;
  let hw = Mpk_hw.create ~cost ?trace () in
  let meta = Meta_table.create () in
  let alloc =
    match allocator with
    | Unique_page ->
      Kard_alloc.Unique_page_alloc.iface
        (Kard_alloc.Unique_page_alloc.create ?trace aspace ~meta ~cost ())
    | Native -> Kard_alloc.Native_alloc.iface (Kard_alloc.Native_alloc.create aspace ~meta ~cost ())
  in
  let env = { Hooks.hw; meta; cost; now = (fun () -> Sim_clock.now clock); trace } in
  let hooks = make_detector env in
  { sched = Schedule.start schedule;
    cost;
    trace;
    interp;
    max_steps;
    phys;
    aspace;
    hw;
    meta;
    clock;
    locks = Lock_table.create ();
    alloc;
    hooks;
    threads = [||];
    thread_count = 0;
    runnable = Runnable_set.create ();
    finished_count = 0;
    steps = 0;
    reads = 0;
    writes = 0;
    computes = 0;
    io_cycles = 0;
    startup_cycles = 0;
    in_section = 0;
    max_in_section = 0;
    sites_seen = Dense.Bitset.create ();
    started = false }

let env t =
  { Hooks.hw = t.hw;
    meta = t.meta;
    cost = t.cost;
    now = (fun () -> Sim_clock.now t.clock);
    trace = t.trace }

let aspace t = t.aspace
let now t = Sim_clock.now t.clock
let trace t = t.trace

let add_global ?(resident = false) t ~site ~size =
  if t.started then invalid_arg "Machine.add_global: machine already running";
  let meta, cycles = t.alloc.Alloc_iface.alloc_global ~site ~resident size in
  let hook_cycles = t.hooks.Hooks.on_global meta in
  t.startup_cycles <- t.startup_cycles + cycles + hook_cycles;
  Sim_clock.advance t.clock (cycles + hook_cycles);
  meta

let spawn t program =
  if t.started then invalid_arg "Machine.spawn: machine already running";
  let tid = t.thread_count in
  t.thread_count <- tid + 1;
  Mpk_hw.register_thread t.hw tid;
  let hook_cycles = t.hooks.Hooks.on_spawn ~tid in
  t.startup_cycles <- t.startup_cycles + hook_cycles;
  Sim_clock.advance t.clock hook_cycles;
  (* The oracle interpreter funnels the whole program through the
     option-boxed thunk view, so every step takes the exact pull path
     the pre-compilation machine took.  Segment leaves and generator
     structure are invisible through a thunk, hence "observationally
     identical" is testable: same ops in the same order, one per
     step. *)
  let program =
    match t.interp with
    | `Compiled -> program
    | `Thunks -> Program.of_thunk (Program.to_thunk program)
  in
  let thread =
    { tid;
      cursor = Program.cursor program;
      status = Runnable;
      blocked_lock = -1;
      blocked_site = -1;
      dilation_base = 0;
      cycles = 0;
      lock_depth = 0;
      op_index = 0 }
  in
  if tid >= Array.length t.threads then begin
    let bigger = Array.make (max 4 (2 * Array.length t.threads)) thread in
    Array.blit t.threads 0 bigger 0 (Array.length t.threads);
    t.threads <- bigger
  end;
  t.threads.(tid) <- thread;
  Runnable_set.add t.runnable tid;
  tid

(* Status transitions, which are the only places the runnable set is
   touched — the step loop itself never rebuilds it. *)

let block t thread ~lock ~site =
  thread.status <- Blocked;
  thread.blocked_lock <- lock;
  thread.blocked_site <- site;
  thread.dilation_base <- Lock_table.dilation t.locks ~lock;
  Runnable_set.remove t.runnable thread.tid

let wake t thread =
  thread.status <- Runnable;
  Runnable_set.add t.runnable thread.tid

let finish t thread =
  thread.status <- Finished;
  t.finished_count <- t.finished_count + 1;
  Runnable_set.remove t.runnable thread.tid

(* Cycles spent while holding locks also stall every thread blocked on
   those locks: critical sections dilate the critical path.  This is
   what makes detection work performed inside sections (fault
   handling, key juggling) increasingly expensive as thread counts —
   and hence waiter counts — grow (the paper's Figure 5 dynamic).
   Baseline in-section compute dilates identically, so comparisons
   stay fair.

   No waiter or lock is visited here.  [Lock_table.charge_held] adds
   the cycles to the stall counters of the held locks that have
   waiters and returns the waiter count in O(1), and the clock
   advances by cycles x waiters at once.  A waiter collects its
   stall, the counter's growth since it blocked, at hand-off in
   [do_unlock] — the only way out of [Blocked].  The stall is one
   level deep: a stalled waiter's own waiters are not charged.
   DESIGN.md §5 has the argument that reports equal those of charging
   each waiter as the cycles are spent. *)
let charge t thread cycles =
  assert (cycles >= 0);
  thread.cycles <- thread.cycles + cycles;
  let waiters =
    if cycles > 0 && thread.lock_depth > 0 then
      Lock_table.charge_held t.locks ~tid:thread.tid cycles
    else 0
  in
  Sim_clock.advance t.clock (cycles * (1 + waiters))

let enter_section t thread =
  if thread.lock_depth = 0 then begin
    t.in_section <- t.in_section + 1;
    if t.in_section > t.max_in_section then t.max_in_section <- t.in_section
  end;
  thread.lock_depth <- thread.lock_depth + 1

let exit_section t thread =
  thread.lock_depth <- thread.lock_depth - 1;
  assert (thread.lock_depth >= 0);
  if thread.lock_depth = 0 then t.in_section <- t.in_section - 1

let max_fault_retries = 8

(* Perform one data access for [thread], routing faults to the
   detector and retrying as the handler directs.  A top-level
   recursive function (not a nested [attempt] closure): the granted
   path — try, charge, return — is run per simulated access and
   allocates nothing. *)
let rec access_attempt t thread addr access n emulate =
  if emulate then charge t thread t.cost.Cost_model.mem_access
  else begin
    let cycles =
      Mpk_hw.try_access t.hw ~tid:thread.tid ~addr ~access ~ip:thread.op_index
        ~time:(Sim_clock.now t.clock)
    in
    if cycles >= 0 then charge t thread cycles
    else begin
      let fault = Mpk_hw.last_fault t.hw in
      if n >= max_fault_retries then
        raise
          (Stuck
             (Format.asprintf "thread %d: access keeps faulting after %d handler rounds: %a"
                thread.tid n Fault.pp fault));
      charge t thread t.cost.Cost_model.fault_roundtrip;
      let outcome = t.hooks.Hooks.on_fault fault in
      charge t thread (Hooks.fault_cycles outcome);
      (match t.trace with
      | None -> ()
      | Some tr ->
        let latency = t.cost.Cost_model.fault_roundtrip + Hooks.fault_cycles outcome in
        Kard_obs.Trace.emit tr ~tid:thread.tid
          (Kard_obs.Event.Fault_resolved
             { addr; pkey = Kard_mpk.Pkey.to_int fault.Fault.pkey; latency });
        Kard_obs.Trace.observe t.trace "fault.roundtrip_cycles" latency);
      match Hooks.fault_action outcome with
      | Hooks.Retry -> access_attempt t thread addr access (n + 1) false
      | Hooks.Emulate -> access_attempt t thread addr access n true
    end
  end

let perform_access t thread addr access = access_attempt t thread addr access 0 false

(* dTLB reach assumed by the analytic block model; matches the
   default Tlb.create geometry. *)
let tlb_reach_pages = 64

(* Execute a block operation.  MPK semantics are page-granular, so a
   bounded sample of the spanned pages is checked for faults (a block
   targets a single object, whose pages share one key); the remaining
   accesses are charged analytically: streaming throughput cycles plus
   page-walk penalties when the buffer exceeds the dTLB reach. *)
let perform_block t thread (b : Op.block) access =
  if b.count <= 0 || b.stride <= 0 || b.span <= 0 then
    raise (Stuck "block op with non-positive count/stride/span");
  let span_pages = Page.pages_spanned b.Op.base b.Op.span in
  let total_bytes = b.Op.count * b.Op.stride in
  let pages_touched =
    Int.min span_pages (Int.max 1 ((total_bytes + Page.size - 1) / Page.size))
  in
  let sampled = Int.min pages_touched 64 in
  let step_pages = Int.max 1 (span_pages / sampled) in
  for i = 0 to sampled - 1 do
    perform_access t thread (b.Op.base + (i * step_pages * Page.size)) access
  done;
  let remaining = Int.max 0 (b.Op.count - sampled) in
  let est_misses =
    if span_pages > tlb_reach_pages then begin
      (* Every page visit misses once the sweep exceeds TLB reach. *)
      let passes = Int.max 1 (total_bytes / Int.max 1 b.Op.span) in
      Int.min remaining (Int.max 0 ((pages_touched * passes) - sampled))
    end
    else 0
  in
  Mpk_hw.note_tlb_misses t.hw ~tid:thread.tid est_misses;
  Mpk_hw.note_tlb_hits t.hw ~tid:thread.tid (remaining - est_misses);
  Mpk_hw.note_streamed_grants t.hw (Page.vpage_of_addr b.Op.base) remaining;
  let cycles =
    int_of_float (float_of_int remaining /. t.cost.Cost_model.mem_throughput)
    + (est_misses * t.cost.Cost_model.dtlb_miss)
  in
  charge t thread cycles

let thread_by_tid t tid =
  if tid < 0 || tid >= t.thread_count then
    raise (Stuck (Printf.sprintf "unknown thread %d" tid))
  else t.threads.(tid)

(* Per-operation step events are opt-in: they dominate the ring buffer
   on real workloads, so [Trace.create ~steps:true] must ask for them. *)
let emit_step t thread op addr =
  match t.trace with
  | Some tr when Kard_obs.Trace.steps tr ->
    Kard_obs.Trace.emit tr ~tid:thread.tid (Kard_obs.Event.Step { op; addr })
  | Some _ | None -> ()

(* Per-operation handlers, shared verbatim by the compiled int-tag
   dispatch and the [Op.t] interpreter [exec_op]: the two consumption
   paths differ only in how the operation and its operands reach the
   handler. *)

let do_compute t thread cycles =
  t.computes <- t.computes + 1;
  emit_step t thread `Compute 0;
  charge t thread cycles

let do_io t thread cycles =
  t.io_cycles <- t.io_cycles + cycles;
  charge t thread cycles

let do_read t thread addr =
  t.reads <- t.reads + 1;
  emit_step t thread `Read addr;
  (match t.hooks.Hooks.access with
  | Some h -> charge t thread (h.Hooks.on_read ~tid:thread.tid ~addr)
  | None -> ());
  perform_access t thread addr `Read

let do_write t thread addr =
  t.writes <- t.writes + 1;
  emit_step t thread `Write addr;
  (match t.hooks.Hooks.access with
  | Some h -> charge t thread (h.Hooks.on_write ~tid:thread.tid ~addr)
  | None -> ());
  perform_access t thread addr `Write

let do_lock t thread ~lock ~site =
  Dense.Bitset.add t.sites_seen site;
  match Lock_table.acquire t.locks ~lock ~tid:thread.tid with
  | Lock_table.Acquired ->
    charge t thread t.cost.Cost_model.lock_uncontended;
    (match t.trace with
    | None -> ()
    | Some tr ->
      Kard_obs.Trace.emit tr ~tid:thread.tid
        (Kard_obs.Event.Lock_acquire { lock; site; contended = false }));
    enter_section t thread;
    charge t thread (t.hooks.Hooks.on_lock ~tid:thread.tid ~lock ~site)
  | Lock_table.Must_wait -> block t thread ~lock ~site

let do_unlock t thread ~lock =
  charge t thread (t.hooks.Hooks.on_unlock ~tid:thread.tid ~lock);
  charge t thread t.cost.Cost_model.unlock;
  (match t.trace with
  | None -> ()
  | Some tr ->
    Kard_obs.Trace.emit tr ~tid:thread.tid (Kard_obs.Event.Lock_release { lock }));
  exit_section t thread;
  let waiter_tid = Lock_table.release t.locks ~lock ~tid:thread.tid in
  if waiter_tid >= 0 then begin
    (* Ownership transfers directly; the waiter pays the contended
       acquisition and its section-entry hook fires now. *)
    let waiter = thread_by_tid t waiter_tid in
    let site =
      match waiter.status with
      | Blocked ->
        assert (waiter.blocked_lock = lock);
        waiter.blocked_site
      | Runnable | Finished ->
        raise (Stuck (Printf.sprintf "woken thread %d was not blocked" waiter_tid))
    in
    (* The stall its holders charged while it waited. *)
    waiter.cycles <-
      waiter.cycles + Lock_table.dilation t.locks ~lock - waiter.dilation_base;
    wake t waiter;
    charge t waiter t.cost.Cost_model.lock_contended;
    (match t.trace with
    | None -> ()
    | Some tr ->
      Kard_obs.Trace.emit tr ~tid:waiter_tid
        (Kard_obs.Event.Lock_acquire { lock; site; contended = true }));
    enter_section t waiter;
    charge t waiter (t.hooks.Hooks.on_lock ~tid:waiter_tid ~lock ~site)
  end

let exec_op t thread op =
  match op with
  | Op.Compute cycles -> do_compute t thread cycles
  | Op.Io cycles -> do_io t thread cycles
  | Op.Yield -> ()
  | Op.Read addr -> do_read t thread addr
  | Op.Write addr -> do_write t thread addr
  | Op.Read_block b ->
    t.reads <- t.reads + b.Op.count;
    (match t.hooks.Hooks.access with
    | Some h -> charge t thread (h.Hooks.on_read_block ~tid:thread.tid ~block:b)
    | None -> ());
    perform_block t thread b `Read
  | Op.Write_block b ->
    t.writes <- t.writes + b.Op.count;
    (match t.hooks.Hooks.access with
    | Some h -> charge t thread (h.Hooks.on_write_block ~tid:thread.tid ~block:b)
    | None -> ());
    perform_block t thread b `Write
  | Op.Lock { lock; site } -> do_lock t thread ~lock ~site
  | Op.Unlock { lock } -> do_unlock t thread ~lock
  | Op.Alloc { size; site; on_result } ->
    let meta, cycles = t.alloc.Alloc_iface.alloc ~site size in
    charge t thread cycles;
    charge t thread (t.hooks.Hooks.on_alloc ~tid:thread.tid meta);
    on_result meta
  | Op.Free meta ->
    charge t thread (t.hooks.Hooks.on_free ~tid:thread.tid meta);
    charge t thread (t.alloc.Alloc_iface.free meta)

(* The per-step dispatch: fetch one int tag from the thread's cursor
   and branch on it, hottest tags first.  Plain operations never
   materialise an [Op.t]; only [tag_boxed] payloads (allocations,
   frees, blocks — and every op of the `Thunks oracle interpreter)
   take the [exec_op] detour. *)
let step_thread t thread =
  let cur = thread.cursor in
  let tag = Program.fetch cur in
  if tag = Program.tag_halt then begin
    finish t thread;
    if thread.lock_depth > 0 then
      raise (Stuck (Printf.sprintf "thread %d finished while holding a lock" thread.tid));
    charge t thread (t.hooks.Hooks.on_thread_exit ~tid:thread.tid)
  end
  else begin
    thread.op_index <- thread.op_index + 1;
    if tag = Program.tag_read then do_read t thread (Program.arg_a cur)
    else if tag = Program.tag_write then do_write t thread (Program.arg_a cur)
    else if tag = Program.tag_compute then do_compute t thread (Program.arg_a cur)
    else if tag = Program.tag_lock then
      do_lock t thread ~lock:(Program.arg_a cur) ~site:(Program.arg_b cur)
    else if tag = Program.tag_unlock then do_unlock t thread ~lock:(Program.arg_a cur)
    else if tag = Program.tag_io then do_io t thread (Program.arg_a cur)
    else if tag = Program.tag_yield then ()
    else exec_op t thread (Program.boxed_op cur)
  end

(* Modeled RSS: data frames + last-level page tables + allocator
   metadata + detector metadata (paper section 7.5). *)
let allocator_metadata_per_object = 48

let rss_components t =
  (* RSS counts resident pages once per mapping (like /proc), so
     unique virtual pages dominate even when physically consolidated —
     the mechanism behind the paper's section 7.5 numbers. *)
  let data =
    max (Address_space.peak_mapped_pages t.aspace * Page.size)
      (Phys_mem.peak_resident_bytes t.phys)
  in
  let page_tables = Address_space.peak_page_table_pages t.aspace * Page.size in
  let alloc_stats = t.alloc.Alloc_iface.stats () in
  let alloc_meta =
    (alloc_stats.Alloc_iface.allocations + alloc_stats.Alloc_iface.global_allocations)
    * allocator_metadata_per_object
  in
  let detector_meta = t.hooks.Hooks.metadata_bytes () in
  (data, page_tables, alloc_meta, detector_meta)

type report = {
  detector_name : string;
  cycles : int;
  io_cycles : int;
  wall_cycles : int;
  steps : int;
  reads : int;
  writes : int;
  computes : int;
  cs_entries : int;
  contended_entries : int;
  unique_sections : int;
  max_concurrent_sections : int;
  faults : int;
  rss_bytes : int;
  data_rss_bytes : int;
  page_table_bytes : int;
  detector_metadata_bytes : int;
  dtlb_accesses : int;
  dtlb_misses : int;
  dtlb_miss_rate : float;
  alloc_stats : Alloc_iface.stats;
  hw_stats : Mpk_hw.stats;
  per_thread_cycles : int array;
  schedule_trace : int array;
}

let report_of t =
  let hw_stats = Mpk_hw.stats t.hw in
  let data, page_tables, alloc_meta, detector_meta = rss_components t in
  let per_thread = Array.init t.thread_count (fun tid -> t.threads.(tid).cycles) in
  let wall = Array.fold_left max 0 per_thread in
  { detector_name = t.hooks.Hooks.name;
    cycles = Sim_clock.now t.clock;
    io_cycles = t.io_cycles;
    wall_cycles = wall;
    steps = t.steps;
    reads = t.reads;
    writes = t.writes;
    computes = t.computes;
    cs_entries = Lock_table.total_acquires t.locks;
    contended_entries = Lock_table.contended_acquires t.locks;
    unique_sections = Dense.Bitset.count t.sites_seen;
    max_concurrent_sections = t.max_in_section;
    faults = hw_stats.Mpk_hw.faults;
    rss_bytes = data + page_tables + alloc_meta + detector_meta;
    data_rss_bytes = data;
    page_table_bytes = page_tables;
    detector_metadata_bytes = detector_meta;
    dtlb_accesses = hw_stats.Mpk_hw.dtlb_accesses;
    dtlb_misses = hw_stats.Mpk_hw.dtlb_misses;
    dtlb_miss_rate =
      Mpk_hw.miss_rate ~misses:hw_stats.Mpk_hw.dtlb_misses
        ~accesses:hw_stats.Mpk_hw.dtlb_accesses;
    alloc_stats = t.alloc.Alloc_iface.stats ();
    hw_stats;
    per_thread_cycles = per_thread;
    schedule_trace = Schedule.recorded t.sched }

let run t =
  t.started <- true;
  (* The hot loop: per step, one O(1) pick from the incrementally
     maintained runnable set, one array index, one cursor fetch —
     nothing here scans the thread population or allocates. *)
  let rec loop () =
    if Runnable_set.cardinal t.runnable = 0 then
      (if t.finished_count < t.thread_count then
         raise (Stuck "deadlock: threads blocked with no runnable thread"))
    else begin
      t.steps <- t.steps + 1;
      if t.steps > t.max_steps then
        raise (Stuck (Printf.sprintf "max_steps (%d) exceeded" t.max_steps));
      let tid = Schedule.pick t.sched ~runnable:t.runnable in
      t.hooks.Hooks.on_pick ~tid;
      step_thread t (thread_by_tid t tid);
      loop ()
    end
  in
  loop ();
  t.hooks.Hooks.on_finish ();
  report_of t
