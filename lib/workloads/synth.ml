module Op = Kard_sched.Op
module Program = Kard_sched.Program
module Machine = Kard_sched.Machine

type profile = {
  heap_objects : int;
  heap_size : int;
  globals : int;
  global_size : int;
  churn_per_entry : float;
  churn_size : int;
  sites : int;
  locks : int;
  entries : int;
  shared_rw : int;
  shared_ro : int;
  rw_writes_per_entry : int;
  ro_reads_per_entry : int;
  block_accesses : int;
  block_span : int;
  compute : int;
  cs_compute : int;
  io : int;
  sweep_objects : int;
  min_entries : int;
}

let default =
  { heap_objects = 32;
    heap_size = 64;
    globals = 8;
    global_size = 64;
    churn_per_entry = 0.;
    churn_size = 64;
    sites = 4;
    locks = 4;
    entries = 400;
    shared_rw = 4;
    shared_ro = 4;
    rw_writes_per_entry = 1;
    ro_reads_per_entry = 1;
    block_accesses = 200;
    block_span = 4096;
    compute = 200;
    cs_compute = 0;
    io = 0;
    sweep_objects = 0;
    min_entries = 160 }

let factor p ~scale = Builder.scale_factor ~scale ~entries:p.entries ~min_entries:p.min_entries

let effective_entries p ~scale = Builder.scaled (factor p ~scale) p.entries

(* Deterministic per-iteration mixing, so runs are reproducible under
   a fixed machine seed without sharing RNG state across threads. *)
let mix idx salt = ((idx * 2654435761) lxor (salt * 40503)) land max_int

(* Writable objects are partitioned into ownership classes so that a
   given object is only ever written under one lock: class [cls] owns
   {j < n | j mod classes = cls}.  Callers pick only from a non-empty
   class ([cls < n]), and the pick is below [n]. *)
let pick_in_class ~classes ~cls ~idx ~salt n =
  let size = ((n - 1 - cls) / classes) + 1 in
  cls + (classes * (mix idx salt mod size))

(* One worker's generator state: the arena every iteration is compiled
   into, and its private buffer's two block descriptors, built once the
   worker's prologue has allocated the buffer. *)
type worker_state = {
  arena : Program.Builder.t;
  mutable read_block : Op.t;
  mutable write_block : Op.t;
}

let build p ~threads ~scale ~seed:_ machine =
  assert (threads > 0);
  let f = factor p ~scale in
  let entries = Builder.scaled f p.entries in
  (* Small object populations define the workload's sharing structure
     (e.g. barnes' 13 contended cells) and must survive scaling; only
     mass populations shrink. *)
  let scaled_count n = if n <= 64 then n else Builder.scaled f n in
  let heap_n = scaled_count p.heap_objects in
  let rw_wanted = scaled_count p.shared_rw in
  let ro_wanted = scaled_count p.shared_ro in
  (* Private buffers scale with the workload so memory ratios are
     preserved, but never below the dTLB reach (the miss behaviour of
     a large sweep must survive scaling). *)
  let span =
    if p.block_span = 0 then 0 else Int.max (64 * 4096) (Builder.scaled f p.block_span)
  in
  (* Globals are registered up front; their addresses are known now.
     Only the globals that can enter the shared pool are ever touched,
     so only those are resident. *)
  let touched_globals = Int.max 0 (rw_wanted + ro_wanted - heap_n) in
  let global_bases =
    Array.init p.globals (fun i ->
        (Machine.add_global machine ~resident:(i < touched_globals) ~site:(9000 + i)
           ~size:p.global_size)
          .Kard_alloc.Obj_meta.base)
  in
  (* Heap bases are filled by the main thread's allocation phase. *)
  let heap_bases = Array.make (Int.max 1 heap_n) 0 in
  let allocated = ref 0 in
  let pool_size = heap_n + p.globals in
  let rw_n = Int.min rw_wanted pool_size in
  let ro_n = Int.min ro_wanted (pool_size - rw_n) in
  (* Shared object [j]: heap objects first, then globals.  The first
     [rw_n] are written in sections, the next [ro_n] only read. *)
  let shared_base j = if j < heap_n then heap_bases.(j) else global_bases.(j - heap_n) in
  let obj_size j = if j < heap_n then p.heap_size else p.global_size in
  let ready () = !allocated >= heap_n in
  let entries_of_thread tid =
    (entries / threads) + (if tid < entries mod threads then 1 else 0)
  in
  let classes = Int.max 1 p.locks in
  let churn_whole = int_of_float p.churn_per_entry in
  let churn_frac = p.churn_per_entry -. float_of_int churn_whole in
  let churn_per_mille = int_of_float (churn_frac *. 1000.) in
  (* Sweep distinct non-shared heap objects individually: unique-page
     layout turns this into dTLB pressure.  Shared objects are
     excluded — touching them lock-free would be a race. *)
  let shared_heap = Int.min heap_n (rw_n + ro_n) in
  let sweepable = heap_n - shared_heap in
  let sweeps = Int.max 0 (Int.min p.sweep_objects sweepable) in
  (* At most: the churn allocs, the block, the sweep, compute, io, and
     the section with its body. *)
  let ops_per_iteration =
    churn_whole + 1 + 1 + sweeps + 2 + 3 + p.ro_reads_per_entry + (2 * p.rw_writes_per_entry)
  in
  (* One worker iteration.  [idx] is a globally unique iteration id.
     Its ops are compiled into the worker's arena, which the cursor
     drains before the next iteration resets it, so a steady-state
     iteration allocates nothing. *)
  let iteration w idx =
    let b = w.arena in
    Program.Builder.reset b;
    (* Allocation churn: request-scoped objects (alloc, touch, free). *)
    let churn_count =
      churn_whole
      + if churn_frac > 0. && mix idx 3 mod 1000 < churn_per_mille then 1 else 0
    in
    let churned = ref [] in
    for c = 0 to churn_count - 1 do
      Program.Builder.op b
        (Op.Alloc
           { size = p.churn_size;
             site = 7000 + (mix idx c mod 8);
             on_result = (fun meta -> churned := meta :: !churned) })
    done;
    (* Private streaming work (the bulk of the baseline's cycles). *)
    if p.block_accesses > 0 then
      Program.Builder.op b (if mix idx 5 mod 4 = 0 then w.write_block else w.read_block);
    for j = 0 to sweeps - 1 do
      Program.Builder.read b heap_bases.(shared_heap + ((mix idx 7 + (j * 13)) mod sweepable))
    done;
    if p.compute > 0 then Program.Builder.compute b p.compute;
    if p.io > 0 then Program.Builder.io b p.io;
    (* The critical section.  Section [site] locks [site mod locks], and
       a lock's class whose slice is empty touches nothing this entry.
       Objects are owned per lock, so sites sharing a lock share a
       slice consistently. *)
    let site = idx mod Int.max 1 p.sites in
    let lock = site mod classes in
    let has_rw = p.rw_writes_per_entry > 0 && lock < rw_n in
    let has_ro = p.ro_reads_per_entry > 0 && lock < ro_n in
    if p.cs_compute > 0 || has_rw || has_ro || p.sites > 0 then begin
      Program.Builder.lock b ~lock:(100 + lock) ~site:(10 + site);
      if p.cs_compute > 0 then Program.Builder.compute b p.cs_compute;
      if has_ro then
        for r = p.ro_reads_per_entry - 1 downto 0 do
          Program.Builder.read b
            (shared_base (rw_n + pick_in_class ~classes ~cls:lock ~idx ~salt:(13 + r) ro_n))
        done;
      if has_rw then
        for w = p.rw_writes_per_entry - 1 downto 0 do
          let j = pick_in_class ~classes ~cls:lock ~idx ~salt:(11 + w) rw_n in
          let addr = shared_base j + (8 * (mix idx w mod Int.max 1 (obj_size j / 8))) in
          Program.Builder.write b addr;
          Program.Builder.read b addr
        done;
      Program.Builder.unlock b ~lock:(100 + lock)
    end;
    if churn_count = 0 then Program.Builder.current b
    else begin
      (* Free the churned objects (request lifetime ends).  The list is
         only populated when the Alloc ops execute, so the frees are
         emitted dynamically after the arena's ops drain. *)
      let frees () =
        match !churned with
        | [] -> None
        | meta :: rest ->
          churned := rest;
          Some (Op.Free meta)
      in
      Program.append (Program.Builder.current b) (Program.of_thunk frees)
    end
  in
  let worker tid =
    let w =
      { arena = Program.Builder.create ~hint:ops_per_iteration ();
        read_block = Op.Yield;
        write_block = Op.Yield }
    in
    let prologue =
      if p.block_accesses > 0 then
        Program.of_list
          [ Op.Alloc
              { size = Int.max span 8;
                site = 8000 + tid;
                on_result =
                  (fun meta ->
                    let base = meta.Kard_alloc.Obj_meta.base in
                    w.read_block <- Builder.block ~base ~count:p.block_accesses ~span `Read;
                    w.write_block <- Builder.block ~base ~count:p.block_accesses ~span `Write) } ]
      else Program.empty
    in
    let n = entries_of_thread tid in
    let work = Program.repeat n (fun k -> iteration w ((k * threads) + tid)) in
    Program.concat [ prologue; Builder.wait_until ready; work ]
  in
  let main_thread =
    let alloc_phase =
      Builder.alloc_into_array ~n:heap_n ~size:p.heap_size ~site:7999 ~bases:heap_bases
        ~count:allocated
    in
    Program.append alloc_phase (worker 0)
  in
  let (_ : int) = Machine.spawn machine main_thread in
  for tid = 1 to threads - 1 do
    let (_ : int) = Machine.spawn machine (worker tid) in
    ()
  done
