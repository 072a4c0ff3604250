(* Tests for the simulated machine: programs, locks, scheduling,
   block operations and cycle accounting. *)

module Op = Kard_sched.Op
module Program = Kard_sched.Program
module Lock_table = Kard_sched.Lock_table
module Machine = Kard_sched.Machine
module Hooks = Kard_sched.Hooks
module Sim_clock = Kard_sched.Sim_clock

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* {1 Program combinators} *)

let ops_of = Program.to_list

let test_program_of_list () =
  let p = Program.of_list [ Op.Compute 1; Op.Compute 2 ] in
  check_int "two ops" 2 (List.length (ops_of p));
  (* Compiled segments are pure data: a fresh cursor replays them
     (generator state, by contrast, stays one-shot — see repeat). *)
  check_int "segments replay" 2 (List.length (ops_of p))

let test_program_append_concat () =
  let p =
    Program.concat
      [ Program.of_list [ Op.Compute 1 ];
        Program.empty;
        Program.append (Program.of_list [ Op.Compute 2 ]) (Program.of_list [ Op.Compute 3 ]) ]
  in
  check_int "three ops" 3 (List.length (ops_of p))

let test_program_repeat_lazy () =
  let built = ref 0 in
  let p =
    Program.repeat 3 (fun i ->
        incr built;
        Program.of_list [ Op.Compute (i + 1) ])
  in
  check_int "nothing built yet" 0 !built;
  let ops = ops_of p in
  check_int "three ops" 3 (List.length ops);
  check_int "all bodies built" 3 !built;
  check "ordered" true
    (match ops with
    | [ Op.Compute 1; Op.Compute 2; Op.Compute 3 ] -> true
    | _ -> false)

let test_program_unfold () =
  let p = Program.unfold (fun n -> if n = 0 then None else Some (Op.Compute n, n - 1)) 3 in
  check_int "three ops" 3 (List.length (ops_of p))

let test_program_delay () =
  let cell = ref 0 in
  let p =
    Program.append
      (Program.of_list [ Op.Alloc { size = 8; site = 0; on_result = (fun _ -> cell := 7) } ])
      (Program.delay (fun () -> Program.of_list [ Op.Compute !cell ]))
  in
  (* Without a machine, simulate the pull order manually. *)
  let pull = Program.to_thunk p in
  (match pull () with
  | Some (Op.Alloc { on_result; _ }) ->
    on_result
      { Kard_alloc.Obj_meta.id = 0; base = 0x10000; size = 8; reserved = 32;
        kind = Kard_alloc.Obj_meta.Heap 0; pages = 1 }
  | _ -> Alcotest.fail "expected alloc");
  (match pull () with
  | Some (Op.Compute 7) -> ()
  | _ -> Alcotest.fail "delay must see the alloc's effect")

let test_program_with_setup () =
  let ran = ref false in
  let p = Program.with_setup (fun () -> ran := true) (Program.of_list [ Op.Yield ]) in
  let pull = Program.to_thunk p in
  check "setup lazy" false !ran;
  ignore (pull ());
  check "setup ran" true !ran

(* {1 Runnable_set} *)

module Runnable_set = Kard_sched.Runnable_set

let test_runnable_set_basic () =
  let s = Runnable_set.create ~capacity:4 () in
  check_int "empty" 0 (Runnable_set.cardinal s);
  check "min of empty" true (Runnable_set.min_elt s = None);
  List.iter (Runnable_set.add s) [ 3; 0; 2 ];
  check_int "three members" 3 (Runnable_set.cardinal s);
  Runnable_set.add s 2;
  check_int "add is idempotent" 3 (Runnable_set.cardinal s);
  check "mem" true (Runnable_set.mem s 2);
  check "not mem" false (Runnable_set.mem s 1);
  check "ascending" true (Runnable_set.to_list s = [ 0; 2; 3 ]);
  Runnable_set.remove s 2;
  Runnable_set.remove s 2;
  check "removed" true (Runnable_set.to_list s = [ 0; 3 ])

let test_runnable_set_order_statistics () =
  let s = Runnable_set.create ~capacity:8 () in
  List.iter (Runnable_set.add s) [ 5; 1; 7; 3 ];
  check_int "0th largest" 7 (Runnable_set.kth_largest s 0);
  check_int "1st largest" 5 (Runnable_set.kth_largest s 1);
  check_int "3rd largest" 1 (Runnable_set.kth_largest s 3);
  check_int "0th smallest" 1 (Runnable_set.kth_smallest s 0);
  check "first above 3" true (Runnable_set.first_above s 3 = Some 5);
  check "first above -1 is min" true (Runnable_set.first_above s (-1) = Some 1);
  check "first above max" true (Runnable_set.first_above s 7 = None);
  check "min/max" true (Runnable_set.min_elt s = Some 1 && Runnable_set.max_elt s = Some 7);
  check "kth out of range" true
    (try
       ignore (Runnable_set.kth_largest s 4);
       false
     with Invalid_argument _ -> true)

let test_runnable_set_grows () =
  let s = Runnable_set.create ~capacity:2 () in
  Runnable_set.add s 1;
  Runnable_set.add s 77;
  Runnable_set.add s 40;
  check "grown members" true (Runnable_set.to_list s = [ 1; 40; 77 ]);
  check_int "largest after growth" 77 (Runnable_set.kth_largest s 0);
  check "membership preserved" true (Runnable_set.mem s 1)

(* The scheduler calls these on every step and every status
   transition (DESIGN.md §5): once the arrays have their size, none of
   them allocates.  The bound leaves room for boxing the float that
   [Gc.minor_words] returns; 20,000 calls that allocated even one word
   each would exceed it. *)
let test_runnable_set_allocation_free () =
  let s = Runnable_set.create ~capacity:64 () in
  let rng = Random.State.make [| 3 |] in
  let ids = Array.init 20_000 (fun _ -> Random.State.int rng 64) in
  let before = Gc.minor_words () in
  for i = 0 to Array.length ids - 1 do
    let id = ids.(i) in
    if i land 1 = 0 then Runnable_set.add s id else Runnable_set.remove s id;
    let n = Runnable_set.cardinal s in
    if n > 0 then ignore (Runnable_set.kth_largest s (id mod n) : int)
  done;
  let words = Gc.minor_words () -. before in
  if words > 16. then Alcotest.failf "add, remove and kth_largest allocated %.0f words" words

let test_runnable_set_exhaustive_vs_list () =
  (* Cross-check every query against a sorted-list oracle over a
     random add/remove trace.  Ids stay below 50, so 1000 lies past
     any capacity the set grows to. *)
  let rng = Random.State.make [| 7 |] in
  let s = Runnable_set.create ~capacity:4 () in
  let reference = ref [] in
  let past = 1000 in
  for _ = 1 to 2000 do
    let id = Random.State.int rng 50 in
    if Random.State.bool rng then begin
      Runnable_set.add s id;
      if not (List.mem id !reference) then
        reference := List.sort Int.compare (id :: !reference)
    end
    else begin
      Runnable_set.remove s id;
      reference := List.filter (fun x -> x <> id) !reference
    end;
    let members = !reference in
    let n = List.length members in
    if Runnable_set.cardinal s <> n then Alcotest.fail "cardinal diverged";
    if Runnable_set.to_list s <> members then Alcotest.fail "contents diverged";
    List.iteri
      (fun k x ->
        if Runnable_set.kth_smallest s k <> x then Alcotest.fail "kth_smallest diverged";
        if Runnable_set.kth_largest s (n - 1 - k) <> x then Alcotest.fail "kth_largest diverged")
      members;
    for v = -1 to 50 do
      if Runnable_set.mem s v <> List.mem v members then Alcotest.fail "mem diverged"
    done;
    if Runnable_set.mem s past then Alcotest.fail "mem past capacity";
    if Runnable_set.min_elt s <> List.nth_opt members 0 then Alcotest.fail "min_elt diverged";
    if Runnable_set.max_elt s <> List.nth_opt (List.rev members) 0 then
      Alcotest.fail "max_elt diverged";
    List.iter
      (fun v ->
        if Runnable_set.first_above s v <> List.find_opt (fun x -> x > v) members then
          Alcotest.fail (Printf.sprintf "first_above %d diverged" v))
      ((-1) :: past :: members)
  done

(* {1 Lock_table} *)

let rejects f =
  try
    ignore (f () : int option);
    false
  with Invalid_argument _ -> true

let test_lock_acquire_release () =
  let lt = Lock_table.create () in
  check "acquire free" true (Lock_table.acquire lt ~lock:1 ~tid:0 = Lock_table.Acquired);
  check "second must wait" true (Lock_table.acquire lt ~lock:1 ~tid:1 = Lock_table.Must_wait);
  check "owner" true (rejects (fun () -> Lock_table.release lt ~lock:1 ~tid:1));
  (match Lock_table.release lt ~lock:1 ~tid:0 with
  | Some 1 -> ()
  | _ -> Alcotest.fail "ownership should transfer to waiter");
  check "waiter owns" true (rejects (fun () -> Lock_table.release lt ~lock:1 ~tid:0));
  check "release to none" true (Lock_table.release lt ~lock:1 ~tid:1 = None)

let test_lock_fifo () =
  let lt = Lock_table.create () in
  ignore (Lock_table.acquire lt ~lock:1 ~tid:0);
  ignore (Lock_table.acquire lt ~lock:1 ~tid:1);
  ignore (Lock_table.acquire lt ~lock:1 ~tid:2);
  check "first waiter first" true (Lock_table.release lt ~lock:1 ~tid:0 = Some 1);
  check "then second" true (Lock_table.release lt ~lock:1 ~tid:1 = Some 2)

let test_lock_errors () =
  let lt = Lock_table.create () in
  ignore (Lock_table.acquire lt ~lock:1 ~tid:0);
  check "relock rejected" true
    (try
       ignore (Lock_table.acquire lt ~lock:1 ~tid:0);
       false
     with Invalid_argument _ -> true);
  check "foreign release rejected" true
    (rejects (fun () -> Lock_table.release lt ~lock:1 ~tid:5));
  check "free release rejected" true
    (rejects (fun () -> Lock_table.release lt ~lock:99 ~tid:0))

(* [charge_held] moves the stall counter of each lock [tid] holds that
   has waiters, and counts those waiters.  [stalled] returns the count
   and the moved locks among [1; 2; 3]. *)
let stalled lt ~tid =
  let locks = [ 1; 2; 3 ] in
  let before = List.map (fun lock -> Lock_table.dilation lt ~lock) locks in
  let waiters = Lock_table.charge_held lt ~tid 1 in
  ( waiters,
    List.filteri (fun i lock -> Lock_table.dilation lt ~lock > List.nth before i) locks )

let test_lock_stats () =
  let lt = Lock_table.create () in
  ignore (Lock_table.acquire lt ~lock:1 ~tid:0);
  ignore (Lock_table.acquire lt ~lock:1 ~tid:1);
  ignore (Lock_table.acquire lt ~lock:2 ~tid:2);
  check_int "total" 3 (Lock_table.total_acquires lt);
  check_int "contended" 1 (Lock_table.contended_acquires lt);
  check "held lock with a waiter" true (stalled lt ~tid:0 = (1, [ 1 ]));
  check "held lock without waiters" true (stalled lt ~tid:2 = (0, []))

let test_lock_nested_holds () =
  let lt = Lock_table.create () in
  ignore (Lock_table.acquire lt ~lock:1 ~tid:0);
  ignore (Lock_table.acquire lt ~lock:2 ~tid:0);
  ignore (Lock_table.acquire lt ~lock:3 ~tid:1);
  List.iter (fun (lock, tid) -> ignore (Lock_table.acquire lt ~lock ~tid)) [ (1, 5); (2, 6); (3, 7) ];
  check "nested holds" true (stalled lt ~tid:0 = (2, [ 1; 2 ]));
  check "other thread isolated" true (stalled lt ~tid:1 = (1, [ 3 ]));
  check "a waiter holds nothing" true (stalled lt ~tid:5 = (0, []));
  check "hand-off to the waiter" true (Lock_table.release lt ~lock:2 ~tid:0 = Some 6);
  check "hand-off leaves the releaser's other lock" true (stalled lt ~tid:0 = (1, [ 1 ]));
  (* A contended hand-off moves the lock, and its other waiters, to
     the waiter. *)
  ignore (Lock_table.acquire lt ~lock:1 ~tid:1);
  check "waiter not yet an owner" true (stalled lt ~tid:1 = (1, [ 3 ]));
  check "first waiter first" true (Lock_table.release lt ~lock:1 ~tid:0 = Some 5);
  check "releaser holds nothing" true (stalled lt ~tid:0 = (0, []));
  check "transferred lock charged to the waiter" true (stalled lt ~tid:5 = (1, [ 1 ]))

let test_lock_waiter_iteration () =
  let lt = Lock_table.create () in
  ignore (Lock_table.acquire lt ~lock:9 ~tid:0);
  ignore (Lock_table.acquire lt ~lock:9 ~tid:2);
  ignore (Lock_table.acquire lt ~lock:9 ~tid:1);
  check_int "two waiters" 2 (Lock_table.charge_held lt ~tid:0 10);
  check_int "counter moved by the cycles" 10 (Lock_table.dilation lt ~lock:9);
  check "FIFO order" true
    (Lock_table.release lt ~lock:9 ~tid:0 = Some 2 && Lock_table.release lt ~lock:9 ~tid:2 = Some 1);
  check_int "last waiter owns it, none left" 0 (Lock_table.charge_held lt ~tid:1 10);
  check_int "no waiters, counter still" 10 (Lock_table.dilation lt ~lock:9);
  check_int "unknown lock has no stall" 0 (Lock_table.dilation lt ~lock:404);
  check_int "a thread never seen holds nothing" 0 (Lock_table.charge_held lt ~tid:404 10)

(* The counter counts only cycles charged while the lock has waiters:
   an owner's charges before its first waiter queues, and after its
   last waiter took over, leave it still. *)
let test_lock_counter_opens_at_first_waiter () =
  let lt = Lock_table.create () in
  ignore (Lock_table.acquire lt ~lock:4 ~tid:0);
  check_int "no waiters yet" 0 (Lock_table.charge_held lt ~tid:0 100);
  check_int "counter still" 0 (Lock_table.dilation lt ~lock:4);
  ignore (Lock_table.acquire lt ~lock:4 ~tid:1);
  check_int "one waiter" 1 (Lock_table.charge_held lt ~tid:0 7);
  check_int "only the cycles since it queued" 7 (Lock_table.dilation lt ~lock:4);
  check "hand-off" true (Lock_table.release lt ~lock:4 ~tid:0 = Some 1);
  check_int "the new owner has no waiters" 0 (Lock_table.charge_held lt ~tid:1 50);
  check_int "counter still after hand-off" 7 (Lock_table.dilation lt ~lock:4);
  ignore (Lock_table.acquire lt ~lock:4 ~tid:0);
  check_int "a new waiter opens it again" 1 (Lock_table.charge_held lt ~tid:1 3);
  check_int "from where it stood" 10 (Lock_table.dilation lt ~lock:4)

(* The walk [charge_held] replaced, kept as its reference: each lock's
   owner, FIFO waiters and stall counter, and a charge that visits
   every lock the thread owns and adds the cycles to each one with
   waiters. *)
module Walk = struct
  type t = {
    owner : int array;
    waiters : int Queue.t array;
    dilated : int array;
  }

  let create ~locks =
    { owner = Array.make locks (-1);
      waiters = Array.init locks (fun _ -> Queue.create ());
      dilated = Array.make locks 0 }

  let acquire w ~lock ~tid =
    if w.owner.(lock) = -1 then (w.owner.(lock) <- tid; true)
    else (Queue.push tid w.waiters.(lock); false)

  let release w ~lock =
    match Queue.take_opt w.waiters.(lock) with
    | None -> w.owner.(lock) <- -1; None
    | Some next -> w.owner.(lock) <- next; Some next

  let dilate w ~tid cycles =
    let waiting = ref 0 in
    Array.iteri
      (fun lock owner ->
        let n = Queue.length w.waiters.(lock) in
        if owner = tid && n > 0 then begin
          w.dilated.(lock) <- w.dilated.(lock) + cycles;
          waiting := !waiting + n
        end)
      w.owner;
    !waiting
end

(* Random lock traffic over 4 threads and 4 locks, charged as the
   machine charges: a charge reaches the table only while the thread
   is in a section ([depth > 0]), so the uncontended acquire's and the
   contended hand-off's charges, which run before the section is
   entered, reach it only when the thread already holds another lock.
   Every waiter count [charge_held] returns, every waiter's stall (the
   counter's growth from blocking to hand-off) and the final counters
   must equal the walk's.  Threads take locks in ascending order, so
   the traffic never deadlocks. *)
let test_lock_charge_model () =
  let threads = 4 and locks = 4 in
  let rng = Random.State.make [| 2024 |] in
  for _ = 1 to 300 do
    let lt = Lock_table.create () and w = Walk.create ~locks in
    let depth = Array.make threads 0 in
    let held = Array.make threads [] in
    let blocked = Array.make threads None in (* (lock, table base, walk base) *)
    let charge tid cycles =
      if cycles > 0 && depth.(tid) > 0 then
        check_int "waiter count" (Walk.dilate w ~tid cycles)
          (Lock_table.charge_held lt ~tid cycles)
    in
    let enter tid lock =
      charge tid (Random.State.int rng 5);
      depth.(tid) <- depth.(tid) + 1;
      held.(tid) <- lock :: held.(tid);
      charge tid (Random.State.int rng 5)
    in
    for _ = 1 to 60 do
      let runnable = List.filter (fun tid -> blocked.(tid) = None) (List.init threads Fun.id) in
      let tid = List.nth runnable (Random.State.int rng (List.length runnable)) in
      let top = List.fold_left max (-1) held.(tid) in
      match Random.State.int rng 3 with
      | 0 when top < locks - 1 ->
        let lock = top + 1 + Random.State.int rng (locks - 1 - top) in
        let acquired = Walk.acquire w ~lock ~tid in
        (match Lock_table.acquire lt ~lock ~tid with
        | Lock_table.Acquired ->
          check "both grant" true acquired;
          enter tid lock
        | Lock_table.Must_wait ->
          check "both queue" false acquired;
          blocked.(tid) <- Some (lock, Lock_table.dilation lt ~lock, w.Walk.dilated.(lock)))
      | 1 when held.(tid) <> [] ->
        let lock = List.nth held.(tid) (Random.State.int rng (List.length held.(tid))) in
        charge tid (Random.State.int rng 5);
        depth.(tid) <- depth.(tid) - 1;
        held.(tid) <- List.filter (( <> ) lock) held.(tid);
        let next = Walk.release w ~lock in
        check "same hand-off" true (Lock_table.release lt ~lock ~tid = next);
        Option.iter
          (fun waiter ->
            match blocked.(waiter) with
            | Some (l, base, walk_base) when l = lock ->
              check_int "stall from block to hand-off" (w.Walk.dilated.(lock) - walk_base)
                (Lock_table.dilation lt ~lock - base);
              blocked.(waiter) <- None;
              enter waiter lock
            | _ -> Alcotest.fail "hand-off to a thread not waiting on the lock")
          next
      | _ -> charge tid (Random.State.int rng 200)
    done;
    for lock = 0 to locks - 1 do
      check_int "counter" w.Walk.dilated.(lock) (Lock_table.dilation lt ~lock)
    done
  done

(* {1 Machine} *)

let null_machine ?(seed = 1) () =
  Machine.create ~seed ~allocator:Machine.Native
    ~make_detector:(fun _ -> Hooks.null ~name:"test")
    ()

let test_machine_compute_io () =
  let m = null_machine () in
  let (_ : int) = Machine.spawn m (Program.of_list [ Op.Compute 100; Op.Io 50 ]) in
  let r = Machine.run m in
  check_int "cycles" 150 r.Machine.cycles;
  check_int "io cycles" 50 r.Machine.io_cycles;
  check_int "steps" 3 r.Machine.steps (* two ops + final None *)

let test_machine_alloc_and_access () =
  let m = null_machine () in
  let base = ref 0 in
  let prog =
    Program.concat
      [ Program.of_list
          [ Op.Alloc { size = 64; site = 1; on_result = (fun meta -> base := meta.Kard_alloc.Obj_meta.base) } ];
        Program.delay (fun () -> Program.of_list [ Op.Write !base; Op.Read !base ]) ]
  in
  let (_ : int) = Machine.spawn m prog in
  let r = Machine.run m in
  check_int "one read" 1 r.Machine.reads;
  check_int "one write" 1 r.Machine.writes;
  check_int "no faults" 0 r.Machine.faults

let test_machine_lock_cs_stats () =
  let m = null_machine () in
  let cs = Kard_workloads.Builder.critical_section ~lock:1 ~site:9 [ Op.Compute 10 ] in
  let (_ : int) = Machine.spawn m (Program.of_list (cs @ cs)) in
  let (_ : int) = Machine.spawn m (Program.of_list cs) in
  let r = Machine.run m in
  check_int "three entries" 3 r.Machine.cs_entries;
  check_int "one site" 1 r.Machine.unique_sections

let test_machine_deadlock_detected () =
  let m = null_machine () in
  (* Two threads each grab one lock then want the other's: with the
     right schedule this deadlocks; with others it completes.  Use a
     schedule-independent deadlock: each thread takes the other's lock
     first via crossing order and a barrier of yields is impossible to
     express, so force it: t0 holds lock 1 forever (never unlocks)
     while t1 wants it. *)
  let (_ : int) =
    Machine.spawn m (Program.of_list [ Op.Lock { lock = 1; site = 1 }; Op.Yield ])
  in
  check "finishing while holding a lock is an error" true
    (try
       ignore (Machine.run m);
       false
     with Machine.Stuck _ -> true)

let test_machine_blocked_thread_waits () =
  let m = null_machine () in
  let order = ref [] in
  let note tag = Op.Alloc { size = 8; site = 0; on_result = (fun _ -> order := tag :: !order) } in
  let (_ : int) =
    Machine.spawn m
      (Program.of_list
         [ Op.Lock { lock = 1; site = 1 }; note "t0-in"; Op.Compute 10; Op.Unlock { lock = 1 } ])
  in
  let (_ : int) =
    Machine.spawn m
      (Program.of_list
         [ Op.Lock { lock = 1; site = 2 }; note "t1-in"; Op.Unlock { lock = 1 } ])
  in
  let r = Machine.run m in
  check_int "both entered" 2 (List.length !order);
  check "mutual exclusion preserved" true (r.Machine.cs_entries = 2)

let test_machine_determinism () =
  let run seed =
    let m = null_machine ~seed () in
    let (_ : int) = Machine.spawn m (Program.of_list [ Op.Compute 5; Op.Compute 7 ]) in
    let (_ : int) = Machine.spawn m (Program.of_list [ Op.Compute 11 ]) in
    (Machine.run m).Machine.cycles
  in
  check_int "same seed same cycles" (run 3) (run 3)

let test_machine_block_op () =
  let m = null_machine () in
  let base = ref 0 in
  let prog =
    Program.concat
      [ Program.of_list
          [ Op.Alloc
              { size = 2 * 4096; site = 1; on_result = (fun meta -> base := meta.Kard_alloc.Obj_meta.base) } ];
        Program.delay (fun () ->
            Program.of_list [ Op.Read_block { base = !base; count = 1000; stride = 8; span = 8192 } ]) ]
  in
  let (_ : int) = Machine.spawn m prog in
  let r = Machine.run m in
  check_int "all accesses counted" 1000 r.Machine.reads;
  (* ~count/throughput cycles for the sweep, plus the allocation and
     the sampled page checks. *)
  check "throughput cycles" true (r.Machine.cycles >= 499 && r.Machine.cycles < 20_000)

(* A block op is a sampled set of checked page accesses plus an
   analytically charged remainder; the MMU's grant tally must still
   see [count] accesses, as single reads and writes are seen once
   each.  (Sampled Kard reports this tally as [skipped_accesses].) *)
let test_machine_block_op_grants () =
  let m = null_machine () in
  let base = ref 0 in
  let prog =
    Program.concat
      [ Program.of_list
          [ Op.Alloc
              { size = 8 * 4096; site = 1; on_result = (fun meta -> base := meta.Kard_alloc.Obj_meta.base) } ];
        Program.delay (fun () ->
            Program.of_list
              [ Op.Write_block { base = !base; count = 3000; stride = 8; span = 8 * 4096 };
                Op.Read !base;
                Op.Write (!base + 8) ]) ]
  in
  let (_ : int) = Machine.spawn m prog in
  let r = Machine.run m in
  check_int "all accesses performed" 3002 (r.Machine.reads + r.Machine.writes);
  check_int "every access granted on k_def, counted once" 3002
    (Kard_mpk.Mpk_hw.default_grants (Machine.env m).Hooks.hw)

(* Cycles charged to a lock holder also stall every thread queued on a
   lock it holds (DESIGN.md §4).  Five threads under round-robin, null
   hooks and Cost_model.default (lock 45, contended hand-off 320,
   unlock 30):

   - T0 holds locks 1 and 2 and computes 1000 + 2000, releases lock 2,
     computes 4000 and releases lock 1;
   - T1 waits on lock 1;
   - T2 holds lock 3 and waits on lock 2;
   - T3 waits on lock 3;
   - T4 computes 1, then queues on lock 1 behind T1.

   The schedule runs T0 lock 1, T1, T2 lock 3, T3, T4's compute, T0
   lock 2 (its 45 already stalls T1), T2 blocks, T4 blocks, then T0
   alone until it hands lock 2 to T2.  So:

   - T1: T0's 45 + 3000 + 30 + 4000 + 30, then its own 320 + 100 + 30;
   - T2: only T0's 3000 + 30 up to the hand-off of lock 2, not T0's
     later 4000 + 30; its own 45 + 320 + 500 + 30 + 30;
   - T3: T2's own 320 + 500 + 30 + 30, and none of the 3030 T2 was
     stalled by, because stalls do not cascade; its own 320 + 7 + 30;
   - T4: T0's cycles from when it queued (not the 45 before), then
     T1's 100 + 30 while it still waits; its own 1 + 320 + 9 + 30. *)
let test_machine_stall_accounting () =
  let expected =
    [| 45 + 45 + 1000 + 2000 + 30 + 4000 + 30;
       45 + 3000 + 30 + 4000 + 30 + (320 + 100 + 30);
       3000 + 30 + (45 + 320 + 500 + 30 + 30);
       320 + 500 + 30 + 30 + (320 + 7 + 30);
       3000 + 30 + 4000 + 30 + 100 + 30 + (1 + 320 + 9 + 30) |]
  in
  (* The compiled interpreter and the thunk oracle must agree. *)
  List.iter
    (fun interp ->
      let m =
        Machine.create ~schedule:Kard_sched.Schedule.Round_robin ~interp
          ~allocator:Machine.Native
          ~make_detector:(fun _ -> Hooks.null ~name:"test")
          ()
      in
      let lock l = Op.Lock { lock = l; site = l } and unlock l = Op.Unlock { lock = l } in
      let spawn ops = ignore (Machine.spawn m (Program.of_list ops) : int) in
      spawn
        [ lock 1; lock 2; Op.Compute 1000; Op.Compute 2000; unlock 2; Op.Compute 4000; unlock 1 ];
      spawn [ lock 1; Op.Compute 100; unlock 1 ];
      spawn [ lock 3; lock 2; Op.Compute 500; unlock 2; unlock 3 ];
      spawn [ lock 3; Op.Compute 7; unlock 3 ];
      spawn [ Op.Compute 1; lock 1; Op.Compute 9; unlock 1 ];
      let r = Machine.run m in
      check "per-thread cycles" true (r.Machine.per_thread_cycles = expected);
      check_int "every stalled cycle is on the clock once" (Array.fold_left ( + ) 0 expected)
        r.Machine.cycles;
      check_int "four contended hand-offs" 4 r.Machine.contended_entries)
    [ `Compiled; `Thunks ]

let test_machine_max_steps () =
  let m =
    Machine.create ~max_steps:10 ~allocator:Machine.Native
      ~make_detector:(fun _ -> Hooks.null ~name:"test")
      ()
  in
  let forever = Program.unfold (fun () -> Some (Op.Yield, ())) () in
  let (_ : int) = Machine.spawn m forever in
  check "runaway detected" true
    (try
       ignore (Machine.run m);
       false
     with Machine.Stuck _ -> true)

(* {1 Schedule policies and replay} *)

let two_thread_machine ?seed ?schedule () =
  let m = Machine.create ?seed ?schedule ~allocator:Machine.Native
      ~make_detector:(fun _ -> Hooks.null ~name:"test") ()
  in
  let (_ : int) = Machine.spawn m (Program.of_list [ Op.Compute 1; Op.Compute 2; Op.Compute 3 ]) in
  let (_ : int) = Machine.spawn m (Program.of_list [ Op.Compute 10; Op.Compute 20 ]) in
  Machine.run m

let test_schedule_replay_exact () =
  let original = two_thread_machine ~seed:9 () in
  let replayed =
    two_thread_machine ~schedule:(Kard_sched.Schedule.Replay original.Machine.schedule_trace) ()
  in
  check "same trace" true (original.Machine.schedule_trace = replayed.Machine.schedule_trace);
  check_int "same cycles" original.Machine.cycles replayed.Machine.cycles

let test_schedule_round_robin () =
  let a = two_thread_machine ~schedule:Kard_sched.Schedule.Round_robin () in
  let b = two_thread_machine ~schedule:Kard_sched.Schedule.Round_robin () in
  check "deterministic" true (a.Machine.schedule_trace = b.Machine.schedule_trace);
  (* Strict alternation while both threads are runnable. *)
  check "alternates" true
    (match Array.to_list a.Machine.schedule_trace with
    | 0 :: 1 :: 0 :: 1 :: _ -> true
    | _ -> false)

let test_schedule_replay_short_tape () =
  (* A truncated tape falls back to round-robin rather than failing. *)
  let r = two_thread_machine ~schedule:(Kard_sched.Schedule.Replay [| 1; 1 |]) () in
  check "run completes" true (r.Machine.cycles > 0)

let runnable_of_list tids =
  let set = Kard_sched.Runnable_set.create () in
  List.iter (Kard_sched.Runnable_set.add set) tids;
  set

let test_schedule_pick_unit () =
  let st = Kard_sched.Schedule.start (Kard_sched.Schedule.Replay [| 2; 0 |]) in
  let runnable = runnable_of_list [ 0; 1; 2 ] in
  check_int "replays 2" 2 (Kard_sched.Schedule.pick st ~runnable);
  check_int "replays 0" 0 (Kard_sched.Schedule.pick st ~runnable);
  (* Tape exhausted: round-robin continues after the last pick. *)
  check_int "falls back after tape" 1 (Kard_sched.Schedule.pick st ~runnable);
  check "recorded everything" true (Kard_sched.Schedule.recorded st = [| 2; 0; 1 |])

(* The pick log stores tids 0-254 in one byte and escapes every other
   tid, so a tape mixing both, replayed pick for pick, must come back
   out of [recorded] unchanged: first the boundary tids once each,
   then 100,000 picks that grow the log many times over. *)
let test_schedule_pick_log_roundtrip () =
  let tids = [| 0; 1; 254; 255; 256; 65_535; 70_000 |] in
  let runnable = runnable_of_list (Array.to_list tids) in
  let replay tape =
    let st = Kard_sched.Schedule.start (Kard_sched.Schedule.Replay tape) in
    Array.iter (fun _ -> ignore (Kard_sched.Schedule.pick st ~runnable : int)) tape;
    Kard_sched.Schedule.recorded st
  in
  check "boundary tids" true (replay tids = tids);
  let long = Array.init 100_000 (fun i -> tids.(i * 7919 mod 13 mod 7)) in
  check "100,000 picks" true (replay long = long)

(* Replay determinism over a genuinely contended, faulting workload:
   the safety net for the scheduler/TLB refactors.  A full Kard run is
   recorded under [Random] and re-executed under [Replay]; every field
   of the report — total and per-thread cycles, faults, hardware
   counters, RSS, schedule trace — must be bit-identical. *)
let contended_kard_report ?schedule ~seed () =
  let cell = ref None in
  let m =
    Machine.create ?schedule ~seed ~allocator:Machine.Unique_page
      ~make_detector:(Kard_core.Detector.make ~config:Kard_core.Config.default ~cell)
      ()
  in
  let profile =
    { Kard_workloads.Synth.default with
      Kard_workloads.Synth.locks = 2;
      sites = 6;
      entries = 600;
      min_entries = 600;
      shared_rw = 8;
      shared_ro = 4;
      rw_writes_per_entry = 3;
      ro_reads_per_entry = 2;
      cs_compute = 500;
      churn_per_entry = 0.5 }
  in
  Kard_workloads.Synth.build profile ~threads:8 ~scale:1.0 ~seed:5 m;
  Machine.run m

let test_replay_full_report_identical () =
  let original = contended_kard_report ~seed:11 () in
  (* The workload must actually exercise the refactored paths. *)
  check "workload contends" true (original.Machine.contended_entries > 0);
  check "workload faults" true (original.Machine.faults > 0);
  check "multi-threaded" true (Array.length original.Machine.per_thread_cycles = 8);
  let replayed =
    contended_kard_report
      ~schedule:(Kard_sched.Schedule.Replay original.Machine.schedule_trace)
      ~seed:11 ()
  in
  check "full report is bit-identical" true (original = replayed);
  (* Same workload, different seed: must diverge (the test would be
     vacuous if the report ignored the schedule). *)
  let other = contended_kard_report ~seed:12 () in
  check "different schedule differs" true
    (other.Machine.schedule_trace <> original.Machine.schedule_trace)

let test_random_seed_determinism_full_report () =
  let a = contended_kard_report ~seed:3 () in
  let b = contended_kard_report ~seed:3 () in
  check "same seed, same full report" true (a = b)

let test_sim_clock () =
  let c = Sim_clock.create () in
  Sim_clock.advance c 5;
  Sim_clock.advance c 7;
  check_int "advances" 12 (Sim_clock.now c);
  Sim_clock.reset c;
  check_int "resets" 0 (Sim_clock.now c)

let () =
  Alcotest.run "kard_sched"
    [ ( "program",
        [ Alcotest.test_case "of_list" `Quick test_program_of_list;
          Alcotest.test_case "append/concat" `Quick test_program_append_concat;
          Alcotest.test_case "repeat is lazy" `Quick test_program_repeat_lazy;
          Alcotest.test_case "unfold" `Quick test_program_unfold;
          Alcotest.test_case "delay" `Quick test_program_delay;
          Alcotest.test_case "with_setup" `Quick test_program_with_setup ] );
      ( "runnable_set",
        [ Alcotest.test_case "basic" `Quick test_runnable_set_basic;
          Alcotest.test_case "order statistics" `Quick test_runnable_set_order_statistics;
          Alcotest.test_case "grows" `Quick test_runnable_set_grows;
          Alcotest.test_case "oracle cross-check" `Quick test_runnable_set_exhaustive_vs_list;
          Alcotest.test_case "allocation-free" `Quick test_runnable_set_allocation_free ] );
      ( "lock_table",
        [ Alcotest.test_case "acquire/release" `Quick test_lock_acquire_release;
          Alcotest.test_case "fifo wakeup" `Quick test_lock_fifo;
          Alcotest.test_case "errors" `Quick test_lock_errors;
          Alcotest.test_case "stats" `Quick test_lock_stats;
          Alcotest.test_case "nested holds" `Quick test_lock_nested_holds;
          Alcotest.test_case "waiter iteration" `Quick test_lock_waiter_iteration;
          Alcotest.test_case "counter opens at the first waiter" `Quick
            test_lock_counter_opens_at_first_waiter;
          Alcotest.test_case "charge_held = the walk" `Quick test_lock_charge_model ] );
      ( "machine",
        [ Alcotest.test_case "compute/io" `Quick test_machine_compute_io;
          Alcotest.test_case "alloc and access" `Quick test_machine_alloc_and_access;
          Alcotest.test_case "lock stats" `Quick test_machine_lock_cs_stats;
          Alcotest.test_case "finish holding lock" `Quick test_machine_deadlock_detected;
          Alcotest.test_case "blocked thread waits" `Quick test_machine_blocked_thread_waits;
          Alcotest.test_case "determinism" `Quick test_machine_determinism;
          Alcotest.test_case "block op" `Quick test_machine_block_op;
          Alcotest.test_case "block op grants counted" `Quick test_machine_block_op_grants;
          Alcotest.test_case "stall accounting" `Quick test_machine_stall_accounting;
          Alcotest.test_case "max steps" `Quick test_machine_max_steps;
          Alcotest.test_case "sim clock" `Quick test_sim_clock ] );
      ( "schedule",
        [ Alcotest.test_case "replay is exact" `Quick test_schedule_replay_exact;
          Alcotest.test_case "round robin" `Quick test_schedule_round_robin;
          Alcotest.test_case "short tape fallback" `Quick test_schedule_replay_short_tape;
          Alcotest.test_case "pick unit" `Quick test_schedule_pick_unit;
          Alcotest.test_case "pick log round trip" `Quick test_schedule_pick_log_roundtrip;
          Alcotest.test_case "replay full report (contended, faulting)" `Quick
            test_replay_full_report_identical;
          Alcotest.test_case "seeded full-report determinism" `Quick
            test_random_seed_determinism_full_report ] ) ]
