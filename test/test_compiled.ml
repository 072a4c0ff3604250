(* The compiled interpreter against its oracle.

   [Machine.create ~interp:`Compiled] (the default) dispatches on int
   tags pulled straight out of flat program segments;
   [~interp:`Thunks] reconstructs option-boxed [Op.t]s through
   [Program.to_thunk] — the pre-compilation consumption path.  The two
   must be observationally identical: same schedule, same step count,
   same simulated cycles, same races, bit-for-bit identical JSON
   reports.  This file pins that equivalence across every Table 3
   workload, every controlled race scenario, and a dynamic
   data-dependent program.  A second reference is [observed], a
   wrapper that installs the detector's own access hooks as
   observers: the same compiled interpreter, taking the machine's
   hooked access path, must give the same runs, clocks and traces.
   Then the file pins the point of the whole exercise: the per-step
   allocation contract (DESIGN.md). *)

module Machine = Kard_sched.Machine
module Hooks = Kard_sched.Hooks
module Schedule = Kard_sched.Schedule
module Program = Kard_sched.Program
module Dense = Kard_sched.Dense
module Op = Kard_sched.Op
module Runner = Kard_harness.Runner
module Json_report = Kard_harness.Json_report
module Registry = Kard_workloads.Registry
module Race_suite = Kard_workloads.Race_suite
module Contended = Kard_workloads.Contended
module Openloop = Kard_workloads.Openloop
module Defaults = Kard_harness.Defaults

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* {1 Oracle: workloads} *)

(* Structural equality of the whole result is the strongest
   comparison: besides the machine report and race records it covers
   the detector stats the JSON leaves out (fault counts, anomalies,
   timestamp rescues), the ILU list and the uniqueness counts.  The
   report, step and JSON checks run first because their failures are
   easier to read. *)
let assert_identical name (compiled : Runner.result) (oracle : Runner.result) =
  check (name ^ ": report") true (compiled.Runner.report = oracle.Runner.report);
  check_int (name ^ ": steps") compiled.Runner.report.Machine.steps
    oracle.Runner.report.Machine.steps;
  check_string (name ^ ": json") (Json_report.of_result compiled) (Json_report.of_result oracle);
  check (name ^ ": result") true (compiled = oracle)

let detectors = [ Runner.Baseline; Runner.Kard (Kard_harness.Defaults.kard_config ()) ]

let test_workloads_oracle () =
  List.iter
    (fun spec ->
      List.iter
        (fun detector ->
          let run interp = Runner.run ~interp ~scale:0.002 ~seed:42 ~detector (Runner.Spec spec) in
          assert_identical
            (spec.Kard_workloads.Spec.name ^ "/" ^ Runner.detector_name detector)
            (run `Compiled) (run `Thunks))
        detectors)
    Registry.extended

let test_workloads_oracle_reseeded () =
  (* A second seed exercises different schedules through the same
     segments. *)
  let spec = Registry.find "memcached" in
  List.iter
    (fun seed ->
      let run interp =
        Runner.run ~interp ~scale:0.005 ~seed ~detector:(Runner.Kard (Kard_harness.Defaults.kard_config ()))
          (Runner.Spec spec)
      in
      assert_identical (Printf.sprintf "memcached seed=%d" seed) (run `Compiled) (run `Thunks))
    [ 1; 7; 1234 ]

let test_race_suite_oracle () =
  List.iter
    (fun scenario ->
      let run interp =
        Runner.run ~interp ~seed:42 ~detector:(Runner.Kard scenario.Race_suite.config)
          (Runner.Scenario scenario)
      in
      let compiled = run `Compiled and oracle = run `Thunks in
      assert_identical scenario.Race_suite.name compiled oracle;
      check_int (scenario.Race_suite.name ^ ": races") (List.length compiled.Runner.kard_races)
        (List.length oracle.Runner.kard_races);
      check (scenario.Race_suite.name ^ ": race records") true
        (compiled.Runner.kard_races = oracle.Runner.kard_races))
    Race_suite.all

(* A program whose shape is decided while it runs: an [Alloc]
   continuation captures the object, [delay] builds the access pattern
   from the allocated base, [dynamic] emits segments until a counter
   runs out, and [wait_until] spins on state written by another
   thread.  Exactly the generator features the compiled cursor must
   not reorder around. *)
let dynamic_program ~flag ~rounds =
  let meta = ref None in
  let remaining = ref rounds in
  Program.concat
    [ Program.of_list
        [ Op.Alloc { size = 64; site = 3; on_result = (fun m -> meta := Some m) } ];
      Program.delay (fun () ->
          match !meta with
          | None -> assert false
          | Some m ->
            let base = m.Kard_alloc.Obj_meta.base in
            Program.of_list [ Op.Lock { lock = 0; site = 3 }; Op.Write base; Op.Unlock { lock = 0 } ]);
      Program.wait_until (fun () -> !flag);
      Program.dynamic (fun () ->
          if !remaining = 0 then None
          else begin
            decr remaining;
            match !meta with
            | None -> assert false
            | Some m ->
              Some
                (Program.of_list
                   [ Op.Lock { lock = 1; site = 4 };
                     Op.Read m.Kard_alloc.Obj_meta.base;
                     Op.Compute 25;
                     Op.Unlock { lock = 1 } ])
          end) ]

let setter_program ~flag =
  Program.concat
    [ Program.of_list [ Op.Compute 400; Op.Io 100 ];
      Program.with_setup (fun () -> flag := true) (Program.of_list [ Op.Yield ]) ]

let run_dynamic interp =
  let cell = ref None in
  let machine =
    Machine.create ~seed:11 ~interp ~allocator:Machine.Unique_page
      ~make_detector:(Kard_core.Detector.make ~config:Kard_core.Config.default ~cell)
      ()
  in
  let flag = ref false in
  ignore (Machine.spawn machine (dynamic_program ~flag ~rounds:5) : int);
  ignore (Machine.spawn machine (setter_program ~flag) : int);
  let report = Machine.run machine in
  (report, match !cell with Some d -> Kard_core.Detector.races d | None -> [])

let test_dynamic_program_oracle () =
  let report_c, races_c = run_dynamic `Compiled in
  let report_t, races_t = run_dynamic `Thunks in
  check "dynamic: report" true (report_c = report_t);
  check "dynamic: races" true (races_c = races_t);
  check "dynamic: did work" true (report_c.Machine.steps > 10)

(* {1 Oracle: the observed wrapper} *)

let observed (_ : Hooks.env) (h : Hooks.t) = { h with Hooks.access = Some (Hooks.access_of h) }

(* Every controlled race scenario, full result and JSON. *)
let test_race_suite_observed () =
  List.iter
    (fun sc ->
      let run ?wrap () =
        Runner.run ?wrap ~detector:(Runner.Kard sc.Race_suite.config) (Runner.Scenario sc)
      in
      assert_identical (sc.Race_suite.name ^ " observed") (run ()) (run ~wrap:observed ()))
    Race_suite.all

(* Detectors with access hooks of their own (TSan, Eraser). *)
let test_access_hook_detectors_oracle () =
  List.iter
    (fun (name, detector) ->
      let run interp = Runner.run ~interp ~detector (Runner.Scenario Race_suite.nolock_nolock) in
      check (name ^ " identical compiled vs thunks") true (run `Compiled = run `Thunks))
    [ ("tsan", Runner.Tsan); ("lockset", Runner.Lockset) ]

(* Convoy: every in-section charge stalls the whole waiter queue.
   Full Kard and a sampled detector, pinned here rather than taken
   from $KARD_SAMPLING: the sampled detector counts sampled-out
   accesses without access hooks, as full Kard does. *)
let convoy_threads = 16
let convoy_scale = 0.02

let convoy_configs =
  [ ("full", Kard_core.Config.default);
    ( "sampled",
      { Kard_core.Config.default with
        Kard_core.Config.sampling = 0.25;
        sampling_epoch = 100_000 } ) ]

let run_convoy ?schedule ?(interp = `Compiled) ?(config = Kard_core.Config.default)
    ?(wrap = fun _ h -> h) () =
  let cell = ref None in
  let machine =
    Machine.create ?schedule ~seed:7 ~interp ~allocator:Machine.Unique_page
      ~make_detector:(fun env -> wrap env (Kard_core.Detector.make ~config ~cell env))
      ()
  in
  Contended.convoy.Kard_workloads.Spec.build ~threads:convoy_threads ~scale:convoy_scale ~seed:7
    machine;
  let report = Machine.run machine in
  (report, Kard_core.Detector.races (Option.get !cell))

let test_convoy_oracle () =
  List.iter
    (fun (label, config) ->
      let compiled = run_convoy ~config () in
      check (label ^ ": convoy identical to thunks") true
        (compiled = run_convoy ~config ~interp:`Thunks ());
      check (label ^ ": convoy identical to observed") true
        (compiled = run_convoy ~config ~wrap:observed ()))
    convoy_configs

(* Every op is charged as it runs, so the clock any hook reads is
   committed, [on_pick]'s included: a clock-reading pick hook sees
   the same clocks on all three machines. *)
let pick_clocks ?interp ?config wrap =
  let clocks = ref [] in
  let spy env (h : Hooks.t) =
    let h = wrap env h in
    { h with
      Hooks.on_pick =
        (fun ~tid ->
          clocks := env.Hooks.now () :: !clocks;
          h.Hooks.on_pick ~tid) }
  in
  let report, _ = run_convoy ?interp ?config ~wrap:spy () in
  (report, !clocks)

let test_pick_time_clocks () =
  List.iter
    (fun (label, config) ->
      let plain = fun _ h -> h in
      let compiled, compiled_clocks = pick_clocks ~config plain in
      let thunks, thunks_clocks = pick_clocks ~interp:`Thunks ~config plain in
      let wrapped, wrapped_clocks = pick_clocks ~config observed in
      check (label ^ ": reports identical") true (compiled = thunks && compiled = wrapped);
      check (label ^ ": pick-time clocks compiled = thunks") true
        (compiled_clocks = thunks_clocks);
      check (label ^ ": pick-time clocks compiled = observed") true
        (compiled_clocks = wrapped_clocks))
    convoy_configs

(* Record the schedule under the thunk oracle, replay the tape on the
   compiled machine: same picks, same report, same races. *)
let test_convoy_replay () =
  let report, races = run_convoy ~interp:`Thunks () in
  let tape = report.Machine.schedule_trace in
  check "convoy recorded a schedule" true (Array.length tape > 0);
  let report', races' = run_convoy ~schedule:(Schedule.Replay tape) () in
  check "replayed report identical" true (report = report');
  check "replayed races identical" true (races = races')

(* Chrome traces serialize to the same bytes. *)
let test_convoy_trace_observed () =
  let run ?wrap () =
    let trace = Kard_obs.Trace.create () in
    let r =
      Runner.run ?wrap ~trace ~threads:convoy_threads ~scale:convoy_scale
        ~detector:(Runner.Kard (Defaults.kard_config ())) (Runner.Spec Contended.convoy)
    in
    (r, Kard_obs.Chrome_trace.to_json ~t:(Option.get r.Runner.trace))
  in
  let r1, json1 = run () and r2, json2 = run ~wrap:observed () in
  check "traced reports identical" true (r1.Runner.report = r2.Runner.report);
  check "traced races identical" true (r1.Runner.kard_races = r2.Runner.kard_races);
  check "Chrome trace bytes identical" true (json1 = json2)

(* A serve point, whose generator closures read the clock. *)
let test_serve_point_observed () =
  let run ?wrap () =
    let trace = Kard_obs.Trace.create () in
    let r =
      Runner.run ?wrap ~trace ~threads:4 ~scale:0.01
        ~detector:(Runner.Kard (Defaults.kard_config ()))
        (Runner.Spec (Openloop.spec ~rate:10.0 Openloop.Nginx))
    in
    (r.Runner.report, Kard_obs.Snapshot.of_metrics (Kard_obs.Trace.metrics (Option.get r.Runner.trace)))
  in
  check "serve point report and metrics identical" true (run () = run ~wrap:observed ())

(* Access hooks are structural: a wrapper that intercepts accesses
   installs [Some] access hooks, so it sees every access of a
   compiled, full-Kard machine. *)
let test_wrapper_sees_every_access () =
  let calls = ref 0 in
  let counting (_ : Hooks.env) (h : Hooks.t) =
    let inner = Hooks.access_of h in
    { h with
      Hooks.access =
        Some
          { Hooks.on_read = (fun ~tid ~addr -> incr calls; inner.Hooks.on_read ~tid ~addr);
            on_write = (fun ~tid ~addr -> incr calls; inner.Hooks.on_write ~tid ~addr);
            on_read_block =
              (fun ~tid ~block ->
                calls := !calls + block.Op.count;
                inner.Hooks.on_read_block ~tid ~block);
            on_write_block =
              (fun ~tid ~block ->
                calls := !calls + block.Op.count;
                inner.Hooks.on_write_block ~tid ~block) } }
  in
  let r =
    Runner.run ~wrap:counting ~threads:4 ~scale:0.002
      ~detector:(Runner.Kard Kard_core.Config.default)
      (Runner.Spec (Registry.find "memcached"))
  in
  let rep = r.Runner.report in
  check "the run accessed memory" true (rep.Machine.reads + rep.Machine.writes > 0);
  check_int "one hook call per access" (rep.Machine.reads + rep.Machine.writes) !calls

(* {1 The allocation contract} *)

(* Steps, then minor words and words allocated directly in the major
   heap per step, over a kard run of workload [name] at seed 42 after
   one warm-up run (module initialization must not bill a budget).
   [Gc.counters] counts minor words only up to the last minor
   collection, so those come from [Gc.minor_words]. *)
let words_per_step name ~threads ~scale =
  let detector = Runner.Kard (Kard_harness.Defaults.kard_config ()) in
  let run () = Runner.run ~threads ~scale ~seed:42 ~detector (Runner.Spec (Registry.find name)) in
  ignore (run () : Runner.result);
  let minor0 = Gc.minor_words () in
  let _, promoted0, major0 = Gc.counters () in
  let result = run () in
  let _, promoted1, major1 = Gc.counters () in
  let minor1 = Gc.minor_words () in
  let steps = float_of_int result.Runner.report.Machine.steps in
  (steps, (minor1 -. minor0) /. steps, (major1 -. major0 -. (promoted1 -. promoted0)) /. steps)

(* The hot loop's reason to exist: minor-heap words per executed step,
   measured around a full kard run.  The pre-compilation machine sat
   around 65 w/step on this workload; the compiled loop runs under 15
   even in dev builds.  The bound leaves headroom for GC/runtime
   wobble while still catching any per-step box sneaking back in.

   The same run may write at most 2 words per step directly into the
   major heap (blocks over 256 words: growing tables, the pick log and
   the report's decoded pick array).  A word-per-pick log that doubled
   there and was copied out at the end measured 3.37; the byte log
   measures about 1.5, most of it the report's one word per pick. *)
let test_allocation_budget () =
  let steps, minor, direct_major = words_per_step "memcached" ~threads:8 ~scale:0.01 in
  check "steps sane" true (steps > 1_000.);
  if minor > 30.0 then
    Alcotest.failf "allocation contract broken: %.2f minor words/step (budget 30)" minor;
  if direct_major > 2.0 then
    Alcotest.failf "allocation contract broken: %.2f words/step directly in the major heap (budget 2)"
      direct_major

(* The generators are inside the contract too: each worker compiles
   its iterations into one reusable arena, so on convoy (one
   32-write critical section per iteration) a step allocates almost
   nothing.  A fresh builder per iteration, sealed into a copied
   segment, measured 24.6 minor words/step here (dev profile); the
   arenas measure about 0.34. *)
let test_generator_allocation_budget () =
  let steps, minor, _ = words_per_step "convoy" ~threads:8 ~scale:0.05 in
  check "steps sane" true (steps > 10_000.);
  if minor > 2.0 then
    Alcotest.failf "generator allocation budget broken: %.2f minor words/step (budget 2)" minor

(* Section entry and exit on their own: minor words allocated inside
   the detector's [on_lock] and [on_unlock], per section.  memcached at
   64 threads enters a section every few steps and re-faults into
   sections whose maps already hold every entry, so this is where
   dropping the walk's memo on every re-record, a holder record per
   proactive acquisition and closures in the ksmap scans all showed:
   about 49 words per section, against about 4 without them, 2.8
   since the walk reads the section's entries in place instead of a
   memo rebuilt after every change, 2.4 since entry and exit keep no
   per-site stack, per-thread key index or per-releaser row beside
   the frames and the holdings, and 0.39 since no closure captures
   the exit's cycle count (dev profile). *)
type section_words = {
  mutable words : float;
  mutable sections : float;
}

let test_section_allocation_budget () =
  let spec = Registry.find "memcached" in
  let acc = { words = 0.; sections = 0. } in
  let wrap (_ : Kard_sched.Hooks.env) (h : Kard_sched.Hooks.t) =
    { h with
      Kard_sched.Hooks.on_lock =
        (fun ~tid ~lock ~site ->
          let before = Gc.minor_words () in
          let cycles = h.Kard_sched.Hooks.on_lock ~tid ~lock ~site in
          acc.words <- acc.words +. (Gc.minor_words () -. before);
          acc.sections <- acc.sections +. 1.;
          cycles);
      on_unlock =
        (fun ~tid ~lock ->
          let before = Gc.minor_words () in
          let cycles = h.Kard_sched.Hooks.on_unlock ~tid ~lock in
          acc.words <- acc.words +. (Gc.minor_words () -. before);
          cycles) }
  in
  let run () =
    Runner.run_build ~wrap ~threads:64 ~scale:0.05 ~seed:42
      ~detector:(Runner.Kard Kard_core.Config.default)
      (spec.Kard_workloads.Spec.build ~threads:64 ~scale:0.05 ~seed:42)
      spec.Kard_workloads.Spec.name
  in
  ignore (run () : Runner.result);
  acc.words <- 0.;
  acc.sections <- 0.;
  ignore (run () : Runner.result);
  check "sections sane" true (acc.sections > 1_000.);
  let per_section = acc.words /. acc.sections in
  if per_section > 0.5 then
    Alcotest.failf
      "section entry/exit allocation budget broken: %.2f minor words/section (budget 0.5)"
      per_section

(* Set-up, which the sweep loops (the race suite, the explorer, the
   fuzz campaign) pay once per schedule: [Machine.create] plus the
   scenario's build, for every race scenario under its own config, as
   [Runner.run] sets it up.  OCaml allocates any block over 256 words
   straight into the major heap, and those words pace the major GC, so
   set-up must stay on the minor heap: when every table started sized
   for the largest workload, each scenario wrote 18,438 words there and
   a race-suite trial ran about 600 major collections.  The minor
   budget holds the 13 set-ups together (measured: about 43,000 words
   in the dev profile). *)
let test_setup_budget () =
  let setup (sc : Race_suite.t) =
    let machine =
      Machine.create ~seed:42 ~allocator:Machine.Unique_page
        ~make_detector:(Kard_core.Detector.make ~config:sc.Race_suite.config ~cell:(ref None))
        ()
    in
    sc.Race_suite.build machine
  in
  (* Warm once so module initialization doesn't bill the budget. *)
  List.iter setup Race_suite.all;
  let minor =
    List.fold_left
      (fun minor (sc : Race_suite.t) ->
        (* [Gc.counters] counts minor words only up to the last minor
           collection, so the minor words come from [Gc.minor_words]. *)
        let _, promoted0, major0 = Gc.counters () in
        let minor0 = Gc.minor_words () in
        setup sc;
        let minor1 = Gc.minor_words () in
        let _, promoted1, major1 = Gc.counters () in
        let direct_major = major1 -. major0 -. (promoted1 -. promoted0) in
        if direct_major > 0. then
          Alcotest.failf "set-up budget broken: %s allocates %.0f words directly in the major heap"
            sc.Race_suite.name direct_major;
        minor +. (minor1 -. minor0))
      0. Race_suite.all
  in
  if minor > 50_000. then
    Alcotest.failf "set-up budget broken: %.0f minor words for %d scenarios (budget 50,000)" minor
      (List.length Race_suite.all)

(* {1 Dense} *)

let test_grow_pow2 () =
  check "grows past needed" true (Dense.grow_pow2 4 10 > 10);
  check "at least doubles" true (Dense.grow_pow2 256 257 >= 512);
  check_int "doubling from 4 to >10" 16 (Dense.grow_pow2 4 10);
  let c = Dense.grow_pow2 16 1000 in
  check "big jump covers" true (c > 1000)

let test_bitset () =
  let b = Dense.Bitset.create ~capacity:8 () in
  check "fresh empty" false (Dense.Bitset.mem b 3);
  check_int "fresh count" 0 (Dense.Bitset.count b);
  Dense.Bitset.add b 3;
  Dense.Bitset.add b 3;
  (* idempotent *)
  Dense.Bitset.add b 200;
  (* forces growth *)
  check "mem 3" true (Dense.Bitset.mem b 3);
  check "mem 200" true (Dense.Bitset.mem b 200);
  check "mem 4" false (Dense.Bitset.mem b 4);
  check "mem past capacity" false (Dense.Bitset.mem b 100_000);
  check_int "count" 2 (Dense.Bitset.count b);
  check "negative rejected" true
    (try
       Dense.Bitset.add b (-1);
       false
     with Invalid_argument _ -> true)

let bitset_members b =
  let seen = ref [] in
  Dense.Bitset.iter (fun i -> seen := i :: !seen) b;
  List.rev !seen

let test_bitset_iter () =
  let w = Sys.int_size in
  let b = Dense.Bitset.create ~capacity:8 () in
  check "fresh iterates nothing" true (bitset_members b = []);
  (* Bit 62 of a word is the sign bit of the stored int; words 1 and
     2 stay empty between members of words 0 and 3; adding 3 * w + 5
     grows past the initial capacity. *)
  let members = [ (3 * w) + 5; w - 1; 0; 1; (2 * w) - 1; 3 * w; w ] in
  List.iter (Dense.Bitset.add b) members;
  check "ascending, bit 62 and empty words included" true
    (bitset_members b = [ 0; 1; w - 1; w; (2 * w) - 1; 3 * w; (3 * w) + 5 ]);
  Dense.Bitset.remove b ((2 * w) - 1);
  Dense.Bitset.remove b 1;
  check "removed members skipped" true
    (bitset_members b = [ 0; w - 1; w; 3 * w; (3 * w) + 5 ]);
  Dense.Bitset.add b 10_000;
  check "iterates after growth" true
    (bitset_members b = [ 0; w - 1; w; 3 * w; (3 * w) + 5; 10_000 ]);
  check_int "iter agrees with count" (Dense.Bitset.count b) (List.length (bitset_members b))

let test_int_ring () =
  let r = Dense.Int_ring.create () in
  check_int "empty length" 0 (Dense.Int_ring.length r);
  check "pop empty rejected" true
    (try
       ignore (Dense.Int_ring.pop r : int);
       false
     with Invalid_argument _ -> true);
  (* Push enough to wrap whatever the initial capacity is, popping
     interleaved so head chases tail. *)
  for i = 0 to 99 do
    Dense.Int_ring.push r i
  done;
  for i = 0 to 49 do
    check_int "fifo pop" i (Dense.Int_ring.pop r)
  done;
  for i = 100 to 199 do
    Dense.Int_ring.push r i
  done;
  check_int "length" 150 (Dense.Int_ring.length r);
  (* The wrapped, grown ring still pops front first. *)
  for i = 50 to 199 do
    check_int "drain" i (Dense.Int_ring.pop r)
  done;
  check_int "drained" 0 (Dense.Int_ring.length r)

(* {1 Program cursors} *)

let ops_roundtrip =
  [ Op.Read 0x100;
    Op.Write 0x108;
    Op.Lock { lock = 2; site = 9 };
    Op.Unlock { lock = 2 };
    Op.Compute 75;
    Op.Io 30;
    Op.Yield ]

let test_cursor_tags () =
  let c = Program.cursor (Program.of_list ops_roundtrip) in
  check_int "read tag" Program.tag_read (Program.fetch c);
  check_int "read addr" 0x100 (Program.arg_a c);
  check_int "write tag" Program.tag_write (Program.fetch c);
  check_int "write addr" 0x108 (Program.arg_a c);
  check_int "lock tag" Program.tag_lock (Program.fetch c);
  check_int "lock id" 2 (Program.arg_a c);
  check_int "lock site" 9 (Program.arg_b c);
  check_int "unlock tag" Program.tag_unlock (Program.fetch c);
  check_int "unlock id" 2 (Program.arg_a c);
  check_int "compute tag" Program.tag_compute (Program.fetch c);
  check_int "compute cycles" 75 (Program.arg_a c);
  check_int "io tag" Program.tag_io (Program.fetch c);
  check_int "io cycles" 30 (Program.arg_a c);
  check_int "yield tag" Program.tag_yield (Program.fetch c);
  check_int "halt" Program.tag_halt (Program.fetch c);
  check_int "halt is sticky" Program.tag_halt (Program.fetch c)

let test_cursor_boxed () =
  let got = ref None in
  let p =
    Program.of_list [ Op.Alloc { size = 32; site = 1; on_result = (fun m -> got := Some m) } ]
  in
  let c = Program.cursor p in
  check_int "boxed tag" Program.tag_boxed (Program.fetch c);
  (match Program.boxed_op c with
  | Op.Alloc { size = 32; site = 1; _ } -> ()
  | _ -> Alcotest.fail "wrong boxed payload");
  check_int "halt after boxed" Program.tag_halt (Program.fetch c)

let test_next_op_oracle () =
  (* [next_op] must reconstruct exactly the ops [of_list] consumed. *)
  let c = Program.cursor (Program.of_list ops_roundtrip) in
  let rec drain acc =
    match Program.next_op c with
    | Some op -> drain (op :: acc)
    | None -> List.rev acc
  in
  check "next_op roundtrip" true (drain [] = ops_roundtrip);
  check "to_list roundtrip" true (Program.to_list (Program.of_list ops_roundtrip) = ops_roundtrip)

let test_builder_matches_of_list () =
  let b = Program.Builder.create ~hint:4 () in
  Program.Builder.read b 0x10;
  Program.Builder.write b 0x18;
  Program.Builder.lock b ~lock:1 ~site:5;
  Program.Builder.unlock b ~lock:1;
  Program.Builder.compute b 12;
  Program.Builder.io b 3;
  Program.Builder.yield b;
  let built = Program.to_list (Program.Builder.current b) in
  let expected =
    [ Op.Read 0x10;
      Op.Write 0x18;
      Op.Lock { lock = 1; site = 5 };
      Op.Unlock { lock = 1 };
      Op.Compute 12;
      Op.Io 3;
      Op.Yield ]
  in
  check "builder = of_list" true (built = expected)

let test_builder_arena_reuse () =
  let b = Program.Builder.create ~hint:2 () in
  Program.Builder.read b 0x10;
  Program.Builder.read b 0x20;
  let p1 = Program.Builder.current b in
  check "cycle 1 contents" true (Program.to_list p1 = [ Op.Read 0x10; Op.Read 0x20 ]);
  Program.Builder.reset b;
  Program.Builder.write b 0x30;
  let p2 = Program.Builder.current b in
  (* [current] aliases the builder's buffers: the same program value
     comes back every cycle (that is what makes the generator loop
     allocation-free), serving whatever was emitted since the last
     reset. *)
  check "same program value across cycles" true (p1 == p2);
  check "cycle 2 contents" true (Program.to_list p2 = [ Op.Write 0x30 ]);
  Program.Builder.reset b;
  let p3 = Program.Builder.current b in
  check "empty cycle" true (Program.to_list p3 = [])

let () =
  Alcotest.run "compiled"
    [ ( "oracle",
        [ Alcotest.test_case "workloads compiled = thunks" `Slow test_workloads_oracle;
          Alcotest.test_case "memcached across seeds" `Slow test_workloads_oracle_reseeded;
          Alcotest.test_case "race suite compiled = thunks" `Quick test_race_suite_oracle;
          Alcotest.test_case "dynamic program" `Quick test_dynamic_program_oracle;
          Alcotest.test_case "access-hook detectors compiled = thunks" `Quick
            test_access_hook_detectors_oracle ] );
      ( "observed",
        [ Alcotest.test_case "race suite compiled = observed" `Quick test_race_suite_observed;
          Alcotest.test_case "convoy compiled = thunks = observed" `Quick test_convoy_oracle;
          Alcotest.test_case "pick-time clocks: compiled = Thunks = observed" `Quick
            test_pick_time_clocks;
          Alcotest.test_case "convoy replayed from a tape" `Quick test_convoy_replay;
          Alcotest.test_case "convoy Chrome trace bytes" `Quick test_convoy_trace_observed;
          Alcotest.test_case "serve point" `Quick test_serve_point_observed;
          Alcotest.test_case "wrapper sees every access" `Quick test_wrapper_sees_every_access ] );
      ( "allocation",
        [ Alcotest.test_case "per-step budget" `Slow test_allocation_budget;
          Alcotest.test_case "generator per-step budget" `Slow test_generator_allocation_budget;
          Alcotest.test_case "section entry/exit budget" `Slow test_section_allocation_budget;
          Alcotest.test_case "set-up budget" `Quick test_setup_budget ] );
      ( "dense",
        [ Alcotest.test_case "grow_pow2" `Quick test_grow_pow2;
          Alcotest.test_case "bitset" `Quick test_bitset;
          Alcotest.test_case "bitset iter" `Quick test_bitset_iter;
          Alcotest.test_case "int_ring" `Quick test_int_ring ] );
      ( "program",
        [ Alcotest.test_case "cursor tags" `Quick test_cursor_tags;
          Alcotest.test_case "boxed ops" `Quick test_cursor_boxed;
          Alcotest.test_case "next_op oracle" `Quick test_next_op_oracle;
          Alcotest.test_case "builder = of_list" `Quick test_builder_matches_of_list;
          Alcotest.test_case "builder arena reuse" `Quick test_builder_arena_reuse ] ) ]
