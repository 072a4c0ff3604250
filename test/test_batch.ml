(* Batched cycle commits (DESIGN.md §10): a run that banks
   granted-access, compute and io cycles until the next merge point
   must produce byte-identical reports, JSON and Chrome traces to the
   same run unbatched.  The unbatched references are the [`Thunks]
   interpreter and [observed], a wrapper that installs the detector's
   own access hooks as observers — same compiled interpreter, no
   batching. *)

module Page = Kard_mpk.Page
module Pkey = Kard_mpk.Pkey
module Mpk_hw = Kard_mpk.Mpk_hw
module Hooks = Kard_sched.Hooks
module Machine = Kard_sched.Machine
module Schedule = Kard_sched.Schedule
module Race_suite = Kard_workloads.Race_suite
module Contended = Kard_workloads.Contended
module Openloop = Kard_workloads.Openloop
module Spec = Kard_workloads.Spec
module Runner = Kard_harness.Runner
module Json_report = Kard_harness.Json_report
module Defaults = Kard_harness.Defaults

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let observed (_ : Hooks.env) (h : Hooks.t) = { h with Hooks.access = Some (Hooks.access_of h) }

(* {1 The batched access split} *)

(* A batched access is judged at step time by [access_granted] and
   charged by [drain_translate]; the pair must account exactly like
   [try_access] per access in schedule order — cycles per thread and
   dTLB counters alike. *)
let test_drain_split_matches_try_access () =
  let mk () =
    let hw = Mpk_hw.create () in
    for tid = 0 to 3 do
      Mpk_hw.register_thread hw tid
    done;
    ignore (Mpk_hw.pkey_mprotect hw ~base:0 ~len:(256 * Page.size) (Pkey.of_int 1));
    hw
  in
  let accesses = List.init 400 (fun i -> (i mod 4, Page.base_of_vpage (i * 37 mod 512))) in
  let seq_hw = mk () in
  let seq = Array.make 4 0 in
  List.iter
    (fun (tid, addr) ->
      let cycles = Mpk_hw.try_access seq_hw ~tid ~addr ~access:`Read ~ip:0 ~time:0 in
      check "sequential access granted" true (cycles >= 0);
      seq.(tid) <- seq.(tid) + cycles)
    accesses;
  let split_hw = mk () in
  let split = Array.make 4 0 in
  List.iter
    (fun (tid, addr) ->
      let vpage = Page.vpage_of_addr addr in
      check "step-time verdict granted" true
        (Mpk_hw.access_granted split_hw ~tid ~vpage ~access:`Read);
      split.(tid) <- split.(tid) + Mpk_hw.drain_translate split_hw ~tid vpage)
    accesses;
  Array.iteri (fun tid cycles -> check_int "per-thread cycle sums match" cycles split.(tid)) seq;
  check "dTLB accounting matches the sequential walk" true
    (Mpk_hw.stats seq_hw = Mpk_hw.stats split_hw)

(* {1 Whole runs: batched vs unbatched} *)

(* Every controlled race scenario, full result and JSON, against both
   unbatched references. *)
let test_race_suite_identity () =
  List.iter
    (fun sc ->
      let run ?wrap ?interp () =
        Runner.run ?wrap ?interp ~detector:(Runner.Kard sc.Race_suite.config) (Runner.Scenario sc)
      in
      let batched = run () in
      List.iter
        (fun (label, unbatched) ->
          check (sc.Race_suite.name ^ ": result identical to " ^ label) true (batched = unbatched);
          check (sc.Race_suite.name ^ ": JSON identical to " ^ label) true
            (Json_report.of_result batched = Json_report.of_result unbatched))
        [ ("thunks", run ~interp:`Thunks ()); ("observed", run ~wrap:observed ()) ])
    Race_suite.all

(* Access hooks (TSan, Eraser) make a run ineligible: the compiled and
   thunk interpreters must still agree. *)
let test_ineligible_hooks_identity () =
  List.iter
    (fun (name, detector) ->
      let run interp = Runner.run ~interp ~detector (Runner.Scenario Race_suite.nolock_nolock) in
      check (name ^ " identical compiled vs thunks") true (run `Compiled = run `Thunks))
    [ ("tsan", Runner.Tsan); ("lockset", Runner.Lockset) ]

(* {1 Convoy: every in-section charge stalls the whole waiter queue} *)

let convoy_threads = 16
let convoy_scale = 0.02

(* Full Kard and a sampled detector, pinned here rather than taken
   from $KARD_SAMPLING: a sampled run batches just as a full-rate one
   does, because the detector counts sampled-out accesses without
   access hooks. *)
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
  Contended.convoy.Spec.build ~threads:convoy_threads ~scale:convoy_scale ~seed:7 machine;
  let report = Machine.run machine in
  (report, Kard_core.Detector.races (Option.get !cell))

let test_convoy_identity () =
  List.iter
    (fun (label, config) ->
      let batched = run_convoy ~config () in
      check (label ^ ": convoy identical to thunks") true
        (batched = run_convoy ~config ~interp:`Thunks ());
      check (label ^ ": convoy identical to observed") true
        (batched = run_convoy ~config ~wrap:observed ()))
    convoy_configs

(* The identity tests above are vacuous unless batching really runs.
   [on_pick] may see a clock that lags banked cycles (Hooks.mli), so a
   clock-reading pick hook tells batched and unbatched runs apart. *)
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

let test_batching_is_live () =
  List.iter
    (fun (label, config) ->
      let no_access_hooks = ref false in
      let probe _ (h : Hooks.t) =
        no_access_hooks := Option.is_none h.Hooks.access;
        h
      in
      let batched, batched_clocks = pick_clocks ~config probe in
      let unbatched, unbatched_clocks = pick_clocks ~config observed in
      check (label ^ ": the detector installs no access hooks") true !no_access_hooks;
      check (label ^ ": reports identical") true (batched = unbatched);
      check (label ^ ": pick-time clocks differ: the batched run banks cycles") true
        (batched_clocks <> unbatched_clocks))
    convoy_configs

(* Both unbatched references commit every charge at once, so they
   agree with each other even on the clocks [on_pick] sees. *)
let test_unbatched_references_agree () =
  let thunks, thunks_clocks = pick_clocks ~interp:`Thunks (fun _ h -> h) in
  let wrapped, wrapped_clocks = pick_clocks observed in
  check "reports identical" true (thunks = wrapped);
  check "pick-time clocks identical" true (thunks_clocks = wrapped_clocks)

let test_convoy_replay_identity () =
  (* Record the schedule unbatched, replay the tape batched: same
     picks, same report, same races. *)
  let report, races = run_convoy ~interp:`Thunks () in
  let tape = report.Machine.schedule_trace in
  check "convoy recorded a schedule" true (Array.length tape > 0);
  let report', races' = run_convoy ~schedule:(Schedule.Replay tape) () in
  check "replayed report identical" true (report = report');
  check "replayed races identical" true (races = races')

(* Chrome traces serialize to the same bytes.  Per-step events stay
   off, so the traced run still batches. *)
let test_convoy_trace_identity () =
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

(* {1 Serve point: generator closures read the clock at merge points} *)

let test_serve_point_identity () =
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

(* {1 Access hooks are structural} *)

(* A wrapper that intercepts accesses installs [Some] access hooks, so
   it sees every access of a compiled, full-Kard machine — none can be
   lost to batching. *)
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
                calls := !calls + block.Kard_sched.Op.count;
                inner.Hooks.on_read_block ~tid ~block);
            on_write_block =
              (fun ~tid ~block ->
                calls := !calls + block.Kard_sched.Op.count;
                inner.Hooks.on_write_block ~tid ~block) } }
  in
  let r =
    Runner.run ~wrap:counting ~threads:4 ~scale:0.002
      ~detector:(Runner.Kard Kard_core.Config.default)
      (Runner.Spec (Kard_workloads.Registry.find "memcached"))
  in
  let rep = r.Runner.report in
  check "the run accessed memory" true (rep.Machine.reads + rep.Machine.writes > 0);
  check_int "one hook call per access" (rep.Machine.reads + rep.Machine.writes) !calls

let () =
  Alcotest.run "batch"
    [ ( "split",
        [ Alcotest.test_case "drain split matches try_access" `Quick
            test_drain_split_matches_try_access ] );
      ( "identity",
        [ Alcotest.test_case "race suite" `Quick test_race_suite_identity;
          Alcotest.test_case "ineligible hooks" `Quick test_ineligible_hooks_identity;
          Alcotest.test_case "convoy" `Quick test_convoy_identity;
          Alcotest.test_case "batching is live" `Quick test_batching_is_live;
          Alcotest.test_case "unbatched references agree" `Quick
            test_unbatched_references_agree;
          Alcotest.test_case "convoy replayed batched" `Quick test_convoy_replay_identity;
          Alcotest.test_case "convoy Chrome trace bytes" `Quick test_convoy_trace_identity;
          Alcotest.test_case "serve point" `Quick test_serve_point_identity ] );
      ( "hooks",
        [ Alcotest.test_case "wrapper sees every access" `Quick test_wrapper_sees_every_access ] )
    ]
