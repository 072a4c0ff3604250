(* Differential testing: the operational MPK-driven runtime must agree
   with the pure Algorithm 1 on which objects are racy.

   Random multi-threaded programs are executed on the simulated
   machine under the Kard detector while a tracing wrapper records the
   interleaved Enter/Exit/Read/Write event sequence actually executed;
   the same sequence is then replayed through the pure algorithm.

   The narrow plan generator below fixes one object per call site so
   that effective key assignment never multiplexes two generated
   objects onto one key — key grouping is a deliberate
   over-approximation of the MPK design that the idealized
   per-object-key algorithm cannot express.  Even so, exact agreement
   is not the contract: the runtime's fault-driven view legitimately
   diverges from the replayed event order through a handful of
   documented mechanisms (release-window rescue, RO-domain write
   blame, proactive entry-walk holds, interleave pruning, demotion),
   each of which stamps a per-object provenance bit.  The tier-1
   contract is {e evidence-bounded agreement}: every disagreement in
   either direction must be explained by the matching provenance bit
   on that object — an over-report with no precision-losing mechanism
   on record, or a silent miss with none, still fails.

   The full-surface generator from [lib/fuzz] drops the
   one-object-per-site restriction (object reuse, >13 live objects,
   nested and inconsistent locking, atomics): there the two detectors
   diverge more broadly, but only within the documented taxonomy —
   every divergence must classify as expected ([wide] cases below; the
   10k campaign in EXPERIMENTS.md is the full-strength version). *)

module Machine = Kard_sched.Machine
module Program = Kard_sched.Program
module Op = Kard_sched.Op
module Hooks = Kard_sched.Hooks
module Detector = Kard_core.Detector
module A = Kard_core.Algorithm

let n_objects = 4
let n_locks = 3

type round = {
  r_obj : int;             (* also the call site *)
  r_lock : int;
  r_ops : [ `R | `W ] list;
}

type plan = round list list (* one list of rounds per thread *)

let plan_gen =
  let open QCheck.Gen in
  let round =
    let* r_obj = int_range 0 (n_objects - 1) in
    let* r_lock = int_range 0 (n_locks - 1) in
    let* r_ops = list_size (int_range 1 3) (oneofl [ `R; `W ]) in
    return { r_obj; r_lock; r_ops }
  in
  list_size (int_range 2 3) (list_size (int_range 0 6) round)

let print_plan plan =
  String.concat "\n"
    (List.mapi
       (fun t rounds ->
         Printf.sprintf "thread %d: %s" t
           (String.concat " "
              (List.map
                 (fun r ->
                   Printf.sprintf "(o%d,l%d,[%s])" r.r_obj r.r_lock
                     (String.concat ""
                        (List.map (function `R -> "R" | `W -> "W") r.r_ops)))
                 rounds)))
       plan)

let trace_event_of_hooks trace bases =
  let obj_of_addr addr =
    let rec find i =
      if i >= n_objects then None
      else if addr >= bases.(i) && addr < bases.(i) + 64 then Some i
      else find (i + 1)
    in
    find 0
  in
  fun (hooks : Hooks.t) ->
    let inner = Hooks.access_of hooks in
    { hooks with
      Hooks.on_lock =
        (fun ~tid ~lock ~site ->
          trace := A.Enter { thread = tid; section = site } :: !trace;
          hooks.Hooks.on_lock ~tid ~lock ~site);
      on_unlock =
        (fun ~tid ~lock ->
          trace := A.Exit { thread = tid } :: !trace;
          hooks.Hooks.on_unlock ~tid ~lock);
      access =
        Some
          { inner with
            Hooks.on_read =
              (fun ~tid ~addr ->
                (match obj_of_addr addr with
                | Some obj -> trace := A.Read { thread = tid; obj } :: !trace
                | None -> ());
                inner.Hooks.on_read ~tid ~addr);
            on_write =
              (fun ~tid ~addr ->
                (match obj_of_addr addr with
                | Some obj -> trace := A.Write { thread = tid; obj } :: !trace
                | None -> ());
                inner.Hooks.on_write ~tid ~addr) } }

type outcome = {
  kard_objs : int list;    (* plan indices the runtime flagged *)
  pure_objs : int list;    (* plan indices Algorithm 1 flagged *)
  prov : int -> Detector.provenance;  (* by plan index *)
}

let run_plan ~seed (plan : plan) =
  let cell = ref None in
  let trace = ref [] in
  let bases = Array.make n_objects 0 in
  let ids = Array.make n_objects (-1) in
  let allocated = ref 0 in
  let make_detector env = trace_event_of_hooks trace bases (Detector.make ~cell env) in
  let machine = Machine.create ~seed ~allocator:Machine.Unique_page ~make_detector () in
  let round_program r =
    Program.delay (fun () ->
        let addr = bases.(r.r_obj) in
        let body =
          List.map (fun op -> match op with `R -> Op.Read addr | `W -> Op.Write addr) r.r_ops
        in
        Program.of_list
          (Kard_workloads.Builder.critical_section ~lock:(100 + r.r_lock) ~site:(10 + r.r_obj)
             ((body @ [ Op.Compute 5_000 ]))))
  in
  let thread_program tid rounds =
    let work =
      Program.concat
        [ Kard_workloads.Builder.wait_until (fun () -> !allocated >= n_objects);
          Program.concat (List.map round_program rounds) ]
    in
    if tid = 0 then
      Program.append
        (Kard_workloads.Builder.alloc_many ~n:n_objects ~size:64 ~site:7000
           ~into:(fun i meta ->
             bases.(i) <- meta.Kard_alloc.Obj_meta.base;
             ids.(i) <- meta.Kard_alloc.Obj_meta.id;
             incr allocated))
        work
    else work
  in
  List.iteri (fun tid rounds -> ignore (Machine.spawn machine (thread_program tid rounds) : int)) plan;
  let (_ : Machine.report) = Machine.run machine in
  let detector = Option.get !cell in
  let kard_objs =
    List.sort_uniq compare
      (List.filter_map
         (fun (r : Kard_core.Race_record.t) ->
           let rec find i =
             if i >= n_objects then None
             else if r.Kard_core.Race_record.obj_base = bases.(i) then Some i
             else find (i + 1)
           in
           find 0)
         (Detector.races detector))
  in
  let pure = A.create () in
  let pure_races = A.run pure (List.rev !trace) in
  let pure_objs = List.sort_uniq compare (List.map (fun (r : A.race) -> r.A.obj) pure_races) in
  { kard_objs; pure_objs; prov = (fun i -> Detector.provenance detector ~obj_id:ids.(i)) }

(* The evidence-bounded agreement contract.  An over-report (runtime
   flags an object Algorithm 1 does not) is legitimate only under a
   mechanism that blames without an algorithm-granted hold: the
   release-timestamp rescue window, RO-domain write-fault blame, or a
   proactive entry-walk hold (contested keys skipped at entry, nested
   exits dropping an outer hold — the QCHECK_SEED=182957440 repro is
   exactly this class).  An under-report is legitimate only when the
   object's record or association was discarded: interleave pruning,
   demotion to Not-accessed, or invisibility in the Read-only
   domain. *)
let explained (o : outcome) =
  List.for_all
    (fun i ->
      List.mem i o.pure_objs
      ||
      let p = o.prov i in
      p.Detector.rescued || p.Detector.ro_blamed || p.Detector.proactive_blamed)
    o.kard_objs
  && List.for_all
       (fun i ->
         List.mem i o.kard_objs
         ||
         let p = o.prov i in
         p.Detector.pruned || p.Detector.demoted || p.Detector.ro_identified)
       o.pure_objs

let explain_failure ~seed plan (o : outcome) =
  Printf.sprintf "seed %d: kard=[%s] pure=[%s]\n%s" seed
    (String.concat ";" (List.map string_of_int o.kard_objs))
    (String.concat ";" (List.map string_of_int o.pure_objs))
    (print_plan plan)

let differential_prop =
  QCheck.Test.make ~name:"kard and Algorithm 1 agree modulo provenance evidence" ~count:120
    (QCheck.make ~print:print_plan plan_gen)
    (fun plan ->
      let o = run_plan ~seed:11 plan in
      explained o || QCheck.Test.fail_report (explain_failure ~seed:11 plan o))

let seeds_prop =
  QCheck.Test.make ~name:"agreement holds across scheduler seeds" ~count:40
    (QCheck.make ~print:print_plan plan_gen)
    (fun plan ->
      List.for_all
        (fun seed ->
          let o = run_plan ~seed plan in
          explained o || QCheck.Test.fail_report (explain_failure ~seed plan o))
        [ 2; 3 ])

let test_known_racy_plan () =
  (* Two threads, same object, different locks: both must flag it. *)
  let plan =
    [ [ { r_obj = 0; r_lock = 0; r_ops = [ `W ] }; { r_obj = 0; r_lock = 0; r_ops = [ `W ] } ];
      [ { r_obj = 0; r_lock = 1; r_ops = [ `W ] }; { r_obj = 0; r_lock = 1; r_ops = [ `W ] } ] ]
  in
  let o = run_plan ~seed:11 plan in
  Alcotest.(check (list int)) "pure flags object 0" [ 0 ] o.pure_objs;
  Alcotest.(check (list int)) "kard flags object 0" [ 0 ] o.kard_objs

let test_known_clean_plan () =
  (* Consistent locking: nobody flags anything. *)
  let plan =
    [ [ { r_obj = 1; r_lock = 2; r_ops = [ `W; `R ] } ];
      [ { r_obj = 1; r_lock = 2; r_ops = [ `W ] } ];
      [ { r_obj = 2; r_lock = 0; r_ops = [ `R ] } ] ]
  in
  let o = run_plan ~seed:11 plan in
  Alcotest.(check (list int)) "pure clean" [] o.pure_objs;
  Alcotest.(check (list int)) "kard clean" [] o.kard_objs

(* The minimized repro for the historical flake (CHANGES.md PR 8,
   QCHECK_SEED=182957440): thread 1's nested revisits of o2 under l0
   while thread 0 writes o2 under l0/l2 produce a race record whose
   blamed hold was formed by the proactive entry walk — Algorithm 1
   never grants it, so the runtime over-reports o2 with the
   [proactive_blamed] bit set.  Locked in as a regression test: the
   record must survive, and the evidence contract must explain it. *)
let test_proactive_repro_plan () =
  let r obj lock ops = { r_obj = obj; r_lock = lock; r_ops = ops } in
  let plan =
    [ [ r 2 2 [ `W; `R ]; r 0 2 [ `R; `W ]; r 2 2 [ `R; `R; `W ]; r 2 0 [ `R; `W; `R ] ];
      [ r 3 1 [ `R; `R ]; r 3 2 [ `W; `W; `W ]; r 2 0 [ `W ]; r 2 0 [ `R ]; r 1 0 [ `W; `R ] ] ]
  in
  let o = run_plan ~seed:11 plan in
  Alcotest.(check bool) "evidence explains the divergence" true (explained o);
  if not (List.equal Int.equal o.kard_objs o.pure_objs) then
    List.iter
      (fun i ->
        if not (List.mem i o.pure_objs) then
          Alcotest.(check bool)
            (Printf.sprintf "over-report of o%d carries blame evidence" i)
            true
            (let p = o.prov i in
             p.Detector.rescued || p.Detector.ro_blamed || p.Detector.proactive_blamed))
      o.kard_objs

(* {1 Wide generator: full surface, taxonomy-bounded divergence}

   The one-object-per-call-site restriction is gone: programs from
   the fuzz generator exercise grouping, recycling, sharing, vkey
   eviction, demotion and the RO domain.  Exact agreement is impossible
   by design; the contract is that the multi-oracle classifier
   explains every disagreement with a documented class. *)

let run_wide ~base ~configs n =
  List.iteri
    (fun ci config ->
      for i = 0 to n - 1 do
        let rand = Random.State.make [| base + ci; i |] in
        let prog = Kard_fuzz.Prog.generate ~rand () in
        let mseed = Random.State.int rand 1_000_000 in
        let o = Kard_fuzz.Harness.run ~config ~seed:mseed prog in
        if o.Kard_fuzz.Harness.unexpected then
          Alcotest.failf "config %d, program %d diverged outside the taxonomy:@ %a" ci i
            Kard_fuzz.Harness.pp_outcome o
      done)
    configs

let test_wide_default_config () =
  run_wide ~base:500 ~configs:[ Kard_core.Config.default ] 30

let test_wide_pressure_configs () =
  (* 4 data keys force grouping/recycling/sharing, and a 16-key
     virtual pool over them adds eviction; By_lock coarsens section
     identity.  All divergence must still classify. *)
  let d = Kard_core.Config.default in
  run_wide ~base:600
    ~configs:
      [ { d with Kard_core.Config.data_keys = 4 };
        { d with Kard_core.Config.data_keys = 4; vkeys = 16 };
        { d with Kard_core.Config.section_identity = Kard_core.Config.By_lock } ]
    12

let () =
  Alcotest.run "kard_differential"
    [ ( "differential",
        [ Alcotest.test_case "known racy plan" `Quick test_known_racy_plan;
          Alcotest.test_case "known clean plan" `Quick test_known_clean_plan;
          Alcotest.test_case "proactive-hold over-report repro" `Quick test_proactive_repro_plan;
          QCheck_alcotest.to_alcotest differential_prop;
          QCheck_alcotest.to_alcotest seeds_prop ] );
      ( "wide",
        [ Alcotest.test_case "full-surface generator, default config" `Quick
            test_wide_default_config;
          Alcotest.test_case "full-surface generator, pressure configs" `Quick
            test_wide_pressure_configs ] ) ]
