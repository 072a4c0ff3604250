(* Golden simulated outputs: one line per case with the run's cycles,
   steps, faults, race count, an md5 of its full JSON report, its dTLB
   accesses and misses, its wall cycles, and md5s of every thread's
   cycles and of the pick sequence (the JSON report carries only the
   miss rate, neither clock, no per-thread cycles and no schedule).
   Two traced runs add an md5 of their Chrome trace JSON, which stamps
   the clock at every event, and two fuzz campaigns print their
   divergence histograms.  The dune rule beside this file diffs the
   output against golden.expected, so a failing diff names the case and
   the metric that moved; `dune promote` accepts an intended change.
   Every case names its detector configuration explicitly, so the
   KARD_VKEYS and KARD_SAMPLING overrides leave the output alone. *)

module Config = Kard_core.Config
module Machine = Kard_sched.Machine
module Spec = Kard_workloads.Spec
module Registry = Kard_workloads.Registry
module Race_suite = Kard_workloads.Race_suite
module Runner = Kard_harness.Runner
module Record = Kard_harness.Record
module Json_report = Kard_harness.Json_report
module Log = Kard_replay.Log
module Campaign = Kard_fuzz.Campaign

let md5 s = Digest.to_hex (Digest.string s)
let md5_ints a = md5 (String.concat "," (Array.to_list (Array.map string_of_int a)))

let clocks (rep : Machine.report) =
  Printf.sprintf "dtlb=%d/%d wall=%d threads=%s picks=%s" rep.Machine.dtlb_accesses
    rep.Machine.dtlb_misses rep.Machine.wall_cycles
    (md5_ints rep.Machine.per_thread_cycles)
    (md5_ints rep.Machine.schedule_trace)

let line ?(extra = "") label (r : Runner.result) =
  let rep = r.Runner.report in
  let races =
    List.length r.Runner.kard_races + List.length r.Runner.tsan_races
    + List.length r.Runner.lockset_warnings
  in
  Printf.printf "%s cycles=%d steps=%d faults=%d races=%d json=%s %s%s\n" label rep.Machine.cycles
    rep.Machine.steps rep.Machine.faults races
    (md5 (Json_report.of_result r))
    (clocks rep) extra

let workload_configs =
  [ ("default", Config.default);
    ("vkeys-192", { Config.default with Config.vkeys = 192 });
    (* 16 keys over the 12 residency slots: nginx, memcached, pigz
       and keys-10k evict keys, and all but pigz recycle live
       associations. *)
    ("vkeys-16", { Config.default with Config.vkeys = 16 });
    (* The same pool over two residency slots: the stall window opens
       on 10 of the 21 workloads and the share fallback runs on 7. *)
    ("dk2-vkeys-16", { Config.default with Config.data_keys = 2; vkeys = 16 });
    ("sampling-0.25", { Config.default with Config.sampling = 0.25 }) ]

let workloads () =
  List.iter
    (fun spec ->
      List.iter
        (fun (label, config) ->
          line
            (Printf.sprintf "%s/kard-%s" spec.Spec.name label)
            (Runner.run ~scale:0.003 ~detector:(Runner.Kard config) (Runner.Spec spec)))
        workload_configs)
    (Registry.all @ [ Registry.find "convoy"; Registry.find "keys-10k" ]);
  (* More threads than one byte can number, so thread ids past 255
     appear in the pick sequence. *)
  line "convoy/threads=300/kard-default"
    (Runner.run ~threads:300 ~scale:0.003 ~detector:(Runner.Kard Config.default)
       (Runner.Spec (Registry.find "convoy")));
  (* The benchmark's thread count on a workload with Read-only-domain
     races: one of them names two reader holders, so these lines pin
     the order in which a race record lists its holding sides. *)
  List.iter
    (fun (label, config) ->
      line
        (Printf.sprintf "memcached/threads=64/kard-%s" label)
        (Runner.run ~threads:64 ~scale:0.003 ~detector:(Runner.Kard config)
           (Runner.Spec (Registry.find "memcached"))))
    workload_configs

let scenarios () =
  List.iter
    (fun (sc : Race_suite.t) ->
      List.iter
        (fun seed ->
          List.iter
            (fun detector ->
              line
                (Printf.sprintf "scenario:%s/%s/seed=%d" sc.Race_suite.name
                   (Runner.detector_name detector) seed)
                (Runner.run ~seed ~detector (Runner.Scenario sc)))
            [ Runner.Kard sc.Race_suite.config; Runner.Tsan; Runner.Lockset ])
        [ 1; 2; 3 ])
    Race_suite.all

(* Record memcached under 10% sampling, round-trip the log through its
   codec and replay it under the recorded detector. *)
let record_replay () =
  let detector = Runner.Kard { Config.default with Config.sampling = 0.1 } in
  let recorded, log =
    Record.record ~scale:0.02 ~detector (Runner.Spec (Registry.find "memcached"))
  in
  let bytes = Log.encode log in
  line "memcached/record" recorded;
  match Record.replay (Log.decode bytes) with
  | Error msg -> failwith msg
  | Ok (replayed, fidelity) ->
    Printf.printf "memcached/replay log=%s fidelity=%s json=%s %s\n" (md5 bytes)
      (match fidelity with Ok () -> "ok" | Error _ -> "diverged")
      (md5 (Json_report.of_result replayed))
      (clocks replayed.Runner.report)

(* `kard trace NAME [-t N] [--vkeys V] --scale S` at its defaults:
   seed 42, a 65,536-event ring, no step events.  [chrome] is the md5
   of the file that command writes.  The keys-10k trace keeps every
   event (about 52k) and pins each vkey batch's base, pages and key. *)
let traces () =
  List.iter
    (fun (name, threads, vkeys, scale) ->
      let tr = Kard_obs.Trace.create ~capacity:65536 ~steps:false () in
      let r =
        Runner.run ~trace:tr ?threads ~scale
          ~detector:(Runner.Kard { Config.default with Config.vkeys })
          (Runner.Spec (Registry.find name))
      in
      line
        ~extra:(" chrome=" ^ md5 (Kard_obs.Chrome_trace.to_json ~t:tr))
        (Printf.sprintf "%s/trace" name) r)
    [ ("convoy", Some 16, 0, 0.02); ("memcached", None, 0, 0.002); ("keys-10k", None, 192, 0.003) ]

(* `kard fuzz --count 200 --seed 42`, plain and at sampling 0.1: the
   divergence histogram, class by class. *)
let fuzz () =
  List.iter
    (fun (label, sampling) ->
      let r = Campaign.run ~jobs:1 ?sampling ~count:200 ~seed:42 () in
      Printf.printf "fuzz/seed=42/count=200/%s divergent=%d unexpected=%d classes=%s\n" label
        r.Campaign.divergent
        (List.length r.Campaign.unexpected_indices)
        (String.concat ","
           (List.map
              (fun (c, n) -> Printf.sprintf "%s:%d" (Kard_core.Divergence.name c) n)
              r.Campaign.class_counts)))
    [ ("plain", None); ("sampling-0.1", Some 0.1) ]

let () =
  workloads ();
  scenarios ();
  record_replay ();
  traces ();
  fuzz ()
