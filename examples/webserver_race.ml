(* A realistic end-to-end run: the NGINX workload model served with
   Kard attached, reproducing the initialization-time data race the
   paper reports (Table 6), alongside the performance cost of
   detection under three detectors. *)

module Runner = Kard_harness.Runner
module Machine = Kard_sched.Machine

let () =
  let spec = Kard_workloads.Registry.find "nginx" in
  Format.printf "workload: %a@.@." Kard_workloads.Spec.pp spec;
  let scale = 0.005 in
  let nginx = Runner.Spec spec in
  let baseline = Runner.run ~scale ~detector:Runner.Baseline nginx in
  let kard = Runner.run ~scale ~detector:(Runner.Kard (Kard_harness.Defaults.kard_config ())) nginx in
  let tsan = Runner.run ~scale ~detector:Runner.Tsan nginx in
  let cycles r = r.Runner.report.Machine.cycles in
  Format.printf "baseline: %11d simulated cycles@." (cycles baseline);
  Format.printf "kard:     %11d (%+.1f%%)@." (cycles kard) (Runner.overhead_pct ~baseline kard);
  Format.printf "tsan:     %11d (%+.1f%%)@.@." (cycles tsan) (Runner.overhead_pct ~baseline tsan);
  Format.printf "kard found %d data race(s):@." (List.length kard.Runner.kard_races);
  List.iter (fun race -> Format.printf "  %a@." Kard_core.Race_record.pp race) kard.Runner.kard_races;
  Format.printf "tsan confirms %d (ILU)@." (List.length tsan.Runner.tsan_ilu_races);
  if kard.Runner.kard_races = [] then exit 1
