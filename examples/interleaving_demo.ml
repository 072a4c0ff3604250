(* Figure 4 walkthrough: protection interleaving on the full runtime.

   Two threads write DIFFERENT offsets of the same 128-byte object
   under different locks.  The first conflicting access raises a
   potential race; Kard then re-protects the object with the faulting
   thread's key so the original holder's next access also faults.
   Observing both byte sets — disjoint — proves the warning spurious
   and prunes it.

   A second variant uses critical sections too small to observe the
   other side: the record survives (the pigz false positive). *)

module Machine = Kard_sched.Machine
module Detector = Kard_core.Detector

let run ~label ~large_cs =
  let scenario =
    if large_cs then Kard_workloads.Race_suite.different_offset_large_cs
    else Kard_workloads.Race_suite.different_offset_small_cs
  in
  let cell = ref None in
  let machine =
    Machine.create ~seed:42 ~allocator:Machine.Unique_page
      ~make_detector:(Detector.make ~cell)
      ()
  in
  scenario.Kard_workloads.Race_suite.build machine;
  let (_ : Machine.report) = Machine.run machine in
  let d = Option.get !cell in
  let stats = Detector.stats d in
  Format.printf "== %s ==@." label;
  Format.printf "  interleavings started:  %d@." stats.Detector.interleavings_started;
  Format.printf "  records logged:         %d@." stats.Detector.records_logged;
  Format.printf "  pruned as spurious:     %d@." stats.Detector.records_pruned_spurious;
  Format.printf "  surviving records:      %d@.@." (List.length (Detector.races d));
  List.length (Detector.races d)

let () =
  let pruned = run ~label:"large critical sections (figure 4: prunable)" ~large_cs:true in
  let survived = run ~label:"tiny critical sections (the pigz false positive)" ~large_cs:false in
  Format.printf
    "protection interleaving pruned the large-section warning (%d left) but could not gather \
     evidence in the tiny sections (%d left)@."
    pruned survived;
  if pruned <> 0 || survived = 0 then exit 1
