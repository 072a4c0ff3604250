(* Quickstart: detect an inconsistent-lock-usage data race with Kard.

   Two threads update the same heap counter: thread 0 under lock A,
   thread 1 under lock B (the first row of Table 1 in the paper).
   Kard protects the counter with a key while thread 0's critical
   section holds it, so thread 1's access faults and is reported. *)

module Machine = Kard_sched.Machine
module Program = Kard_sched.Program
module Op = Kard_sched.Op

let () =
  let detector = ref None in
  let machine =
    Machine.create ~seed:7 ~allocator:Machine.Unique_page
      ~make_detector:(Kard_core.Detector.make ~cell:detector)
      ()
  in
  (* The shared counter: one 8-byte heap object. *)
  let counter = ref 0 in
  let alloc_program =
    Program.of_list
      [ Op.Alloc { size = 8; site = 100; on_result = (fun meta -> counter := meta.Kard_alloc.Obj_meta.base) } ]
  in
  let worker ~lock ~site ~rounds =
    Program.repeat rounds (fun _ ->
        Program.of_list
          [ Op.Lock { lock; site };
            Op.Read !counter;
            Op.Compute 50;
            Op.Write !counter;
            Op.Unlock { lock } ])
  in
  (* Thread 0 allocates, then both update under DIFFERENT locks. *)
  let t0 = Machine.spawn machine (Program.append alloc_program (worker ~lock:1 ~site:1 ~rounds:20)) in
  let t1 = Machine.spawn machine (worker ~lock:2 ~site:2 ~rounds:20) in
  let report = Machine.run machine in
  let detector = Option.get !detector in
  let races = Kard_core.Detector.ilu_races detector in
  Format.printf "Threads %d and %d ran %d operations in %d simulated cycles.@." t0 t1
    report.Machine.steps report.Machine.cycles;
  Format.printf "Kard reported %d ILU data race(s):@." (List.length races);
  List.iter (fun race -> Format.printf "  %a@." Kard_core.Race_record.pp race) races;
  if races = [] then exit 1
