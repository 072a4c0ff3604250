(* The repository benchmark.

     perf.exe --seed 42 --out a.json [--trace-out t.json]
         all five workloads: 10 timed trials each, round-robin, then a
         traced pass and the microbenchmarks; prints every metric and
         exits 1 if a self-check fails
     perf.exe --workload NAME --seed N --seconds S --trace 0|1
         one workload for S seconds; the last stdout line is one JSON
         object with the BENCHMARK.json end-to-end (0) or per-layer (1)
         metrics
     perf.exe --compare a.json b.json
         both medians, the difference and the verdict per metric; exits
         1 if a bound is exceeded or an exact metric changed
     perf.exe --spec
         prints BENCHMARK.json *)

open Kard_perf

let usage () =
  prerr_endline
    "usage: perf.exe [--seed N] [--out FILE] [--trace-out FILE]\n\
    \       perf.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       perf.exe --compare A B\n\
    \       perf.exe --spec";
  exit 2

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perf: " ^ s); exit 2) fmt

let int_arg flag s =
  match int_of_string_opt s with Some n -> n | None -> die "%s expects an integer, got %S" flag s

type mode = Full | One of string | Compare of string * string | Print_spec

let () =
  let mode = ref Full and seed = ref 42 and out = ref None and trace_out = ref None in
  let seconds = ref Spec.run_seconds and trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--seed" :: n :: rest -> seed := int_arg "--seed" n; parse rest
    | "--out" :: f :: rest -> out := Some f; parse rest
    | "--trace-out" :: f :: rest -> trace_out := Some f; parse rest
    | "--workload" :: w :: rest -> mode := One w; parse rest
    | "--seconds" :: n :: rest ->
      seconds := int_arg "--seconds" n;
      if !seconds < 1 then die "--seconds must be at least 1";
      parse rest
    | "--trace" :: "0" :: rest -> trace := false; parse rest
    | "--trace" :: "1" :: rest -> trace := true; parse rest
    | "--trace" :: v :: _ -> die "--trace expects 0 or 1, got %S" v
    | "--compare" :: a :: b :: rest -> mode := Compare (a, b); parse rest
    | "--spec" :: rest -> mode := Print_spec; parse rest
    | ("-h" | "--help") :: _ -> usage ()
    | arg :: _ -> prerr_endline ("perf: unknown or incomplete argument " ^ arg); usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !mode with
  | Print_spec -> print_string (Spec.benchmark_json ())
  | Compare (a, b) ->
    let read f = try Outfile.read f with Sys_error e | Outfile.Parse_error e -> die "%s" e in
    let cs = Suite.compare_lines (read a) (read b) in
    Suite.print_comparison cs;
    if List.exists (fun c -> Suite.failing c.Suite.c_verdict) cs then exit 1
  | One name ->
    let w =
      match Workload.find ~seed:!seed Workload.full name with
      | Some w -> w
      | None ->
        die "unknown workload %S; known: %s" name
          (String.concat ", " (List.map (fun w -> w.Spec.w_name) Spec.workloads))
    in
    let m, micro = Suite.run_for ~seconds:!seconds ~trace:!trace w in
    print_endline (Suite.driver_json ~trace:!trace (m, micro));
    if not (Suite.correct m) then exit 1
  | Full ->
    let ms, micro = Suite.run_all ~seed:!seed ~size:Workload.full ~micro_quota:0.25 in
    let lines, ok = Suite.report ~seed:!seed (ms, micro) in
    Option.iter (fun f -> Outfile.write f lines) !out;
    Option.iter
      (fun f ->
        let oc = open_out f in
        output_string oc
          (Tracer.chrome_json (List.map (fun m -> (m.Suite.w.Workload.name, m.Suite.tracer)) ms));
        close_out oc)
      !trace_out;
    if not ok then begin
      prerr_endline "perf: a self-check failed";
      exit 1
    end
