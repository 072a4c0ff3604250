module D = Kard_core.Divergence
module Config = Kard_core.Config
module Pool = Kard_harness.Pool

(* (name, detector config, batch gate, generator pressure, replay
   gate).  The batch-gate entries make the compiled interpreter
   without access hooks — the path every Kard run takes outside the
   fuzzer — a standing fuzz subject: every program they draw also
   runs the dual-machine batch gate (Harness.run ?batch_gate), which
   compares it with the [`Thunks] oracle interpreter, so a breach
   surfaces as the never-expected batch-divergence class and fails
   the campaign.  Gate, class and entry names come from the batched
   cycle commits the gate was built to check (DESIGN.md §10).  The
   vkey rotation entries pair a virtual pool with the high-pressure
   generator profile (every program past the 13 physical keys, half
   far past), keeping the cache's load/evict/stall windows — and
   their one expected evidence class, vkey-eviction-blame — under the
   three oracles; the gated one additionally checks vkey eviction on
   both interpreters.
   Entry order is part of the campaign: program [i] draws entry
   [i mod 15], so reordering would change every fuzz:SEED:INDEX. *)
let configs =
  let d = Config.default in
  [ ("default", d, false, `Default, false);
    ("keys4", { d with Config.data_keys = 4 }, false, `Default, false);
    ("keys4-vkeys16", { d with Config.data_keys = 4; vkeys = 16 }, true, `Vkey_rotation, false);
    ("by-lock", { d with Config.section_identity = Config.By_lock }, false, `Default, false);
    ("default-batch", d, true, `Default, false);
    ("keys4-batch", { d with Config.data_keys = 4 }, true, `Default, false);
    ("vkeys64", { d with Config.vkeys = 64 }, false, `Vkey_rotation, false);
    ("vkeys64-keys4", { d with Config.data_keys = 4; vkeys = 64 }, false, `Vkey_rotation, false);
    ("vkeys64-batch", { d with Config.vkeys = 64 }, true, `Vkey_rotation, false);
    (* The sampling entries keep the subset contract under the three
       oracles: misses classify as the expected sampling-missed-race,
       while an over-report a full-detector mechanism cannot explain
       still fails the campaign.  The short epoch forces rotations
       (drain-at-fault, batched re-arm) inside even these small
       programs; the gated entry runs the dual-machine gate with
       sampling active. *)
    ("sampling50", { d with Config.sampling = 0.5; sampling_epoch = 100_000 }, false, `Default,
     false);
    ("sampling25-keys4",
     { d with Config.sampling = 0.25; sampling_epoch = 100_000; data_keys = 4 }, false,
     `Default, false);
    ("sampling50-vkeys64",
     { d with Config.sampling = 0.5; sampling_epoch = 100_000; vkeys = 64 }, false,
     `Vkey_rotation, false);
    ("sampling25-batch",
     { d with Config.sampling = 0.25; sampling_epoch = 100_000 }, true, `Default, false);
    (* The replay-oracle entries (DESIGN.md §13) run the record/replay
       gate on their programs: record the run's nondeterminism log,
       round-trip it through the wire codec, strictly replay it, and
       demand an identical report and race list — any difference is
       the never-expected replay-divergence class.  One entry keeps
       the default detector; the other pairs replay with the batch
       gate and a sampled detector. *)
    ("replay-oracle", d, false, `Default, true);
    ("replay-oracle-sampling50-batch",
     { d with Config.sampling = 0.5; sampling_epoch = 100_000 }, true, `Default, true) ]

type result = {
  programs : int;
  total : int;
  divergent : int;
  class_counts : (D.cls * int) list;
  unexpected_indices : int list;
}

(* {1 One program = one job} *)

type job_out = {
  idx : int;
  config_name : string;
  obj_classes : D.cls list;  (* one entry per (divergent object, class) pair *)
  is_divergent : bool;
  is_unexpected : bool;
  src : string option;       (* divergent programs carry their repro source *)
  shrunk_src : string option; (* unexpected ones also carry the minimized one *)
}

(* The derivation every consumer shares: program [i] of campaign
   [seed] is a pure function of the pair, so a recorded log whose
   header says [fuzz:seed:i] can be re-executed anywhere — `kard
   record`/`kard replay` rebuild the program through this exact
   path. *)
type reconstructed = {
  rp_prog : Prog.t;
  rp_config_name : string;
  rp_config : Config.t;
  rp_batch_gate : bool;
  rp_replay : bool;
  rp_machine_seed : int;
}

let reconstruct ~seed i =
  let rand = Random.State.make [| seed; i |] in
  let config_name, config, batch_gate, pressure, replay =
    List.nth configs (i mod List.length configs)
  in
  let prog = Prog.generate ~pressure ~rand () in
  let mseed = Random.State.int rand 1_000_000 in
  { rp_prog = prog;
    rp_config_name = config_name;
    rp_config = config;
    rp_batch_gate = batch_gate;
    rp_replay = replay;
    rp_machine_seed = mseed }

let target ~seed i = Printf.sprintf "fuzz:%d:%d" seed i

let of_target s =
  match String.split_on_char ':' s with
  | [ "fuzz"; seed; i ] -> (
    match (int_of_string_opt seed, int_of_string_opt i) with
    | Some seed, Some i when i >= 0 -> Some (seed, i)
    | _ -> None)
  | _ -> None

let run_one ?sampling ?replay ~seed i =
  let r = reconstruct ~seed i in
  let config_name = r.rp_config_name in
  let config =
    match sampling with
    | None -> r.rp_config
    | Some rate -> { r.rp_config with Config.sampling = rate; sampling_epoch = 100_000 }
  in
  let prog = r.rp_prog in
  let mseed = r.rp_machine_seed in
  let batch_gate = r.rp_batch_gate in
  let replay = Option.value ~default:r.rp_replay replay in
  let outcome =
    Harness.run ~config ~batch_gate ~replay ~replay_target:(target ~seed i) ~seed:mseed prog
  in
  let obj_classes =
    List.concat_map (fun (v : Classify.obj_verdict) -> v.Classify.classes) outcome.Harness.divergent
    @ (if List.exists (D.equal D.Batch_divergence) outcome.Harness.classes then
         [ D.Batch_divergence ]
       else [])
  in
  let is_divergent = obj_classes <> [] || outcome.Harness.stuck <> None in
  let is_unexpected = outcome.Harness.unexpected in
  let header tag =
    Printf.sprintf
      "(* kard fuzz repro: campaign seed %d, program %d, machine seed %d,\n   config %s%s.\n   classes: %s *)\n"
      seed i mseed config_name tag
      (String.concat ", " (List.map D.name (List.sort_uniq D.compare obj_classes)))
  in
  let src = if is_divergent then Some (header "" ^ Prog.to_ocaml prog) else None in
  let shrunk_src =
    if not is_unexpected then None
    else begin
      let oracle p = (Harness.run ~config ~batch_gate ~replay ~seed:mseed p).Harness.unexpected in
      let small, _evals = Shrink.minimize ~oracle prog in
      Some (header ", minimized" ^ Prog.to_ocaml small)
    end
  in
  { idx = i; config_name; obj_classes; is_divergent; is_unexpected; src; shrunk_src }

(* {1 Corpus state} *)

type state = {
  st_seed : int;
  st_done : int;
  st_divergent : int;
  st_counts : (D.cls * int) list;
  st_unexpected : int list;
}

let empty_state seed =
  { st_seed = seed; st_done = 0; st_divergent = 0; st_counts = []; st_unexpected = [] }

let state_path dir = Filename.concat dir "state.txt"

let load_state dir ~seed =
  let path = state_path dir in
  if not (Sys.file_exists path) then empty_state seed
  else begin
    let ic = open_in path in
    let st = ref (empty_state seed) in
    (try
       while true do
         match String.split_on_char ' ' (input_line ic) with
         | [ "seed"; s ] ->
           let s = int_of_string s in
           if s <> seed then begin
             close_in ic;
             failwith
               (Printf.sprintf "corpus %s belongs to campaign seed %d, not %d" dir s seed)
           end
         | [ "done"; n ] -> st := { !st with st_done = int_of_string n }
         | [ "divergent"; n ] -> st := { !st with st_divergent = int_of_string n }
         | [ "class"; name; n ] -> begin
           match D.of_name name with
           | Some c -> st := { !st with st_counts = (c, int_of_string n) :: !st.st_counts }
           | None -> failwith (Printf.sprintf "corpus %s: unknown class %s" dir name)
         end
         | "unexpected" :: idxs ->
           st := { !st with st_unexpected = List.map int_of_string idxs }
         | [] | [ "" ] -> ()
         | line :: _ -> failwith (Printf.sprintf "corpus %s: bad state line %S" dir line)
       done
     with End_of_file -> close_in ic);
    !st
  end

let write_file path content =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc content;
  close_out oc;
  Sys.rename tmp path

let save_state dir st =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "seed %d\n" st.st_seed);
  Buffer.add_string b (Printf.sprintf "done %d\n" st.st_done);
  Buffer.add_string b (Printf.sprintf "divergent %d\n" st.st_divergent);
  List.iter
    (fun (c, n) -> Buffer.add_string b (Printf.sprintf "class %s %d\n" (D.name c) n))
    st.st_counts;
  if st.st_unexpected <> [] then
    Buffer.add_string b
      ("unexpected "
      ^ String.concat " " (List.map string_of_int st.st_unexpected)
      ^ "\n");
  write_file (state_path dir) (Buffer.contents b)

(* {1 Merging} *)

let add_counts counts obj_classes =
  List.fold_left
    (fun acc c ->
      let n = Option.value ~default:0 (List.assoc_opt c acc) in
      (c, n + 1) :: List.remove_assoc c acc)
    counts obj_classes
  |> List.sort (fun (a, _) (b, _) -> D.compare a b)

let result_of_state st ~programs =
  { programs;
    total = st.st_done;
    divergent = st.st_divergent;
    class_counts = List.sort (fun (a, _) (b, _) -> D.compare a b) st.st_counts;
    unexpected_indices = List.sort compare st.st_unexpected }

(* Invocation-independent (no "this run" counts): summary.txt must be
   a pure function of (seed, count) so resumed corpora stay
   byte-identical to one-shot ones. *)
let report fmt r =
  Format.fprintf fmt "@[<v 0>fuzz campaign: %d programs, %d divergent@," r.total r.divergent;
  Format.fprintf fmt "configs: %s@,"
    (String.concat ", " (List.map (fun (n, _, _, _, _) -> n) configs));
  if r.class_counts = [] then Format.fprintf fmt "no divergences@,"
  else
    List.iter
      (fun (c, n) -> Format.fprintf fmt "  %-26s %6d  %s@," (D.name c) n (D.describe c))
      r.class_counts;
  (match r.unexpected_indices with
  | [] -> Format.fprintf fmt "unexpected divergences: none@,"
  | idxs ->
    Format.fprintf fmt "UNEXPECTED divergences at: %s@,"
      (String.concat " " (List.map string_of_int idxs)));
  Format.fprintf fmt "@]"

let run ?jobs ?corpus ?sampling ?replay ~count ~seed () =
  Option.iter (fun dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755) corpus;
  let st = match corpus with None -> empty_state seed | Some dir -> load_state dir ~seed in
  let start = st.st_done in
  let todo = if count > start then List.init (count - start) (fun k -> start + k) else [] in
  let outs =
    Pool.map ?jobs
      ~label:(fun _ i -> Printf.sprintf "fuzz program %d" i)
      (run_one ?sampling ?replay ~seed) todo
  in
  (* Merge in submission (= index) order: exemplars are the lowest
     index per class, so corpus contents are jobs-invariant. *)
  let st = ref st in
  List.iter
    (fun out ->
      st :=
        { !st with
          st_done = out.idx + 1;
          st_divergent = (!st.st_divergent + if out.is_divergent then 1 else 0);
          st_counts = add_counts !st.st_counts out.obj_classes;
          st_unexpected =
            (if out.is_unexpected then !st.st_unexpected @ [ out.idx ] else !st.st_unexpected) };
      Option.iter
        (fun dir ->
          (match out.src with
          | None -> ()
          | Some src ->
            List.iter
              (fun c ->
                let path = Filename.concat dir (Printf.sprintf "exemplar-%s.ml" (D.name c)) in
                if not (Sys.file_exists path) then write_file path src)
              (List.sort_uniq D.compare out.obj_classes));
          if out.is_unexpected then begin
            Option.iter
              (fun src ->
                write_file (Filename.concat dir (Printf.sprintf "unexpected-%d-full.ml" out.idx)) src)
              out.src;
            Option.iter
              (fun src ->
                write_file (Filename.concat dir (Printf.sprintf "unexpected-%d.ml" out.idx)) src)
              out.shrunk_src
          end)
        corpus)
    outs;
  let st = { !st with st_done = max !st.st_done count } in
  let r = result_of_state st ~programs:(List.length todo) in
  Option.iter
    (fun dir ->
      save_state dir st;
      write_file (Filename.concat dir "summary.txt") (Format.asprintf "%a@." report r))
    corpus;
  r
