(* The record/replay subsystem: codec round-trips and strict
   rejection, target resolution, record->replay byte-identity across
   vkey/sampling settings, cross-detector replay, fidelity
   tamper detection, the bytes-per-step budget, and the checked-in
   fuzz-log regression fixture. *)

module Log = Kard_replay.Log
module Record = Kard_harness.Record
module Runner = Kard_harness.Runner
module Defaults = Kard_harness.Defaults
module Json_report = Kard_harness.Json_report
module Race_suite = Kard_workloads.Race_suite
module Registry = Kard_workloads.Registry
module Config = Kard_core.Config
module Machine = Kard_sched.Machine
module Campaign = Kard_fuzz.Campaign
module Prog = Kard_fuzz.Prog

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* {1 Codec: random logs} *)

(* Random but well-formed event streams: picks straddle the one-byte/extended
   boundary at 240 threads, anchors are monotone in both coordinates
   (the encoder's invariant), seeds may be negative (zigzag), and the
   optional config exercises every fingerprint field. *)
let gen_events st =
  let detector =
    List.nth [ "kard"; "baseline"; "alloc"; "tsan"; "lockset" ] (Random.State.int st 5)
  in
  let config =
    if Random.State.bool st then
      Some
        { (Defaults.kard_config ()) with
          Config.data_keys = 1 + Random.State.int st 15;
          vkeys = Random.State.int st 256;
          sampling = float_of_int (Random.State.int st 11) /. 10.;
          sampling_epoch = 1 + Random.State.int st 1_000_000;
          sampling_seed = Random.State.int st 10_000 - 5_000 }
    else None
  in
  let header =
    Log.header ~detector
      ~target:(Printf.sprintf "spec:w%d" (Random.State.int st 50))
      ~threads:(1 + Random.State.int st 600)
      ~scale:(Random.State.float st 1.0)
      ~seed:(Random.State.int st 2_000_000 - 1_000_000)
      ?config ()
  in
  let n = Random.State.int st 300 in
  let picks = ref 0 and anchor_clock = ref 0 in
  let events =
    List.init n (fun _ ->
        match Random.State.int st 10 with
        | 0 | 1 ->
          Log.Grant { lock = Random.State.int st 1000; tid = Random.State.int st 600 }
        | 2 ->
          anchor_clock := !anchor_clock + Random.State.int st 10_000;
          Log.Anchor { picks = !picks; clock = !anchor_clock }
        | _ ->
          incr picks;
          Log.Pick (Random.State.int st 600))
  in
  (header, events)

let gen_log st =
  let header, events = gen_events st in
  Log.of_events header events

let print_events (header, events) =
  let log = Log.of_events header events in
  Format.asprintf "%a; %d events (%d picks, %d grants)" Log.pp_header header
    (List.length events) (Log.pick_count log) (Log.grant_count log)

(* The event-list conversions are the codec's reference: whatever the
   writer packs, [decode] must read back and [events] unpack to the
   very list that went in. *)
let codec_roundtrip =
  QCheck.Test.make ~name:"decode (encode log) = log" ~count:300
    (QCheck.make ~print:print_events gen_events)
    (fun (header, events) ->
      let log = Log.of_events header events in
      (* A header config that breaks a rule never decodes. *)
      let valid =
        match header.Log.config with None -> true | Some c -> Config.validate c = Ok ()
      in
      match Log.decode (Log.encode log) with
      | decoded -> valid && decoded = log && Log.events decoded = events
      | exception Log.Error (Log.Corrupt _) -> not valid)

(* {1 Codec: strict rejection} *)

let minimal_log =
  Log.of_events (Log.header ~detector:"baseline" ~target:"spec:x" ~threads:1 ~scale:1.0 ~seed:0 ()) []

let expect_error name s pred =
  match Log.decode s with
  | (_ : Log.t) -> Alcotest.failf "%s: decoded instead of raising" name
  | exception Log.Error e ->
    if not (pred e) then Alcotest.failf "%s: wrong error %s" name (Log.error_to_string e)

let test_bad_magic () =
  let body = Log.encode minimal_log in
  let swapped = "XRDL" ^ String.sub body 4 (String.length body - 4) in
  expect_error "empty" "" (function Log.Bad_magic -> true | _ -> false);
  expect_error "short" "KR" (function Log.Bad_magic -> true | _ -> false);
  expect_error "wrong magic" swapped (function Log.Bad_magic -> true | _ -> false)

let test_version_mismatch () =
  (* The version varint sits right after the 4-byte magic. *)
  let b = Bytes.of_string (Log.encode minimal_log) in
  Bytes.set b 4 (Char.chr (Log.version + 1));
  expect_error "future version" (Bytes.to_string b)
    (function Log.Version_mismatch v -> v = Log.version + 1 | _ -> false)

let test_truncation_rejected () =
  (* Every strict prefix of a valid log must raise: the end marker,
     the count trailer and the exact-length check leave no byte
     optional. *)
  let log = gen_log (Random.State.make [| 2026; 8; 9 |]) in
  let s = Log.encode log in
  for k = 0 to String.length s - 1 do
    match Log.decode (String.sub s 0 k) with
    | (_ : Log.t) -> Alcotest.failf "prefix of %d/%d bytes decoded" k (String.length s)
    | exception Log.Error _ -> ()
  done

let test_trailing_bytes_rejected () =
  expect_error "trailing byte" (Log.encode minimal_log ^ "\x00")
    (function Log.Corrupt _ -> true | _ -> false)

let test_non_canonical_pick_rejected () =
  (* A tid below 240 spelled with the extended tag: decodable in a
     lax reader, but two spellings of one schedule would break
     byte-identity of re-encoded logs. *)
  let s = Log.encode minimal_log in
  let cut = String.length s - 3 (* end tag + two zero-count trailer bytes *) in
  let doctored = String.sub s 0 cut ^ "\xF0\x05" ^ String.sub s cut 3 in
  expect_error "non-canonical extended pick" doctored
    (function Log.Corrupt _ -> true | _ -> false)

(* The minimal log with raw body bytes spliced in before its end
   tag, the trailer's grant count set to [grants]. *)
let with_body ?(grants = 0) body =
  let s = Log.encode minimal_log in
  let cut = String.length s - 3 in
  String.sub s 0 cut ^ body ^ "\xFF\x00" ^ String.make 1 (Char.chr grants)

let test_canonical_varints_only () =
  check "the splice itself is well formed" true
    (Log.grant_count (Log.decode (with_body ~grants:1 "\xF1\x00\x00")) = 1);
  (* Lock 0 spelled over-long: decodes, but re-encodes to other bytes. *)
  expect_error "over-long varint" (with_body ~grants:1 "\xF1\x80\x00\x00")
    (function Log.Corrupt _ -> true | _ -> false);
  (* A 9th byte reaching bit 62 would decode to a negative lock. *)
  expect_error "varint overflow" (with_body ~grants:1 ("\xF1" ^ String.make 8 '\x80' ^ "\x40\x00"))
    (function Log.Corrupt _ -> true | _ -> false);
  (* Two anchors whose pick deltas are each the largest varint: their
     absolute pick count no longer fits an int. *)
  let max_delta_anchor = "\xF3" ^ String.make 8 '\xFF' ^ "\x3F\x00" in
  expect_error "anchor overflow" (with_body (max_delta_anchor ^ max_delta_anchor))
    (function Log.Corrupt _ -> true | _ -> false)

(* {1 Target resolution} *)

let test_find_target () =
  (match Runner.find_target "spec:memcached" with
  | Ok (Runner.Spec s) -> check "spec: prefix" true (s.Kard_workloads.Spec.name = "memcached")
  | _ -> Alcotest.fail "spec:memcached did not resolve");
  (match Runner.find_target "memcached" with
  | Ok (Runner.Spec s) -> check "bare workload name" true (s.Kard_workloads.Spec.name = "memcached")
  | _ -> Alcotest.fail "bare memcached did not resolve");
  (match Runner.find_target "scenario:ilu-lock-lock" with
  | Ok (Runner.Scenario s) -> check "scenario: prefix" true (s.Race_suite.name = "ilu-lock-lock")
  | _ -> Alcotest.fail "scenario:ilu-lock-lock did not resolve");
  (match Runner.find_target "ilu-lock-lock" with
  | Ok (Runner.Scenario s) -> check "bare scenario name" true (s.Race_suite.name = "ilu-lock-lock")
  | _ -> Alcotest.fail "bare ilu-lock-lock did not resolve");
  (match Runner.find_target "no-such-workload" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "nonsense target resolved")

(* {1 Compatibility: the retired shard count} *)

(* Logs from the retired sharded machine carry a shard count above 1.
   The varint stays on the wire, and replay ignores it. *)
let test_legacy_shards_field () =
  let s = Race_suite.find "ilu-lock-lock" in
  let r, log = Record.record ~detector:(Runner.Kard s.Race_suite.config) (Runner.Scenario s) in
  check_int "new logs write shards 1" 1 log.Log.header.Log.shards;
  let legacy =
    Log.decode
      (Log.encode (Log.of_events { log.Log.header with Log.shards = 4 } (Log.events log)))
  in
  check_int "the field survives the codec" 4 legacy.Log.header.Log.shards;
  match Record.replay legacy with
  | Error e -> Alcotest.failf "legacy log replay failed: %s" e
  | Ok (replayed, fidelity) ->
    check "legacy tape consumed" true (fidelity = Ok ());
    check "legacy log replays to the recorded result" true (replayed = r)

(* Each retired knob moved off its default, on top of [config]. *)
let retired_settings config =
  [ ("software_fallback", { config with Config.software_fallback = true });
    ("timestamp_pruning", { config with Config.timestamp_pruning = false });
    ("prefer_recycle", { config with Config.prefer_recycle = false });
    ("share_disjoint_sections", { config with Config.share_disjoint_sections = false }) ]

(* [~shards] survives only for callers pinning 1, and the retired
   [Config] knobs only at their defaults: any other value is rejected
   up front. *)
let test_shards_other_than_one_rejected () =
  let s = Race_suite.find "ilu-lock-lock" in
  let detector = Runner.Kard s.Race_suite.config in
  let _, log = Record.record ~detector (Runner.Scenario s) in
  let rejects name f =
    match f () with
    | () -> Alcotest.failf "%s accepted a retired setting" name
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun (knob, config) ->
      rejects ("Detector.create with " ^ knob) (fun () ->
          ignore
            (Runner.run_build ~threads:1 ~scale:0.01 ~seed:1 ~detector:(Runner.Kard config)
               (fun _ -> ()) "empty")))
    (retired_settings s.Race_suite.config);
  rejects "Runner.run_build" (fun () ->
      ignore
        (Runner.run_build ~shards:2 ~threads:1 ~scale:0.01 ~seed:1 ~detector (fun _ -> ()) "empty"));
  rejects "Record.header" (fun () ->
      ignore
        (Record.header ~detector ~target:"spec:x" ~threads:1 ~scale:1.0 ~seed:0 ~shards:2));
  rejects "Record.replay" (fun () -> ignore (Record.replay ~shards:2 log));
  check_int "Record.header ~shards:1 writes 1" 1
    (Record.header ~detector ~target:"spec:x" ~threads:1 ~scale:1.0 ~seed:0 ~shards:1).Log.shards;
  check "Record.replay ~shards:1 replays" true
    (match Record.replay ~shards:1 log with Ok (_, fidelity) -> fidelity = Ok () | Error _ -> false)

(* The log keeps the retired knobs' bits in its config flags, and its
   version.  A header that breaks any rule of [Config.validate] the
   wire can express must not decode — a retired knob off its default,
   [data_keys] or [sampling] out of range — while the same header at
   the defaults does.  A varint is never negative, so a log cannot
   break the non-negativity rules. *)
let test_invalid_config_rejected () =
  let header config =
    Log.header ~detector:"kard" ~target:"spec:x" ~threads:1 ~scale:1.0 ~seed:0 ~config ()
  in
  let encode config = Log.encode (Log.of_events (header config) []) in
  let d = Config.default in
  List.iter
    (fun (rule, config) ->
      expect_error rule (encode config) (function Log.Corrupt _ -> true | _ -> false))
    (retired_settings d
    @ [ ("data_keys 0", { d with Config.data_keys = 0 });
        ("data_keys 14", { d with Config.data_keys = Kard_mpk.Pkey.data_key_count + 1 });
        ("sampling 0", { d with Config.sampling = 0.0 });
        ("sampling 1.5", { d with Config.sampling = 1.5 });
        ("sampling NaN", { d with Config.sampling = Float.nan }) ]);
  check "the defaults decode" true
    ((Log.decode (encode Config.default)).Log.header = header Config.default)

(* {1 Record -> replay identity} *)

(* Every controlled race scenario: recording costs nothing (the
   result equals an unrecorded run, structurally), and replaying the
   wire-round-tripped log reproduces the result and the JSON report
   byte-for-byte with the tape fully consumed. *)
let test_race_suite_roundtrip () =
  List.iter
    (fun (s : Race_suite.t) ->
      let detector = Runner.Kard s.Race_suite.config in
      let plain = Runner.run ~detector (Runner.Scenario s) in
      let recorded, log = Record.record ~detector (Runner.Scenario s) in
      check (s.Race_suite.name ^ ": recording is free") true (recorded = plain);
      let log = Log.decode (Log.encode log) in
      match Record.replay log with
      | Error e -> Alcotest.failf "%s: replay failed: %s" s.Race_suite.name e
      | Ok (replayed, fidelity) ->
        check (s.Race_suite.name ^ ": tape consumed") true (fidelity = Ok ());
        check (s.Race_suite.name ^ ": results identical") true (replayed = plain);
        check (s.Race_suite.name ^ ": JSON identical") true
          (Json_report.of_result replayed = Json_report.of_result plain))
    Race_suite.all

(* Workload specs: the key-pressure workload across the settings
   matrix (two vkey pool sizes, two sampling rates), and memcached
   under the baseline detector, a recording made without Kard.  Each
   cell must record at zero cost and replay to the identical result
   and JSON report. *)
let test_spec_settings_matrix () =
  let keys = Registry.find "keys-10k" in
  let base = Defaults.kard_config () in
  let keys_cell (vkeys, sampling) =
    let config = { base with Config.vkeys; sampling; sampling_epoch = 100_000 } in
    (Printf.sprintf "keys-10k vkeys %d sampling %g" vkeys sampling, keys, Runner.Kard config)
  in
  List.iter
    (fun (name, spec, detector) ->
      let plain = Runner.run ~scale:0.01 ~detector (Runner.Spec spec) in
      let r, log = Record.record ~scale:0.01 ~detector (Runner.Spec spec) in
      check (name ^ ": recording is free") true (r = plain);
      match Record.replay (Log.decode (Log.encode log)) with
      | Error e -> Alcotest.failf "%s: replay failed: %s" name e
      | Ok (replayed, fidelity) ->
        check (name ^ ": tape consumed") true (fidelity = Ok ());
        check (name ^ ": results identical") true (replayed = r);
        check (name ^ ": JSON identical") true
          (Json_report.of_result replayed = Json_report.of_result r))
    (List.map keys_cell [ (0, 1.0); (64, 1.0); (64, 0.5); (0, 0.5) ]
    @ [ ("memcached baseline", Registry.find "memcached", Runner.Baseline) ])

(* Zero simulated cost on a workload spec, and the wire budget from
   DESIGN.md section 13: one byte per pick below 240 threads, at most
   7 bytes per grant, an anchor every 64 grants, and a small header. *)
let test_spec_zero_cost_and_budget () =
  let spec = Registry.find "keys-10k" in
  let detector = Runner.Kard (Defaults.kard_config ()) in
  let plain = Runner.run ~scale:0.01 ~detector (Runner.Spec spec) in
  let recorded, log = Record.record ~scale:0.01 ~detector (Runner.Spec spec) in
  check "recorded result = plain result" true (recorded = plain);
  let bytes = String.length (Log.encode log) in
  let picks = Log.pick_count log and grants = Log.grant_count log in
  check "log is non-trivial" true (picks > 1000 && grants > 0);
  check_int "one step, one pick" plain.Runner.report.Machine.steps picks;
  check "within the documented budget" true
    (bytes <= 300 + picks + (7 * grants) + (21 * ((grants / 64) + 1)));
  check "under two bytes per step" true
    (float_of_int bytes /. float_of_int picks < 2.0)

(* Chrome-trace bytes are part of the identity contract. *)
let test_trace_identity () =
  let s = Race_suite.find "ilu-lock-lock" in
  let detector = Runner.Kard s.Race_suite.config in
  let t1 = Kard_obs.Trace.create () in
  let r1, log = Record.record ~trace:t1 ~detector (Runner.Scenario s) in
  let t2 = Kard_obs.Trace.create () in
  match Record.replay ~trace:t2 log with
  | Error e -> Alcotest.failf "traced replay failed: %s" e
  | Ok (r2, fidelity) ->
    check "tape consumed" true (fidelity = Ok ());
    check "reports identical" true (r1.Runner.report = r2.Runner.report);
    check "races identical" true (r1.Runner.kard_races = r2.Runner.kard_races);
    check "Chrome trace bytes identical" true
      (Kard_obs.Chrome_trace.to_json ~t:(Option.get r1.Runner.trace)
      = Kard_obs.Chrome_trace.to_json ~t:(Option.get r2.Runner.trace))

(* {1 Allocation contract} *)

(* Minor-heap words [f] allocates.  ([Gc.minor_words] is exact under
   OCaml 5.1, where [Gc.counters] lags by up to a minor heap.) *)
let minor_words f =
  let before = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. before)

let within_budget name ~steps words =
  let per_step = words /. float_of_int steps in
  if per_step > 0.25 then Alcotest.failf "%s: %.3f words/step, budget 0.25" name per_step

(* DESIGN.md section 5: the recorder writes each step's wire bytes
   into a doubling buffer and allocates nothing per step on the minor
   heap, and the codec moves the body as one string (a single
   major-heap block, whatever the step count).  Memcached at 64
   threads under 10% sampling, as the recorded benchmark workload
   runs it; the config is pinned so $KARD_* cannot change it. *)
let test_recording_allocation () =
  let spec = Registry.find "memcached" in
  let detector = Runner.Kard { Config.default with Config.sampling = 0.1 } in
  let plain () = Runner.run ~threads:64 ~scale:0.1 ~detector (Runner.Spec spec) in
  ignore (plain () : Runner.result);
  let plain, plain_words = minor_words plain in
  let (recorded, log), recorded_words =
    minor_words (fun () -> Record.record ~threads:64 ~scale:0.1 ~detector (Runner.Spec spec))
  in
  check "recorded result = plain result" true (recorded = plain);
  let steps = plain.Runner.report.Machine.steps in
  within_budget "recording (minor words over the plain run)" ~steps (recorded_words -. plain_words);
  let bytes, encode_words = minor_words (fun () -> Log.encode log) in
  within_budget "Log.encode" ~steps encode_words;
  let decoded, decode_words = minor_words (fun () -> Log.decode bytes) in
  within_budget "Log.decode" ~steps decode_words;
  check "decode (encode log) = log" true (decoded = log)

(* {1 Cross-detector replay} *)

(* The headline workflow: record under cheap sampling (which misses
   the planted ILU race), replay the very same schedule under the
   full detector and under both oracles — each finds exactly what it
   would have found live. *)
let test_cross_detector () =
  let s = Race_suite.find "ilu-lock-lock" in
  let sampled =
    { s.Race_suite.config with Config.sampling = 0.25; sampling_epoch = 100_000 }
  in
  let r_sampled, log =
    Record.record ~detector:(Runner.Kard sampled) (Runner.Scenario s)
  in
  check_int "sampling hid the planted race at record time" 0
    (List.length r_sampled.Runner.kard_ilu_races);
  let replay_with name detector count_of expect =
    match Record.replay ~detector log with
    | Error e -> Alcotest.failf "%s replay failed: %s" name e
    | Ok (r, fidelity) ->
      check (name ^ ": tape consumed") true (fidelity = Ok ());
      let n = count_of r in
      if not (Race_suite.check expect n) then
        Alcotest.failf "%s found %d races, expected %a" name n Race_suite.pp_expectation expect
  in
  replay_with "full kard" (Runner.Kard s.Race_suite.config)
    (fun r -> List.length r.Runner.kard_ilu_races)
    s.Race_suite.expect_kard_ilu;
  replay_with "tsan" Runner.Tsan
    (fun r -> List.length r.Runner.tsan_races)
    s.Race_suite.expect_tsan;
  replay_with "lockset" Runner.Lockset
    (fun r -> List.length r.Runner.lockset_warnings)
    s.Race_suite.expect_lockset

(* {1 Fidelity checking} *)

let record_scenario name =
  let s = Race_suite.find name in
  Record.record ~detector:(Runner.Kard s.Race_suite.config) (Runner.Scenario s)

let test_tampered_grant_detected () =
  let _, log = record_scenario "ilu-lock-lock" in
  let tampered = ref false in
  let events =
    List.map
      (function
        | Log.Grant { lock; tid } when not !tampered ->
          tampered := true;
          Log.Grant { lock; tid = tid + 1 }
        | ev -> ev)
      (Log.events log)
  in
  check "log has a grant to tamper with" true !tampered;
  match Record.replay (Log.of_events log.Log.header events) with
  | Error e -> Alcotest.failf "tampered replay failed outright: %s" e
  | Ok (_, fidelity) ->
    check "tampered grant reported as a fidelity violation" true
      (match fidelity with Error _ -> true | Ok () -> false)

let test_tampered_anchor_detected () =
  (* keys-10k makes enough lock acquisitions to cross the 64-grant
     anchor cadence; nudging one recorded clock must trip the strict
     replayer's clock check. *)
  let spec = Registry.find "keys-10k" in
  let detector = Runner.Kard (Defaults.kard_config ()) in
  let _, log = Record.record ~scale:0.01 ~detector (Runner.Spec spec) in
  let tampered = ref false in
  let events =
    List.map
      (function
        | Log.Anchor { picks; clock } when not !tampered ->
          tampered := true;
          Log.Anchor { picks; clock = clock + 1 }
        | ev -> ev)
      (Log.events log)
  in
  check "log has an anchor to tamper with" true !tampered;
  match Record.replay (Log.of_events log.Log.header events) with
  | Error e -> Alcotest.failf "tampered replay failed outright: %s" e
  | Ok (_, fidelity) ->
    check "tampered anchor reported as a fidelity violation" true
      (match fidelity with Error _ -> true | Ok () -> false)

(* {1 The checked-in regression fixture} *)

(* A log recorded from fuzz campaign program 42:43 (the replay-oracle
   config, with a lock-rich program so the grant stream is pinned
   too).  The program is reconstructed from the header alone, so the
   fixture pins the wire format, the campaign's generator determinism
   and the replayer at once. *)
let fixture = Filename.concat (Filename.concat "fixtures" "replay") "fuzz-42-43.rlog"

let test_fixture_replays () =
  let log = Log.of_file fixture in
  check "fixture is a kard recording" true (log.Log.header.Log.detector = "kard");
  match Campaign.of_target log.Log.header.Log.target with
  | None -> Alcotest.failf "fixture target %s does not parse" log.Log.header.Log.target
  | Some (seed, index) ->
    check_int "campaign seed" 42 seed;
    check_int "program index" 43 index;
    let r = Campaign.reconstruct ~seed index in
    check "entry 43 is a replay-oracle config" true r.Campaign.rp_replay;
    check "log carries grants to verify" true (Log.grant_count log > 0);
    check_int "header seed matches the reconstruction" r.Campaign.rp_machine_seed
      log.Log.header.Log.seed;
    let name = Printf.sprintf "fuzz-%d-%d" seed index in
    (match Record.replay_build log (Prog.build r.Campaign.rp_prog) name with
    | Error e -> Alcotest.failf "fixture replay failed: %s" e
    | Ok (_, fidelity) ->
      check "fixture tape consumed" true (fidelity = Ok ()))

let test_fixture_reencodes_identically () =
  let ic = open_in_bin fixture in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  check "encode (decode bytes) = bytes" true (Log.encode (Log.decode raw) = raw)

let () =
  Alcotest.run "replay"
    [ ( "codec",
        [ QCheck_alcotest.to_alcotest codec_roundtrip;
          Alcotest.test_case "bad magic rejected" `Quick test_bad_magic;
          Alcotest.test_case "version mismatch rejected" `Quick test_version_mismatch;
          Alcotest.test_case "every truncation rejected" `Quick test_truncation_rejected;
          Alcotest.test_case "trailing bytes rejected" `Quick test_trailing_bytes_rejected;
          Alcotest.test_case "legacy shards field ignored" `Quick test_legacy_shards_field;
          Alcotest.test_case "shards other than 1 rejected" `Quick
            test_shards_other_than_one_rejected;
          Alcotest.test_case "invalid header config rejected" `Quick
            test_invalid_config_rejected;
          Alcotest.test_case "non-canonical pick rejected" `Quick
            test_non_canonical_pick_rejected;
          Alcotest.test_case "non-canonical varints rejected" `Quick
            test_canonical_varints_only ] );
      ( "targets",
        [ Alcotest.test_case "find_target forms" `Quick test_find_target ] );
      ( "identity",
        [ Alcotest.test_case "race suite round-trips" `Quick test_race_suite_roundtrip;
          Alcotest.test_case "workload settings matrix" `Quick test_spec_settings_matrix;
          Alcotest.test_case "zero cost and wire budget" `Quick
            test_spec_zero_cost_and_budget;
          Alcotest.test_case "Chrome trace bytes" `Quick test_trace_identity ] );
      ( "allocation",
        [ Alcotest.test_case "recording and codec allocate per log, not per step" `Quick
            test_recording_allocation ] );
      ( "cross-detector",
        [ Alcotest.test_case "record sampled, replay full" `Quick test_cross_detector ] );
      ( "fidelity",
        [ Alcotest.test_case "tampered grant detected" `Quick test_tampered_grant_detected;
          Alcotest.test_case "tampered anchor detected" `Quick
            test_tampered_anchor_detected ] );
      ( "fixture",
        [ Alcotest.test_case "fuzz-42-43.rlog replays" `Quick test_fixture_replays;
          Alcotest.test_case "fixture bytes re-encode identically" `Quick
            test_fixture_reencodes_identically ] ) ]
