type section_identity =
  | By_call_site
  | By_lock

type t = {
  data_keys : int;
  proactive_acquisition : bool;
  protection_interleaving : bool;
  timestamp_pruning : bool;
  redundancy_pruning : bool;
  metadata_pruning : bool;
  prefer_recycle : bool;
  share_disjoint_sections : bool;
  software_fallback : bool;
  exit_delay_cycles : int;
  section_identity : section_identity;
  vkeys : int;
  sampling : float;
  sampling_epoch : int;
  sampling_seed : int;
}

let default =
  { data_keys = Kard_mpk.Pkey.data_key_count;
    proactive_acquisition = true;
    protection_interleaving = true;
    timestamp_pruning = true;
    redundancy_pruning = true;
    metadata_pruning = true;
    prefer_recycle = true;
    share_disjoint_sections = true;
    software_fallback = false;
    exit_delay_cycles = 0;
    section_identity = By_call_site;
    vkeys = 0;
    sampling = 1.0;
    sampling_epoch = 2_000_000;
    sampling_seed = 0x5eed }

(* Each rule names its field; the first broken rule is the error. *)
let validate t =
  let keys = Kard_mpk.Pkey.data_key_count in
  let fail fmt = Printf.ksprintf (fun msg -> Error msg) fmt in
  if t.data_keys < 1 || t.data_keys > keys then
    fail "data_keys = %d is outside [1, %d]" t.data_keys keys
  else if t.software_fallback then
    fail "software_fallback is retired (use vkeys) and must stay false"
  else if not (t.timestamp_pruning && t.prefer_recycle && t.share_disjoint_sections) then
    fail
      "timestamp_pruning, prefer_recycle and share_disjoint_sections are retired and must stay \
       true"
  else if t.exit_delay_cycles < 0 then fail "exit_delay_cycles = %d is negative" t.exit_delay_cycles
  else if t.vkeys < 0 then fail "vkeys = %d is negative" t.vkeys
  else if not (t.sampling > 0.0 && t.sampling <= 1.0) then
    fail "sampling = %g is outside (0, 1]" t.sampling
  else if t.sampling_epoch < 0 then fail "sampling_epoch = %d is negative" t.sampling_epoch
  else Ok ()

let pp fmt t =
  Format.fprintf fmt
    "@[<h>{keys=%d proactive=%b interleave=%b ts-prune=%b dedupe=%b meta-prune=%b recycle=%b \
     share-disjoint=%b vkeys=%d sampling=%g}@]"
    t.data_keys t.proactive_acquisition t.protection_interleaving t.timestamp_pruning
    t.redundancy_pruning t.metadata_pruning t.prefer_recycle t.share_disjoint_sections t.vkeys
    t.sampling
