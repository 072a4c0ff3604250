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

let pp fmt t =
  Format.fprintf fmt
    "@[<h>{keys=%d proactive=%b interleave=%b ts-prune=%b dedupe=%b meta-prune=%b recycle=%b \
     share-disjoint=%b vkeys=%d sampling=%g}@]"
    t.data_keys t.proactive_acquisition t.protection_interleaving t.timestamp_pruning
    t.redundancy_pruning t.metadata_pruning t.prefer_recycle t.share_disjoint_sections t.vkeys
    t.sampling
