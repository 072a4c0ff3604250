module Config = Kard_core.Config

type header = {
  detector : string;
  target : string;
  threads : int;
  scale : float;
  seed : int;
  shards : int;
  config : Config.t option;
}

let header ~detector ~target ~threads ~scale ~seed ?config () =
  { detector; target; threads; scale; seed; shards = 1; config }

type event =
  | Pick of int
  | Grant of { lock : int; tid : int }
  | Anchor of { picks : int; clock : int }

(* The body is kept as its wire bytes — every record between the
   header and the end tag — so a log costs ~1.35 B per step resident
   rather than a boxed event per step.  Counts are cached: the
   trailer carries two of them and the replayer sizes its arrays from
   all three. *)
type t = {
  header : header;
  body : string;
  pick_count : int;
  grant_count : int;
  anchor_count : int;
}

type error =
  | Bad_magic
  | Version_mismatch of int
  | Truncated
  | Corrupt of string

exception Error of error

let error_to_string = function
  | Bad_magic -> "not a kard replay log (bad magic)"
  | Version_mismatch v -> Printf.sprintf "log format version %d (this build reads version only)" v
  | Truncated -> "log truncated (no end marker, or a record cut short)"
  | Corrupt msg -> Printf.sprintf "log corrupt: %s" msg

let () =
  Printexc.register_printer (function
    | Error e -> Some (Printf.sprintf "Kard_replay.Log.Error(%s)" (error_to_string e))
    | _ -> None)

let magic = "KRDL"
let version = 1

(* {1 Wire format}

   Everything after the 4-byte magic is LEB128 varints, raw bytes, or
   raw IEEE-754 bit patterns; see DESIGN.md section 13 for the full
   contract.  Body tags: a byte below [tag_pick_ext] IS a pick (the
   tid inline — one byte per step for the first 240 threads); the
   remaining tags introduce multi-byte records. *)

let tag_pick_ext = 0xF0
let tag_grant = 0xF1
let tag_anchor = 0xF3
let tag_end = 0xFF

(* {2 Primitive encoders} *)

(* Loops over local refs, not a local recursive closure: the recorder
   calls this on every grant, and a closure would allocate each time. *)
let put_varint buf n =
  if n < 0 then invalid_arg (Printf.sprintf "Log.put_varint: negative %d" n);
  let n = ref n in
  while !n >= 0x80 do
    Buffer.add_char buf (Char.unsafe_chr (0x80 lor (!n land 0x7F)));
    n := !n lsr 7
  done;
  Buffer.add_char buf (Char.unsafe_chr !n)

(* Signed values (seeds may be negative) zigzag into the unsigned
   encoder: 0, -1, 1, -2, ... -> 0, 1, 2, 3, ... *)
let put_zigzag buf n = put_varint buf ((n lsl 1) lxor (n asr 62))

let put_string buf s =
  put_varint buf (String.length s);
  Buffer.add_string buf s

(* Floats as their exact bit pattern (little-endian int64): [scale]
   and [sampling] round-trip bit-identically, which decimal printing
   cannot guarantee. *)
let put_float buf f =
  let bits = Int64.bits_of_float f in
  for i = 0 to 7 do
    Buffer.add_char buf (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical bits (8 * i)) 0xFFL)))
  done

let put_bool_mask buf bools =
  put_varint buf (List.fold_left (fun acc b -> (acc lsl 1) lor if b then 1 else 0) 0 bools)

(* {2 Primitive decoders} *)

type cursor = { data : string; mutable pos : int }

let byte c =
  if c.pos >= String.length c.data then raise (Error Truncated);
  let b = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  b

(* Strict LEB128: the value must fit a non-negative OCaml int (62
   bits, so a 9th byte carries at most 6 of them), and the last byte
   of a multi-byte varint must be non-zero — an over-long spelling
   would decode to a log that re-encodes to different bytes. *)
let get_varint c =
  let b = ref (byte c) in
  let acc = ref (!b land 0x7F) and shift = ref 0 in
  while !b land 0x80 <> 0 do
    shift := !shift + 7;
    b := byte c;
    if !shift = 56 && !b >= 0x40 then raise (Error (Corrupt "varint overflow"));
    acc := !acc lor ((!b land 0x7F) lsl !shift)
  done;
  if !b = 0 && !shift > 0 then raise (Error (Corrupt "non-canonical varint"));
  !acc

let get_zigzag c =
  let n = get_varint c in
  (n lsr 1) lxor (- (n land 1))

let get_string c =
  let len = get_varint c in
  if c.pos + len > String.length c.data then raise (Error Truncated);
  let s = String.sub c.data c.pos len in
  c.pos <- c.pos + len;
  s

let get_float c =
  let bits = ref 0L in
  for i = 0 to 7 do
    bits := Int64.logor !bits (Int64.shift_left (Int64.of_int (byte c)) (8 * i))
  done;
  Int64.float_of_bits !bits

let get_bool_mask c n =
  let mask = get_varint c in
  if mask lsr n <> 0 then raise (Error (Corrupt "bool mask wider than schema"));
  List.init n (fun i -> (mask lsr (n - 1 - i)) land 1 = 1)

(* {2 Config fingerprint}

   The full detector configuration, not just the knobs the CLI
   exposes: a scenario pins things like [exit_delay_cycles] and
   [section_identity], and a replay that silently dropped them would
   re-execute a different detector. *)

let put_config buf (c : Config.t) =
  put_varint buf c.Config.data_keys;
  put_bool_mask buf
    [ c.Config.proactive_acquisition; c.Config.protection_interleaving;
      c.Config.timestamp_pruning; c.Config.redundancy_pruning; c.Config.metadata_pruning;
      c.Config.prefer_recycle; c.Config.share_disjoint_sections; c.Config.software_fallback ];
  put_varint buf c.Config.exit_delay_cycles;
  Buffer.add_char buf
    (match c.Config.section_identity with Config.By_call_site -> '\000' | Config.By_lock -> '\001');
  put_varint buf c.Config.vkeys;
  put_float buf c.Config.sampling;
  put_varint buf c.Config.sampling_epoch;
  put_zigzag buf c.Config.sampling_seed

let get_config c =
  let data_keys = get_varint c in
  let bools = get_bool_mask c 8 in
  let ( proactive_acquisition, protection_interleaving, timestamp_pruning, redundancy_pruning,
        metadata_pruning, prefer_recycle, share_disjoint_sections, software_fallback ) =
    match bools with
    | [ a; b; c; d; e; f; g; h ] -> (a, b, c, d, e, f, g, h)
    | _ -> assert false
  in
  let exit_delay_cycles = get_varint c in
  let section_identity =
    match byte c with
    | 0 -> Config.By_call_site
    | 1 -> Config.By_lock
    | n -> raise (Error (Corrupt (Printf.sprintf "section identity tag %d" n)))
  in
  let vkeys = get_varint c in
  let sampling = get_float c in
  let sampling_epoch = get_varint c in
  let sampling_seed = get_zigzag c in
  let config =
    { Config.data_keys; proactive_acquisition; protection_interleaving; timestamp_pruning;
      redundancy_pruning; metadata_pruning; prefer_recycle; share_disjoint_sections;
      software_fallback; exit_delay_cycles; section_identity; vkeys; sampling; sampling_epoch;
      sampling_seed }
  in
  (* Retired knobs keep their wire bits.  No detector can replay a
     config that breaks a rule, so reject it here as one [Corrupt]
     line, not later at replay. *)
  match Config.validate config with
  | Ok () -> config
  | Error msg -> raise (Error (Corrupt ("config " ^ msg)))

(* {2 Body writer}

   Records are encoded as they are written, with the encoder's
   invariants checked right there, so a recorder bug fails the
   recording rather than a later [encode].  Per record: one or a few
   bytes into a doubling buffer, nothing on the minor heap. *)

type writer = {
  buf : Buffer.t;
  mutable picks : int;
  mutable grants : int;
  mutable anchors : int;
  mutable anchor_picks : int;
  mutable anchor_clock : int;
}

let writer () =
  { buf = Buffer.create 4096; picks = 0; grants = 0; anchors = 0; anchor_picks = 0;
    anchor_clock = 0 }

let write_pick w tid =
  if tid < 0 then invalid_arg "Log.write_pick: negative tid";
  if tid < tag_pick_ext then Buffer.add_char w.buf (Char.unsafe_chr tid)
  else begin
    Buffer.add_char w.buf (Char.unsafe_chr tag_pick_ext);
    put_varint w.buf tid
  end;
  w.picks <- w.picks + 1

let write_grant w ~lock ~tid =
  if lock < 0 || tid < 0 then invalid_arg "Log.write_grant: negative lock or tid";
  Buffer.add_char w.buf (Char.unsafe_chr tag_grant);
  put_varint w.buf lock;
  put_varint w.buf tid;
  w.grants <- w.grants + 1

let write_anchor w ~picks ~clock =
  if picks < w.anchor_picks || clock < w.anchor_clock then
    invalid_arg "Log.write_anchor: anchors must be monotone";
  Buffer.add_char w.buf (Char.unsafe_chr tag_anchor);
  put_varint w.buf (picks - w.anchor_picks);
  put_varint w.buf (clock - w.anchor_clock);
  w.anchor_picks <- picks;
  w.anchor_clock <- clock;
  w.anchors <- w.anchors + 1

let written_picks w = w.picks
let written_grants w = w.grants

let contents w ~header =
  { header; body = Buffer.contents w.buf; pick_count = w.picks; grant_count = w.grants;
    anchor_count = w.anchors }

(* {2 Body reader}

   One loop serves both the validating pass of [decode] and every
   later walk of a decoded body.  It stops after the end tag (and
   says so) or at the end of the data: a body held in a [t] stops
   just short of its end tag. *)

let walk c ~pick ~grant ~anchor =
  let ended = ref false in
  let anchor_picks = ref 0 and anchor_clock = ref 0 in
  while (not !ended) && c.pos < String.length c.data do
    let tag = byte c in
    if tag < tag_pick_ext then pick tag
    else if tag = tag_pick_ext then begin
      let tid = get_varint c in
      if tid < tag_pick_ext then
        raise (Error (Corrupt (Printf.sprintf "non-canonical extended pick of tid %d" tid)));
      pick tid
    end
    else if tag = tag_grant then begin
      let lock = get_varint c in
      let tid = get_varint c in
      grant ~lock ~tid
    end
    else if tag = tag_anchor then begin
      anchor_picks := !anchor_picks + get_varint c;
      anchor_clock := !anchor_clock + get_varint c;
      if !anchor_picks < 0 || !anchor_clock < 0 then raise (Error (Corrupt "anchor overflow"));
      anchor ~picks:!anchor_picks ~clock:!anchor_clock
    end
    else if tag = tag_end then ended := true
    else raise (Error (Corrupt (Printf.sprintf "unknown tag 0x%02X" tag)))
  done;
  !ended

let iter t ~pick ~grant ~anchor =
  ignore (walk { data = t.body; pos = 0 } ~pick ~grant ~anchor : bool)

(* {2 Whole-log codec} *)

let put_header buf h =
  Buffer.add_string buf magic;
  put_varint buf version;
  put_string buf h.detector;
  put_string buf h.target;
  put_varint buf h.threads;
  put_float buf h.scale;
  put_zigzag buf h.seed;
  (* The retired sharded machine's shard count: still on the wire so
     the format version holds, ignored by replay. *)
  put_varint buf h.shards;
  match h.config with
  | None -> Buffer.add_char buf '\000'
  | Some c ->
    Buffer.add_char buf '\001';
    put_config buf c

let get_header c =
  let data = c.data in
  if String.length data < String.length magic then raise (Error Bad_magic);
  if not (String.equal (String.sub data 0 (String.length magic)) magic) then
    raise (Error Bad_magic);
  c.pos <- String.length magic;
  let v = get_varint c in
  if v <> version then raise (Error (Version_mismatch v));
  let detector = get_string c in
  let target = get_string c in
  let threads = get_varint c in
  let scale = get_float c in
  let seed = get_zigzag c in
  let shards = get_varint c in
  let config =
    match byte c with
    | 0 -> None
    | 1 -> Some (get_config c)
    | n -> raise (Error (Corrupt (Printf.sprintf "config presence byte %d" n)))
  in
  { detector; target; threads; scale; seed; shards; config }

let encode t =
  let head = Buffer.create 256 in
  put_header head t.header;
  let trailer = Buffer.create 16 in
  Buffer.add_char trailer (Char.chr tag_end);
  put_varint trailer t.pick_count;
  put_varint trailer t.grant_count;
  String.concat "" [ Buffer.contents head; t.body; Buffer.contents trailer ]

let decode data =
  let c = { data; pos = 0 } in
  let header = get_header c in
  let body_start = c.pos in
  let picks = ref 0 and grants = ref 0 and anchors = ref 0 in
  let ended =
    walk c
      ~pick:(fun _ -> incr picks)
      ~grant:(fun ~lock:_ ~tid:_ -> incr grants)
      ~anchor:(fun ~picks:_ ~clock:_ -> incr anchors)
  in
  if not ended then raise (Error Truncated);
  let body_end = c.pos - 1 in
  let trailer_picks = get_varint c in
  let trailer_grants = get_varint c in
  if trailer_picks <> !picks then
    raise
      (Error (Corrupt (Printf.sprintf "trailer says %d picks, body has %d" trailer_picks !picks)));
  if trailer_grants <> !grants then
    raise
      (Error
         (Corrupt (Printf.sprintf "trailer says %d grants, body has %d" trailer_grants !grants)));
  if c.pos <> String.length data then
    raise (Error (Corrupt (Printf.sprintf "%d trailing bytes" (String.length data - c.pos))));
  { header;
    body = String.sub data body_start (body_end - body_start);
    pick_count = !picks;
    grant_count = !grants;
    anchor_count = !anchors }

(* {2 Projections} *)

let pick_count t = t.pick_count
let grant_count t = t.grant_count
let anchor_count t = t.anchor_count

(* {2 Event lists}

   Cold conversions for tests and tools that edit a log record by
   record; nothing on the record or replay path builds these. *)

let of_events header events =
  let w = writer () in
  List.iter
    (function
      | Pick tid -> write_pick w tid
      | Grant { lock; tid } -> write_grant w ~lock ~tid
      | Anchor { picks; clock } -> write_anchor w ~picks ~clock)
    events;
  contents w ~header

let events t =
  let rev = ref [] in
  iter t
    ~pick:(fun tid -> rev := Pick tid :: !rev)
    ~grant:(fun ~lock ~tid -> rev := Grant { lock; tid } :: !rev)
    ~anchor:(fun ~picks ~clock -> rev := Anchor { picks; clock } :: !rev);
  List.rev !rev

(* {2 Files} *)

let to_file path t =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (encode t))

let of_file path = decode (In_channel.with_open_bin path In_channel.input_all)

let pp_header fmt h =
  Format.fprintf fmt
    "@[<h>%s on %s (threads=%d scale=%h seed=%d%s)@]" h.detector h.target h.threads h.scale
    h.seed
    (match h.config with
    | None -> ""
    | Some c -> Format.asprintf " %a" Config.pp c)
