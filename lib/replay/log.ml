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

type t = { header : header; events : event list }

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

let put_varint buf n =
  if n < 0 then invalid_arg (Printf.sprintf "Log.put_varint: negative %d" n);
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7F)));
      go (n lsr 7)
    end
  in
  go n

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

let get_varint c =
  let rec go shift acc =
    if shift > 62 then raise (Error (Corrupt "varint overflow"));
    let b = byte c in
    let acc = acc lor ((b land 0x7F) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

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
  { Config.data_keys; proactive_acquisition; protection_interleaving; timestamp_pruning;
    redundancy_pruning; metadata_pruning; prefer_recycle; share_disjoint_sections;
    software_fallback; exit_delay_cycles; section_identity; vkeys; sampling; sampling_epoch;
    sampling_seed }

(* {2 Whole-log codec} *)

let encode t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  put_varint buf version;
  let h = t.header in
  put_string buf h.detector;
  put_string buf h.target;
  put_varint buf h.threads;
  put_float buf h.scale;
  put_zigzag buf h.seed;
  (* The retired sharded machine's shard count: still on the wire so
     the format version holds, ignored by replay. *)
  put_varint buf h.shards;
  (match h.config with
  | None -> Buffer.add_char buf '\000'
  | Some c ->
    Buffer.add_char buf '\001';
    put_config buf c);
  let picks = ref 0 and grants = ref 0 in
  let last_anchor_picks = ref 0 and last_anchor_clock = ref 0 in
  List.iter
    (fun ev ->
      match ev with
      | Pick tid ->
        incr picks;
        if tid < 0 then invalid_arg "Log.encode: negative tid"
        else if tid < tag_pick_ext then Buffer.add_char buf (Char.chr tid)
        else begin
          Buffer.add_char buf (Char.chr tag_pick_ext);
          put_varint buf tid
        end
      | Grant { lock; tid } ->
        incr grants;
        Buffer.add_char buf (Char.chr tag_grant);
        put_varint buf lock;
        put_varint buf tid
      | Anchor { picks = p; clock } ->
        if p < !last_anchor_picks || clock < !last_anchor_clock then
          invalid_arg "Log.encode: anchors must be monotone";
        Buffer.add_char buf (Char.chr tag_anchor);
        put_varint buf (p - !last_anchor_picks);
        put_varint buf (clock - !last_anchor_clock);
        last_anchor_picks := p;
        last_anchor_clock := clock)
    t.events;
  Buffer.add_char buf (Char.chr tag_end);
  put_varint buf !picks;
  put_varint buf !grants;
  Buffer.contents buf

let decode data =
  if String.length data < String.length magic then raise (Error Bad_magic);
  if not (String.equal (String.sub data 0 (String.length magic)) magic) then
    raise (Error Bad_magic);
  let c = { data; pos = String.length magic } in
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
  let header = { detector; target; threads; scale; seed; shards; config } in
  let rev_events = ref [] in
  let picks = ref 0 and grants = ref 0 in
  let anchor_picks = ref 0 and anchor_clock = ref 0 in
  let rec loop () =
    let tag = byte c in
    if tag < tag_pick_ext then begin
      incr picks;
      rev_events := Pick tag :: !rev_events;
      loop ()
    end
    else if tag = tag_pick_ext then begin
      let tid = get_varint c in
      if tid < tag_pick_ext then
        raise (Error (Corrupt (Printf.sprintf "non-canonical extended pick of tid %d" tid)));
      incr picks;
      rev_events := Pick tid :: !rev_events;
      loop ()
    end
    else if tag = tag_grant then begin
      let lock = get_varint c in
      let tid = get_varint c in
      incr grants;
      rev_events := Grant { lock; tid } :: !rev_events;
      loop ()
    end
    else if tag = tag_anchor then begin
      anchor_picks := !anchor_picks + get_varint c;
      anchor_clock := !anchor_clock + get_varint c;
      rev_events := Anchor { picks = !anchor_picks; clock = !anchor_clock } :: !rev_events;
      loop ()
    end
    else if tag = tag_end then begin
      let trailer_picks = get_varint c in
      let trailer_grants = get_varint c in
      if trailer_picks <> !picks then
        raise
          (Error
             (Corrupt (Printf.sprintf "trailer says %d picks, body has %d" trailer_picks !picks)));
      if trailer_grants <> !grants then
        raise
          (Error
             (Corrupt
                (Printf.sprintf "trailer says %d grants, body has %d" trailer_grants !grants)));
      if c.pos <> String.length data then
        raise (Error (Corrupt (Printf.sprintf "%d trailing bytes" (String.length data - c.pos))))
    end
    else raise (Error (Corrupt (Printf.sprintf "unknown tag 0x%02X" tag)))
  in
  loop ();
  { header; events = List.rev !rev_events }

(* {2 Projections} *)

let pick_count t =
  List.fold_left (fun n ev -> match ev with Pick _ -> n + 1 | _ -> n) 0 t.events

let grant_count t =
  List.fold_left (fun n ev -> match ev with Grant _ -> n + 1 | _ -> n) 0 t.events

let picks t =
  let arr = Array.make (pick_count t) 0 in
  let i = ref 0 in
  List.iter
    (fun ev ->
      match ev with
      | Pick tid ->
        arr.(!i) <- tid;
        incr i
      | Grant _ | Anchor _ -> ())
    t.events;
  arr

(* {2 Files} *)

let to_file path t =
  let oc = open_out_bin path in
  output_string oc (encode t);
  close_out oc

let of_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let data = really_input_string ic len in
  close_in ic;
  decode data

let pp_header fmt h =
  Format.fprintf fmt
    "@[<h>%s on %s (threads=%d scale=%h seed=%d%s)@]" h.detector h.target h.threads h.scale
    h.seed
    (match h.config with
    | None -> ""
    | Some c -> Format.asprintf " %a" Config.pp c)
