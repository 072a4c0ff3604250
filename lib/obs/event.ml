type access = [ `Read | `Write ]

type alloc_kind =
  | Fresh
  | Global

type assign_kind =
  | Assign_fresh
  | Assign_reuse
  | Assign_recycle
  | Assign_share

type kind =
  | Lock_acquire of { lock : int; site : int; contended : bool }
  | Lock_release of { lock : int }
  | Fault_raised of { addr : int; pkey : int; access : access }
  | Fault_resolved of { addr : int; pkey : int; latency : int }
  | Wrpkru
  | Rdpkru
  | Pkey_mprotect of { base : int; pages : int; pkey : int }
  | Key_assign of { key : int; obj_id : int; assign : assign_kind }
  | Key_demote of { obj_id : int; to_ro : bool }
  | Key_migrate of { obj_id : int; from_key : int; to_key : int }
  | Vkey_load of { vkey : int; slot : int; evicted : int; pages : int }
  | Pkey_occupancy of { live : int }
  | Alloc of { obj_id : int; size : int; alloc : alloc_kind }
  | Free of { obj_id : int }
  | Race of { obj_id : int; offset : int }
  | Step of { op : [ `Read | `Write | `Compute ]; addr : int }

type t = {
  ts : int;
  tid : int;
  kind : kind;
}

let category = function
  | Lock_acquire _ | Lock_release _ -> "lock"
  | Fault_raised _ | Fault_resolved _ -> "fault"
  | Wrpkru | Rdpkru | Pkey_mprotect _ | Pkey_occupancy _ -> "pkey"
  | Key_assign _ | Key_demote _ | Key_migrate _ | Vkey_load _ -> "key"
  | Alloc _ | Free _ -> "alloc"
  | Race _ -> "race"
  | Step _ -> "step"

let name = function
  | Lock_acquire _ -> "lock-acquire"
  | Lock_release _ -> "lock-release"
  | Fault_raised _ -> "fault"
  | Fault_resolved _ -> "fault-resolved"
  | Wrpkru -> "wrpkru"
  | Rdpkru -> "rdpkru"
  | Pkey_mprotect _ -> "pkey_mprotect"
  | Key_assign _ -> "key-assign"
  | Key_demote _ -> "key-demote"
  | Key_migrate _ -> "key-migrate"
  | Vkey_load _ -> "vkey-load"
  | Pkey_occupancy _ -> "live-pkeys"
  | Alloc _ -> "alloc"
  | Free _ -> "free"
  | Race _ -> "race-record"
  | Step { op = `Read; _ } -> "read"
  | Step { op = `Write; _ } -> "write"
  | Step { op = `Compute; _ } -> "compute"

type arg =
  | Int of int
  | Str of string

let access_str = function `Read -> "read" | `Write -> "write"

let assign_str = function
  | Assign_fresh -> "fresh"
  | Assign_reuse -> "reuse"
  | Assign_recycle -> "recycle"
  | Assign_share -> "share"

let alloc_str = function
  | Fresh -> "fresh"
  | Global -> "global"

let args = function
  | Lock_acquire { lock; site; contended } ->
    [ ("lock", Int lock); ("site", Int site); ("contended", Str (string_of_bool contended)) ]
  | Lock_release { lock } -> [ ("lock", Int lock) ]
  | Fault_raised { addr; pkey; access } ->
    [ ("addr", Int addr); ("pkey", Int pkey); ("access", Str (access_str access)) ]
  | Fault_resolved { addr; pkey; latency } ->
    [ ("addr", Int addr); ("pkey", Int pkey); ("latency_cycles", Int latency) ]
  | Wrpkru | Rdpkru -> []
  | Pkey_mprotect { base; pages; pkey } ->
    [ ("base", Int base); ("pages", Int pages); ("pkey", Int pkey) ]
  | Key_assign { key; obj_id; assign } ->
    [ ("key", Int key); ("obj", Int obj_id); ("rule", Str (assign_str assign)) ]
  | Key_demote { obj_id; to_ro } ->
    [ ("obj", Int obj_id); ("to", Str (if to_ro then "read-only" else "not-accessed")) ]
  | Key_migrate { obj_id; from_key; to_key } ->
    [ ("obj", Int obj_id); ("from", Int from_key); ("to", Int to_key) ]
  | Vkey_load { vkey; slot; evicted; pages } ->
    [ ("vkey", Int vkey); ("slot", Int slot); ("evicted", Int evicted);
      ("pages", Int pages) ]
  | Pkey_occupancy { live } -> [ ("live", Int live) ]
  | Alloc { obj_id; size; alloc } ->
    [ ("obj", Int obj_id); ("size", Int size); ("kind", Str (alloc_str alloc)) ]
  | Free { obj_id } -> [ ("obj", Int obj_id) ]
  | Race { obj_id; offset } -> [ ("obj", Int obj_id); ("offset", Int offset) ]
  | Step { addr; _ } -> [ ("addr", Int addr) ]

let pp fmt t =
  let pp_arg fmt (k, v) =
    match v with
    | Int i -> Format.fprintf fmt "%s=%d" k i
    | Str s -> Format.fprintf fmt "%s=%s" k s
  in
  Format.fprintf fmt "@[<h>[%d] t%d %s/%s %a@]" t.ts t.tid (category t.kind) (name t.kind)
    (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_arg)
    (args t.kind)
