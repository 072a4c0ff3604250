type decision =
  | Reuse of int
  | Fresh of int
  | Recycle of int * int list
  | Share of int

type stats = {
  reuse_events : int;
  fresh_events : int;
  recycling_events : int;
  sharing_events : int;
}

(* Keys are plain ints: the physical data pkeys ([1..data_keys]) in
   identity mode, or virtual keys ([1..pool]) when the vkey cache is
   on.  Identity mode keeps the seed's exact scan orders (its reports
   are byte-compatibility-frozen); virtual mode swaps the O(keys)
   linear scans for cursors, because a pool of thousands cannot
   afford an O(pool) walk per assignment:

   - the fresh rule hands out [next_fresh] and bumps it on {!note}
     (every key below the cursor has been assigned at least once);
   - once the cursor exhausts the pool, the recycle rule round-robins
     a clock hand over the pool for the first unheld key, instead of
     sorting all keys by load;
   - sharing — only reachable when every key in the pool is held,
     i.e. essentially never with a real pool — falls back to the
     legacy whole-pool scan. *)
type t = {
  config : Config.t;
  keys : int list;
  pool : int; (* 0 = identity mode *)
  mutable next_fresh : int;
  mutable recycle_hand : int; (* 1-based pool position *)
  mutable stats : stats;
}

let create config =
  let data_key_count = Kard_mpk.Pkey.data_key_count in
  if config.Config.data_keys < 1 || config.Config.data_keys > data_key_count then
    invalid_arg
      (Printf.sprintf "Key_assign.create: data_keys must be within [1, %d]" data_key_count);
  let pool = max 0 config.Config.vkeys in
  let keys =
    if pool > 0 then List.init pool (fun i -> i + 1)
    else
      List.filteri (fun i _ -> i < config.Config.data_keys)
        (List.map Kard_mpk.Pkey.to_int Kard_mpk.Pkey.data_keys)
  in
  { config;
    keys;
    pool;
    next_fresh = 1;
    recycle_hand = 1;
    stats = { reuse_events = 0; fresh_events = 0; recycling_events = 0; sharing_events = 0 } }

let available_keys t = t.keys

let in_key_space t key =
  if t.pool > 0 then key >= 1 && key <= t.pool
  else key >= 1 && key <= t.config.Config.data_keys

let rec touches_any somap (mine : Section_object_map.entries) ~theirs i =
  i < mine.Section_object_map.n
  && (Section_object_map.touches somap ~section:theirs ~obj_id:mine.Section_object_map.objs.(i)
     || touches_any somap mine ~theirs (i + 1))

let disjoint_sections somap ~section holders =
  let mine = Section_object_map.entries somap ~section in
  List.for_all
    (fun (h : Key_section_map.holder) ->
      not (touches_any somap mine ~theirs:h.Key_section_map.section 0))
    holders

(* Legacy share scoring, shared by both modes (virtual mode only
   reaches it with the whole pool held). *)
let choose_share t ~ksmap ~somap ~section =
  let scored = List.map (fun key -> (key, Key_section_map.holders ksmap key)) t.keys in
  let disjoint =
    if t.config.Config.share_disjoint_sections then
      List.find_opt (fun (_, holders) -> disjoint_sections somap ~section holders) scored
    else None
  in
  match disjoint with
  | Some (key, _) -> Share key
  | None ->
    (* Least-loaded key as a fallback. *)
    let sorted =
      List.sort (fun (_, a) (_, b) -> compare (List.length a) (List.length b)) scored
    in
    (match sorted with
    | (key, _) :: _ -> Share key
    | [] -> assert false (* t.keys is non-empty by construction *))

let choose_identity t ~ksmap ~domains ~somap ~section =
  (* Rule 2: an unassigned key (no holders, protects no object). *)
  let fresh =
    List.find_opt
      (fun key ->
        Key_section_map.holders ksmap key = [] && Domain_state.objects_with_key domains key = [])
      t.keys
  in
  match fresh with
  | Some key -> Fresh key
  | None -> begin
    (* Rule 3a: recycle an unheld key, demoting its objects. *)
    let recyclable =
      if t.config.Config.prefer_recycle then
        let unheld = Key_section_map.unheld_keys ksmap ~among:t.keys in
        let with_load =
          List.map (fun key -> (key, Domain_state.objects_with_key domains key)) unheld
        in
        match List.sort (fun (_, a) (_, b) -> compare (List.length a) (List.length b)) with_load with
        | [] -> None
        | (key, objs) :: _ -> Some (key, objs)
      else None
    in
    match recyclable with
    | Some (key, objs) -> Recycle (key, objs)
    | None -> choose_share t ~ksmap ~somap ~section
  end

let choose_virtual t ~ksmap ~domains ~somap ~section =
  if t.next_fresh <= t.pool then Fresh t.next_fresh
  else begin
    (* Recycle hand: first matching key at or after the hand, pool
       order, wrapping — O(scan) amortized instead of an O(pool)
       load-sorted sweep per assignment. *)
    let scan pred =
      let found = ref (-1) in
      let i = ref 0 in
      while !found < 0 && !i < t.pool do
        let key = ((t.recycle_hand - 1 + !i) mod t.pool) + 1 in
        if pred key then found := key;
        incr i
      done;
      if !found < 0 then None else Some !found
    in
    let unheld key = Key_section_map.held_count ksmap key = 0 in
    let recyclable =
      if t.config.Config.prefer_recycle then
        (* Prefer a free key — unheld {e and} protecting nothing — over
           stealing a live association: a pool sized past the active
           section count then converges to stable per-section keys
           (the whole point of virtualization) instead of churning
           object–key bindings the way 13 physical keys must. *)
        match scan (fun key -> unheld key && Domain_state.key_load domains key = 0) with
        | Some key -> Some (key, [])
        | None ->
          (match scan unheld with
          | Some key -> Some (key, Domain_state.objects_with_key domains key)
          | None -> None)
      else None
    in
    match recyclable with
    | Some (key, objs) -> Recycle (key, objs)
    | None -> choose_share t ~ksmap ~somap ~section
  end

let choose t ~ksmap ~domains ~somap ~tid ~section =
  (* Rule 1: reuse a data key the faulting thread already holds with
     read-write permission (granting another thread's read-only key a
     new object would leak writes). *)
  let held =
    List.filter
      (fun (key, perm) ->
        in_key_space t key && Kard_mpk.Perm.equal perm Kard_mpk.Perm.Read_write)
      (Key_section_map.held_by ksmap ~tid)
  in
  match held with
  | (key, _) :: _ -> Reuse key
  | [] ->
    if t.pool > 0 then choose_virtual t ~ksmap ~domains ~somap ~section
    else choose_identity t ~ksmap ~domains ~somap ~section

let note t decision =
  let s = t.stats in
  (match decision with
  | Fresh key when t.pool > 0 ->
    if key >= t.next_fresh then t.next_fresh <- key + 1
  | Recycle (key, _) when t.pool > 0 ->
    (* Advance the hand past the recycled key so successive recycles
       spread over the pool instead of thrashing one key. *)
    t.recycle_hand <- (key mod t.pool) + 1
  | _ -> ());
  t.stats <-
    (match decision with
    | Reuse _ -> { s with reuse_events = s.reuse_events + 1 }
    | Fresh _ -> { s with fresh_events = s.fresh_events + 1 }
    | Recycle _ -> { s with recycling_events = s.recycling_events + 1 }
    | Share _ -> { s with sharing_events = s.sharing_events + 1 })

let stats t = t.stats

let pp_decision fmt = function
  | Reuse key -> Format.fprintf fmt "reuse k%d" key
  | Fresh key -> Format.fprintf fmt "fresh k%d" key
  | Recycle (key, objs) -> Format.fprintf fmt "recycle k%d (%d objects)" key (List.length objs)
  | Share key -> Format.fprintf fmt "share k%d" key
