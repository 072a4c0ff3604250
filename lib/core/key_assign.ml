type rule =
  | Reuse
  | Fresh
  | Recycle
  | Share

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
     legacy whole-pool scan.

   A choice is a constant rule plus the key in [chosen], and the
   decisions are counted in place, so choosing and noting a key
   allocate nothing. *)
type t = {
  config : Config.t;
  keys : int list;
  pool : int; (* 0 = identity mode *)
  mutable next_fresh : int;
  mutable recycle_hand : int; (* 1-based pool position *)
  mutable chosen : int;
  mutable reuses : int;
  mutable freshes : int;
  mutable recycles : int;
  mutable shares : int;
}

let create config =
  let pool = config.Config.vkeys in
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
    chosen = -1;
    reuses = 0;
    freshes = 0;
    recycles = 0;
    shares = 0 }

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

(* The first key with the fewest holdings. *)
let rec least_held ksmap best best_n = function
  | [] -> best
  | key :: rest ->
    let n = Key_section_map.held_count ksmap key in
    if n < best_n then least_held ksmap key n rest else least_held ksmap best best_n rest

(* Every rule ends here: the key goes to [chosen]. *)
let pick t rule key =
  t.chosen <- key;
  rule

(* Rule 3b, shared by both modes (virtual mode only reaches it with
   the whole pool held): the first key whose holders' sections are
   disjoint from [section], else the least held. *)
let choose_share t ~ksmap ~somap ~section =
  match
    List.find_opt
      (fun key -> disjoint_sections somap ~section (Key_section_map.holders ksmap key))
      t.keys
  with
  | Some key -> pick t Share key
  | None -> pick t Share (least_held ksmap (-1) max_int t.keys)

let unheld ksmap key = Key_section_map.held_count ksmap key = 0

(* Rule 2 in identity mode: the first key nobody holds and that
   protects no object; -1 if none. *)
let rec first_free ksmap domains = function
  | [] -> -1
  | key :: rest ->
    if unheld ksmap key && Domain_state.key_load domains key = 0 then key
    else first_free ksmap domains rest

(* Rule 3a in identity mode: the first unheld key of least load; -1 if
   every key is held. *)
let rec least_loaded_unheld ksmap domains best best_load = function
  | [] -> best
  | key :: rest ->
    let load = if unheld ksmap key then Domain_state.key_load domains key else max_int in
    if load < best_load then least_loaded_unheld ksmap domains key load rest
    else least_loaded_unheld ksmap domains best best_load rest

let choose_identity t ~ksmap ~domains ~somap ~section =
  let fresh = first_free ksmap domains t.keys in
  if fresh >= 0 then pick t Fresh fresh
  else
    let key = least_loaded_unheld ksmap domains (-1) max_int t.keys in
    if key >= 0 then pick t Recycle key else choose_share t ~ksmap ~somap ~section

(* The first unheld key at or after the recycle hand, in pool order
   and wrapping, that also protects no object when [free]; -1 if none.
   O(scan) amortized instead of an O(pool) load-sorted sweep per
   assignment. *)
let rec scan_pool t ksmap domains ~free i =
  if i >= t.pool then -1
  else
    let key = ((t.recycle_hand - 1 + i) mod t.pool) + 1 in
    if unheld ksmap key && ((not free) || Domain_state.key_load domains key = 0) then key
    else scan_pool t ksmap domains ~free (i + 1)

let choose_virtual t ~ksmap ~domains ~somap ~section =
  if t.next_fresh <= t.pool then pick t Fresh t.next_fresh
  else
    (* Prefer a free key — unheld {e and} protecting nothing — over
       stealing a live association: a pool sized past the active
       section count then converges to stable per-section keys (the
       whole point of virtualization) instead of churning object–key
       bindings the way 13 physical keys must. *)
    let free = scan_pool t ksmap domains ~free:true 0 in
    if free >= 0 then pick t Recycle free
    else
      let key = scan_pool t ksmap domains ~free:false 0 in
      if key >= 0 then pick t Recycle key else choose_share t ~ksmap ~somap ~section

(* Rule 1: reuse a data key the faulting thread already holds with
   read-write permission (granting another thread's read-only key a
   new object would leak writes).  A key an open section acquired may
   have been released by a nested exit since, hence the map check. *)
let reusable t ~ksmap ~tid key =
  in_key_space t key
  && Kard_mpk.Perm.equal (Key_section_map.perm_of ksmap key ~tid) Kard_mpk.Perm.Read_write

let choose t ~ksmap ~domains ~somap ~section ~reuse =
  if reuse >= 0 then pick t Reuse reuse
  else if t.pool > 0 then choose_virtual t ~ksmap ~domains ~somap ~section
  else choose_identity t ~ksmap ~domains ~somap ~section

let chosen t = t.chosen

let note t rule key =
  match rule with
  | Reuse -> t.reuses <- t.reuses + 1
  | Fresh ->
    if t.pool > 0 && key >= t.next_fresh then t.next_fresh <- key + 1;
    t.freshes <- t.freshes + 1
  | Recycle ->
    (* Advance the hand past the recycled key so successive recycles
       spread over the pool instead of thrashing one key. *)
    if t.pool > 0 then t.recycle_hand <- (key mod t.pool) + 1;
    t.recycles <- t.recycles + 1
  | Share -> t.shares <- t.shares + 1

let stats t =
  { reuse_events = t.reuses;
    fresh_events = t.freshes;
    recycling_events = t.recycles;
    sharing_events = t.shares }
