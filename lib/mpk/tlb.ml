type entry = {
  mutable vpage : Page.vpage;
  mutable valid : bool;
  mutable stamp : int;
  mutable pkey : Pkey.t;    (* translated protection key, cached at fill *)
  mutable pkey_gen : int;   (* page-table generation the cache is valid for *)
}

type t = {
  sets : entry array array;
  set_count : int;
  mutable tick : int;
  mutable accesses : int;
  mutable misses : int;
  mutable last_miss : bool; (* whether the latest [translate] missed *)
}

(* A generation no live page table ever reports, so plain [access]
   fills are never mistaken for a valid pkey cache. *)
let stale_gen = -1

let create ?(entries = 64) ?(ways = 4) () =
  if entries <= 0 || ways <= 0 || entries mod ways <> 0 then
    invalid_arg "Tlb.create: entries must be a positive multiple of ways";
  let set_count = entries / ways in
  let fresh_entry _ = { vpage = 0; valid = false; stamp = 0; pkey = Pkey.k_def; pkey_gen = stale_gen } in
  { sets = Array.init set_count (fun _ -> Array.init ways fresh_entry);
    set_count;
    tick = 0;
    accesses = 0;
    misses = 0;
    last_miss = false }

let find_entry set vpage =
  let ways = Array.length set in
  let rec find i =
    if i >= ways then None
    else if set.(i).valid && set.(i).vpage = vpage then Some set.(i)
    else find (i + 1)
  in
  find 0

(* Evict the LRU way (or fill an invalid one, which has stamp 0). *)
let victim_of set =
  let ways = Array.length set in
  let victim = ref set.(0) in
  for i = 1 to ways - 1 do
    let e = set.(i) in
    let v = !victim in
    if (not e.valid) && v.valid then victim := e
    else if e.valid = v.valid && e.stamp < v.stamp then victim := e
  done;
  !victim

(* The hot-path variant of [access_translate]: same accounting, same
   replacement, but no closure, no tuple and no option — page-table
   walks go through [pt] directly and the hit/miss verdict is left in
   [last_missed].  Per the allocation contract, every simulated data
   access runs through here. *)
let translate t vpage ~gen ~pt =
  t.tick <- t.tick + 1;
  t.accesses <- t.accesses + 1;
  let set = t.sets.(vpage mod t.set_count) in
  let ways = Array.length set in
  let found = ref (-1) in
  let i = ref 0 in
  while !found < 0 && !i < ways do
    let e = set.(!i) in
    if e.valid && e.vpage = vpage then found := !i else incr i
  done;
  if !found >= 0 then begin
    let entry = set.(!found) in
    entry.stamp <- t.tick;
    t.last_miss <- false;
    (* Hit/miss accounting is translation presence only (see
       [access_translate]): a stale pkey re-walks but still hits. *)
    if entry.pkey_gen <> gen then begin
      entry.pkey <- Page_table.pkey_of_vpage pt vpage;
      entry.pkey_gen <- gen
    end;
    entry.pkey
  end
  else begin
    t.misses <- t.misses + 1;
    t.last_miss <- true;
    let v = victim_of set in
    v.vpage <- vpage;
    v.valid <- true;
    v.stamp <- t.tick;
    v.pkey <- Page_table.pkey_of_vpage pt vpage;
    v.pkey_gen <- gen;
    v.pkey
  end

let last_missed t = t.last_miss

let access_translate t vpage ~gen ~load =
  t.tick <- t.tick + 1;
  t.accesses <- t.accesses + 1;
  let set = t.sets.(vpage mod t.set_count) in
  match find_entry set vpage with
  | Some entry ->
    entry.stamp <- t.tick;
    (* Hit/miss accounting is translation presence only: a stale pkey
       still has a cached translation, it just re-walks the key — so
       dTLB statistics are unaffected by pkey churn. *)
    if entry.pkey_gen <> gen then begin
      entry.pkey <- load ();
      entry.pkey_gen <- gen
    end;
    (entry.pkey, `Hit)
  | None ->
    t.misses <- t.misses + 1;
    let v = victim_of set in
    v.vpage <- vpage;
    v.valid <- true;
    v.stamp <- t.tick;
    v.pkey <- load ();
    v.pkey_gen <- gen;
    (v.pkey, `Miss)

let access t vpage =
  (* Translation-only probe: fills carry no usable pkey cache. *)
  snd (access_translate t vpage ~gen:stale_gen ~load:(fun () -> Pkey.k_def))

let note_hits t n =
  assert (n >= 0);
  t.accesses <- t.accesses + n

let note_misses t n =
  assert (n >= 0);
  t.accesses <- t.accesses + n;
  t.misses <- t.misses + n

let flush t =
  Array.iter (fun set -> Array.iter (fun e -> e.valid <- false) set) t.sets

let accesses t = t.accesses
let misses t = t.misses
let miss_rate t = if t.accesses = 0 then 0. else float_of_int t.misses /. float_of_int t.accesses

let reset_stats t =
  t.accesses <- 0;
  t.misses <- 0
