(* Every way of every set lives in one int array, four ints per way:
   the vpage ([invalid] until the first fill), the LRU stamp, the
   cached pkey and the page-table generation the pkey was filled at.
   Set [s] occupies the [ways] consecutive ways from [s * set_words].
   At the default 64 entries that is 256 ints, small enough for the
   minor heap: a machine creates one TLB per thread, and the sweep
   loops create thousands of machines (DESIGN.md §5). *)
let way_words = 4
let vpage_at = 0
let stamp_at = 1
let pkey_at = 2
let gen_at = 3

(* No page is negative: [vpage mod set_count] would not index a set. *)
let invalid = -1

type t = {
  table : int array;
  set_count : int;
  set_words : int; (* [ways per set * way_words] *)
  mutable tick : int;
  mutable accesses : int;
  mutable misses : int;
  mutable last_miss : bool; (* whether the latest access missed *)
}

(* A generation no page table ever reports (they count up from 0), so
   a way that was just filled, or last touched by plain [access], is
   never mistaken for a valid pkey cache. *)
let stale_gen = -1

let create ?(entries = 64) ?(ways = 4) () =
  if entries <= 0 || ways <= 0 || entries mod ways <> 0 then
    invalid_arg "Tlb.create: entries must be a positive multiple of ways";
  let arr = Array.make (entries * way_words) 0 in
  for way = 0 to entries - 1 do
    arr.((way * way_words) + vpage_at) <- invalid;
    arr.((way * way_words) + gen_at) <- stale_gen
  done;
  { table = arr;
    set_count = entries / ways;
    set_words = ways * way_words;
    tick = 0;
    accesses = 0;
    misses = 0;
    last_miss = false }

(* The way in [\[way, stop)] holding [vpage], or -1.  Top-level, so a
   lookup builds no closure, and typed, so it compares ints inline. *)
let rec find_way (table : int array) (vpage : int) way stop =
  if way >= stop then -1
  else if table.(way + vpage_at) = vpage then way
  else find_way table vpage (way + way_words) stop

(* The least recently used way in [\[way, stop)], the first of equals.
   Every fill stamps a tick of at least 1 and an invalid way keeps
   stamp 0, so invalid ways fill first, in way order. *)
let rec victim_of (table : int array) lru way stop =
  if way >= stop then lru
  else
    let lru = if table.(way + stamp_at) < table.(lru + stamp_at) then way else lru in
    victim_of table lru (way + way_words) stop

(* One access: the tick and the counters move, and the way that holds
   [vpage] (after a miss, the refilled victim) is stamped.  Returns
   that way's offset; [last_miss] tells which case it was. *)
let[@inline] touch t vpage =
  t.tick <- t.tick + 1;
  t.accesses <- t.accesses + 1;
  let table = t.table in
  let first = vpage mod t.set_count * t.set_words in
  let stop = first + t.set_words in
  let way = find_way table vpage first stop in
  if way >= 0 then begin
    table.(way + stamp_at) <- t.tick;
    t.last_miss <- false;
    way
  end
  else begin
    t.misses <- t.misses + 1;
    t.last_miss <- true;
    let way = victim_of table first (first + way_words) stop in
    table.(way + vpage_at) <- vpage;
    table.(way + stamp_at) <- t.tick;
    table.(way + gen_at) <- stale_gen;
    way
  end

(* No closure, no tuple and no option: page-table walks go through
   [pt] directly and the hit/miss verdict is left in [last_missed].
   Per the allocation contract, every simulated data access runs
   through here. *)
let translate t vpage ~gen ~pt =
  let way = touch t vpage in
  let table = t.table in
  (* Hit/miss accounting is translation presence only: a stale pkey
     still has a cached translation, it just re-walks the key — so
     dTLB statistics are unaffected by pkey churn. *)
  if table.(way + gen_at) <> gen then begin
    table.(way + pkey_at) <- Pkey.to_int (Page_table.pkey_of_vpage pt vpage);
    table.(way + gen_at) <- gen
  end;
  Pkey.of_int table.(way + pkey_at)

let last_missed t = t.last_miss

let access t vpage =
  (* Translation-only probe: leaves no usable pkey cache. *)
  t.table.(touch t vpage + gen_at) <- stale_gen;
  if t.last_miss then `Miss else `Hit

let note_hits t n =
  assert (n >= 0);
  t.accesses <- t.accesses + n

let note_misses t n =
  assert (n >= 0);
  t.accesses <- t.accesses + n;
  t.misses <- t.misses + n

let accesses t = t.accesses
let misses t = t.misses
let miss_rate t = if t.accesses = 0 then 0. else float_of_int t.misses /. float_of_int t.accesses

let reset_stats t =
  t.accesses <- 0;
  t.misses <- 0
