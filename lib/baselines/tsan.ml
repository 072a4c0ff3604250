module Cost_model = Kard_mpk.Cost_model
module Hooks = Kard_sched.Hooks

type race = {
  addr : Kard_mpk.Page.addr;
  thread : int;
  access : [ `Read | `Write ];
  prior_thread : int;
  prior_access : [ `Read | `Write ];
  prior_locked : bool;
  locked : bool;
}

type t = {
  env : Hooks.env;
  max_threads : int;
  clocks : (int, Vector_clock.t) Hashtbl.t;       (* C(t) *)
  lock_clocks : (int, Vector_clock.t) Hashtbl.t;  (* L(m) *)
  shadow : Shadow_memory.t;
  locks_held : (int, int) Hashtbl.t;              (* tid -> lock count *)
  (* Whether each epoch was produced under a lock, for the ILU split:
     (tid, clock) -> held a lock.  Only looked up and counted, so it
     starts small, on the minor heap (DESIGN.md §5). *)
  epoch_locked : (int * int, bool) Hashtbl.t;
  mutable races : race list;
  seen : (int * int * int, unit) Hashtbl.t;       (* dedupe: granule x tids *)
}

let create ?(max_threads = 64) env =
  { env;
    max_threads;
    clocks = Hashtbl.create 16;
    lock_clocks = Hashtbl.create 16;
    shadow = Shadow_memory.create ();
    locks_held = Hashtbl.create 16;
    epoch_locked = Hashtbl.create 64;
    races = [];
    seen = Hashtbl.create 64 }

let clock_of t tid =
  match Hashtbl.find_opt t.clocks tid with
  | Some vc -> vc
  | None ->
    let vc = Vector_clock.create ~threads:t.max_threads in
    Vector_clock.tick vc tid;
    Hashtbl.replace t.clocks tid vc;
    vc

let lock_clock t lock =
  match Hashtbl.find_opt t.lock_clocks lock with
  | Some vc -> vc
  | None ->
    let vc = Vector_clock.create ~threads:t.max_threads in
    Hashtbl.replace t.lock_clocks lock vc;
    vc

let holds_lock t tid = Option.value ~default:0 (Hashtbl.find_opt t.locks_held tid) > 0

let epoch_of t tid =
  let vc = clock_of t tid in
  { Shadow_memory.tid; clock = Vector_clock.get vc tid }

let note_epoch t tid =
  let e = epoch_of t tid in
  Hashtbl.replace t.epoch_locked (e.Shadow_memory.tid, e.Shadow_memory.clock) (holds_lock t tid);
  e

let epoch_was_locked t (tid, clock) =
  Option.value ~default:false (Hashtbl.find_opt t.epoch_locked (tid, clock))

(* e happened-before t's current state? *)
let ordered t (etid, eclock) ~tid = eclock <= Vector_clock.get (clock_of t tid) etid

let report t ~addr ~tid ~access ~prior ~prior_access =
  let ptid, pclock = prior in
  let key = (addr lsr 3, min tid ptid, max tid ptid) in
  if not (Hashtbl.mem t.seen key) then begin
    Hashtbl.replace t.seen key ();
    t.races <-
      { addr;
        thread = tid;
        access;
        prior_thread = ptid;
        prior_access;
        prior_locked = epoch_was_locked t (ptid, pclock);
        locked = holds_lock t tid }
      :: t.races
  end

let cost_access t = t.env.Hooks.cost.Cost_model.tsan_access

let on_access t ~tid ~addr access =
  let cell = Shadow_memory.cell_of t.shadow addr in
  (match cell.Shadow_memory.write with
  | Some e
    when e.Shadow_memory.tid <> tid
         && not (ordered t (e.Shadow_memory.tid, e.Shadow_memory.clock) ~tid) ->
    report t ~addr ~tid ~access ~prior:(e.Shadow_memory.tid, e.Shadow_memory.clock)
      ~prior_access:`Write
  | Some _ | None -> ());
  (match access with
  | `Read ->
    let e = note_epoch t tid in
    cell.Shadow_memory.reads <-
      (tid, e.Shadow_memory.clock) :: List.remove_assoc tid cell.Shadow_memory.reads
  | `Write ->
    List.iter
      (fun (rtid, rclock) ->
        if rtid <> tid && not (ordered t (rtid, rclock) ~tid) then
          report t ~addr ~tid ~access:`Write ~prior:(rtid, rclock) ~prior_access:`Read)
      cell.Shadow_memory.reads;
    let e = note_epoch t tid in
    cell.Shadow_memory.write <- Some e;
    cell.Shadow_memory.reads <- []);
  cost_access t

(* Block instrumentation: charge for every access, update shadow for a
   bounded sample of granules (private sweeps dominate block traffic;
   shared objects are accessed through individual ops). *)
let max_block_granules = 64

let on_block t ~tid (b : Kard_sched.Op.block) access =
  let granules = max 1 (min (b.Kard_sched.Op.span / 8) b.Kard_sched.Op.count) in
  let sampled = min granules max_block_granules in
  let step = max 8 (b.Kard_sched.Op.span / sampled / 8 * 8) in
  let rec loop i =
    if i < sampled then begin
      let addr = b.Kard_sched.Op.base + (i * step) in
      ignore (on_access t ~tid ~addr access : int);
      loop (i + 1)
    end
  in
  loop 0;
  b.Kard_sched.Op.count * cost_access t

let on_lock t ~tid ~lock =
  Hashtbl.replace t.locks_held tid (Option.value ~default:0 (Hashtbl.find_opt t.locks_held tid) + 1);
  let c = clock_of t tid in
  Vector_clock.join ~into:c (lock_clock t lock);
  t.env.Hooks.cost.Cost_model.tsan_sync

let on_unlock t ~tid ~lock =
  Hashtbl.replace t.locks_held tid (Option.value ~default:0 (Hashtbl.find_opt t.locks_held tid) - 1);
  let c = clock_of t tid in
  let l = lock_clock t lock in
  Vector_clock.join ~into:l c;
  Hashtbl.replace t.lock_clocks lock (Vector_clock.copy c);
  Vector_clock.tick c tid;
  t.env.Hooks.cost.Cost_model.tsan_sync

(* Shadow state is invalidated when memory is freed, as real TSan
   does: reused heap addresses must not inherit another thread's
   epochs, or every malloc/free cycle looks like a race.  Fresh
   allocations need no clearing — their shadow was cleared when the
   address was last freed (or never existed). *)
let clear_range t (meta : Kard_alloc.Obj_meta.t) =
  let granules = max 1 ((meta.Kard_alloc.Obj_meta.reserved + 7) / 8) in
  let first = meta.Kard_alloc.Obj_meta.base in
  for i = 0 to granules - 1 do
    Shadow_memory.clear t.shadow (first + (i * 8))
  done;
  8 (* a few cycles of allocator-hook bookkeeping *)

let metadata_bytes t =
  Shadow_memory.bytes t.shadow
  + (Hashtbl.length t.clocks * 8 * t.max_threads)
  + (Hashtbl.length t.lock_clocks * 8 * t.max_threads)
  + (Hashtbl.length t.epoch_locked * 16)

let hooks t =
  let null = Hooks.null ~name:"tsan" in
  { null with
    Hooks.access =
      Some
        { Hooks.on_read = (fun ~tid ~addr -> on_access t ~tid ~addr `Read);
          on_write = (fun ~tid ~addr -> on_access t ~tid ~addr `Write);
          on_read_block = (fun ~tid ~block -> on_block t ~tid block `Read);
          on_write_block = (fun ~tid ~block -> on_block t ~tid block `Write) };
    on_lock = (fun ~tid ~lock ~site:_ -> on_lock t ~tid ~lock);
    on_unlock = (fun ~tid ~lock -> on_unlock t ~tid ~lock);
    on_free = (fun ~tid:_ meta -> clear_range t meta);
    metadata_bytes = (fun () -> metadata_bytes t) }

let races t = List.rev t.races
let ilu_races t = List.filter (fun r -> r.locked || r.prior_locked) (races t)

let make ?max_threads ~cell env =
  let t = create ?max_threads env in
  cell := Some t;
  hooks t
