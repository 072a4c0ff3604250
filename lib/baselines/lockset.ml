module Cost_model = Kard_mpk.Cost_model
module Hooks = Kard_sched.Hooks
module Int_set = Set.Make (Int)

type state =
  | Virgin
  | Exclusive of int
  | Shared
  | Shared_modified

type warning = {
  addr : Kard_mpk.Page.addr;
  thread : int;
  access : [ `Read | `Write ];
}

type cell = {
  mutable st : state;
  mutable candidates : Int_set.t;
  mutable reported : bool;
}

type t = {
  env : Hooks.env;
  cells : (int, cell) Hashtbl.t; (* 8-byte granule *)
  held : (int, Int_set.t) Hashtbl.t;
  mutable warnings : warning list;
}

(* [cells] is only looked up and counted, never iterated: it starts
   small, on the minor heap, and resizes itself (DESIGN.md §5). *)
let create env =
  { env; cells = Hashtbl.create 64; held = Hashtbl.create 16; warnings = [] }

let held_of t tid = Option.value ~default:Int_set.empty (Hashtbl.find_opt t.held tid)

let cell_of t addr =
  let granule = addr lsr 3 in
  match Hashtbl.find_opt t.cells granule with
  | Some cell -> cell
  | None ->
    let cell = { st = Virgin; candidates = Int_set.empty; reported = false } in
    Hashtbl.replace t.cells granule cell;
    cell

let warn t cell ~addr ~tid ~access =
  if not cell.reported then begin
    cell.reported <- true;
    t.warnings <- { addr; thread = tid; access } :: t.warnings
  end

(* The Eraser state machine: first thread owns the location; second
   thread moves it to Shared (reads) or Shared-modified (writes);
   candidate locksets are only refined and checked once shared. *)
let on_access t ~tid ~addr access =
  let cell = cell_of t addr in
  let locks = held_of t tid in
  (match cell.st, access with
  | Virgin, (`Read | `Write) ->
    cell.st <- Exclusive tid;
    cell.candidates <- locks
  | Exclusive owner, (`Read | `Write) when owner = tid -> cell.candidates <- locks
  | Exclusive _, `Read ->
    cell.st <- Shared;
    cell.candidates <- Int_set.inter cell.candidates locks
  | Exclusive _, `Write ->
    cell.st <- Shared_modified;
    cell.candidates <- Int_set.inter cell.candidates locks;
    if Int_set.is_empty cell.candidates then warn t cell ~addr ~tid ~access
  | Shared, `Read -> cell.candidates <- Int_set.inter cell.candidates locks
  | Shared, `Write ->
    cell.st <- Shared_modified;
    cell.candidates <- Int_set.inter cell.candidates locks;
    if Int_set.is_empty cell.candidates then warn t cell ~addr ~tid ~access
  | Shared_modified, (`Read | `Write) ->
    cell.candidates <- Int_set.inter cell.candidates locks;
    if Int_set.is_empty cell.candidates then warn t cell ~addr ~tid ~access);
  2 * t.env.Hooks.cost.Cost_model.tsan_access

let max_block_granules = 64

let on_block t ~tid (b : Kard_sched.Op.block) access =
  let granules = max 1 (min (b.Kard_sched.Op.span / 8) b.Kard_sched.Op.count) in
  let sampled = min granules max_block_granules in
  let step = max 8 (b.Kard_sched.Op.span / sampled / 8 * 8) in
  let rec loop i =
    if i < sampled then begin
      ignore (on_access t ~tid ~addr:(b.Kard_sched.Op.base + (i * step)) access : int);
      loop (i + 1)
    end
  in
  loop 0;
  2 * b.Kard_sched.Op.count * t.env.Hooks.cost.Cost_model.tsan_access

(* Freed memory restarts the state machine when its address is later
   reused (as Eraser's malloc interposition achieves). *)
let clear_range t (meta : Kard_alloc.Obj_meta.t) =
  let granules = max 1 ((meta.Kard_alloc.Obj_meta.reserved + 7) / 8) in
  for i = 0 to granules - 1 do
    Hashtbl.remove t.cells ((meta.Kard_alloc.Obj_meta.base + (i * 8)) lsr 3)
  done;
  8

let hooks t =
  let null = Hooks.null ~name:"eraser-lockset" in
  { null with
    Hooks.access =
      Some
        { Hooks.on_read = (fun ~tid ~addr -> on_access t ~tid ~addr `Read);
          on_write = (fun ~tid ~addr -> on_access t ~tid ~addr `Write);
          on_read_block = (fun ~tid ~block -> on_block t ~tid block `Read);
          on_write_block = (fun ~tid ~block -> on_block t ~tid block `Write) };
    on_lock =
      (fun ~tid ~lock ~site:_ ->
        Hashtbl.replace t.held tid (Int_set.add lock (held_of t tid));
        t.env.Hooks.cost.Cost_model.atomic_op);
    on_unlock =
      (fun ~tid ~lock ->
        Hashtbl.replace t.held tid (Int_set.remove lock (held_of t tid));
        t.env.Hooks.cost.Cost_model.atomic_op);
    on_free = (fun ~tid:_ meta -> clear_range t meta);
    metadata_bytes = (fun () -> 48 * Hashtbl.length t.cells) }

let warnings t = List.rev t.warnings
let state_of t addr = (cell_of t addr).st

let make ~cell env =
  let t = create env in
  cell := Some t;
  hooks t
